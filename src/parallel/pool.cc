#include "parallel/pool.hh"

#include <algorithm>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.hh"

namespace mbias::parallel
{

ThreadPool::ThreadPool(unsigned jobs, obs::Registry *metrics)
    : jobs_(std::max(jobs, 1u))
{
    if (metrics) {
        tasks_ = &metrics->counter("pool.tasks");
        steals_ = &metrics->counter("pool.steals");
        queueWait_ = &metrics->histogram("pool.queue_wait_us");
    }
}

namespace
{

/** One worker's queue.  A plain mutex-guarded deque: campaign tasks
 *  are milliseconds each, so queue overhead is noise. */
struct WorkQueue
{
    std::mutex mutex;
    std::deque<std::size_t> tasks;

    bool
    popFront(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty())
            return false;
        out = tasks.front();
        tasks.pop_front();
        return true;
    }

    bool
    stealBack(std::size_t &out)
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty())
            return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }
};

} // namespace

void
ThreadPool::parallelFor(
    std::size_t count,
    const std::function<void(std::size_t, unsigned)> &fn)
{
    if (jobs_ == 1 || count <= 1) {
        // Serial reference schedule: no queues, so no queue wait —
        // only the schedule-independent task count is recorded.
        for (std::size_t i = 0; i < count; ++i) {
            if (tasks_)
                tasks_->add();
            fn(i, 0);
        }
        return;
    }

    const unsigned workers =
        unsigned(std::min<std::size_t>(jobs_, count));
    std::vector<WorkQueue> queues(workers);
    for (std::size_t i = 0; i < count; ++i)
        queues[i % workers].tasks.push_back(i);

    auto work = [&](unsigned w) {
        obs::setThreadShard(w);
        std::size_t task;
        for (;;) {
            obs::ScopedSpan wait("queue-wait", "pool", queueWait_);
            bool got = queues[w].popFront(task);
            bool stolen = false;
            // No new tasks are ever enqueued after the deal above, so
            // a full unsuccessful sweep over all queues means done.
            for (unsigned k = 1; !got && k < workers; ++k) {
                got = queues[(w + k) % workers].stealBack(task);
                stolen = got;
            }
            if (!got) {
                wait.cancel(); // no task ends this wait
                return;
            }
            wait.stop();
            if (stolen && steals_)
                steals_->add();
            if (tasks_)
                tasks_->add();
            fn(task, w);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (unsigned w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (auto &t : threads)
        t.join();
    // The calling thread doubled as worker 0; restore its default id.
    obs::setThreadShard(0);
}

} // namespace mbias::parallel
