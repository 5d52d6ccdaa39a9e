#ifndef MBIAS_PARALLEL_POOL_HH
#define MBIAS_PARALLEL_POOL_HH

#include <cstddef>
#include <functional>

#include "obs/metrics.hh"

namespace mbias::parallel
{

/**
 * A work-stealing pool for index-based task sets.
 *
 * The task indices [0, count) are dealt round-robin onto per-worker
 * deques; each worker drains its own deque from the front and, when
 * empty, steals from the back of a victim's.  Stealing only changes
 * *which worker* runs a task and *when* — never what the task
 * computes — so callers that key all task state by index (see
 * campaign::CampaignTask, stats::Engine's resample chunks) get
 * schedule-independent results.
 *
 * jobs == 1 runs every task inline on the calling thread with no
 * threads spawned: the serial reference schedule that parallel runs
 * must be bitwise-equal to.
 */
class ThreadPool
{
  public:
    /**
     * @p jobs is the worker count; 0 is treated as 1.  With a
     * @p metrics registry the pool records `pool.tasks` (the task
     * indices run, however the caller split its work), `pool.steals`,
     * the `pool.queue_wait_us` histogram and the
     * `pool.barrier_wait_us` histogram (all three schedule dependent
     * by nature).  Each dequeue emits a "queue-wait" span when tracing
     * is active, and each worker a "barrier-wait" span: the time from
     * finding no task left to the moment the last worker finds none,
     * when parallelFor returns.
     */
    explicit ThreadPool(unsigned jobs,
                        obs::Registry *metrics = nullptr);

    unsigned jobs() const { return jobs_; }

    /**
     * Runs fn(task_index, worker_index) for every task index in
     * [0, count), each exactly once, and blocks until all are done.
     * worker_index is in [0, jobs()) and is stable for the duration
     * of one call — callers use it to give each worker private
     * mutable state (e.g. its own ExperimentRunner).
     *
     * @p fn must not throw; the library reports failures via
     * mbias_panic/mbias_fatal, which terminate.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t task,
                                              unsigned worker)> &fn);

  private:
    unsigned jobs_;
    obs::Counter *tasks_ = nullptr;  ///< resolved once; see ctor
    obs::Counter *steals_ = nullptr;
    obs::Histogram *queueWait_ = nullptr;
    obs::Histogram *barrierWait_ = nullptr;
};

} // namespace mbias::parallel

#endif // MBIAS_PARALLEL_POOL_HH
