#include "campaign/engine.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "campaign/store.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "parallel/pool.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"
#include "toolchain/artifacts.hh"

namespace mbias::campaign
{

namespace
{

/** A finished task: the outcome plus the per-side metric values the
 *  record persists (metric means in ASLR mode). */
struct TaskResult
{
    core::RunOutcome outcome;
    double baseMetric = 0.0;
    double treatMetric = 0.0;
};

TaskResult
executeTask(core::ExperimentRunner &runner, const CampaignTask &task)
{
    const core::ExperimentSpec &spec = runner.spec();
    TaskResult r;
    switch (task.plan.kind) {
      case RepetitionPlan::Kind::Single:
        r.outcome = runner.run(task.setup);
        r.baseMetric = runner.metricOf(r.outcome.baseline);
        r.treatMetric = runner.metricOf(r.outcome.treatment);
        return r;

      case RepetitionPlan::Kind::AslrRandomized: {
        // Each side draws its per-run layout seeds from a stream
        // derived from the task seed, so the task is a pure function
        // of (campaign seed, index) like every other.
        auto base = runner.aslrRandomizedMetric(spec.baseline, task.setup,
                                                task.plan.reps,
                                                mixSeed(task.taskSeed, 0));
        auto treat = runner.aslrRandomizedMetric(
            spec.treatment, task.setup, task.plan.reps,
            mixSeed(task.taskSeed, 1));
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.baseMetric = base.mean();
        r.treatMetric = treat.mean();
        mbias_assert(r.treatMetric > 0.0, "degenerate metric");
        r.outcome.speedup = r.baseMetric / r.treatMetric;
        return r;
      }

      case RepetitionPlan::Kind::BaselineOnly:
        // One observed side, full RunResult kept (the causal sweep
        // reads every counter, not just the metric).
        r.outcome.setup = task.setup;
        r.outcome.baseline = runner.runSide(spec.baseline, task.setup);
        r.outcome.treatment.halted = true;
        r.baseMetric = r.treatMetric =
            runner.metricOf(r.outcome.baseline);
        r.outcome.speedup = 1.0;
        return r;

      case RepetitionPlan::Kind::NoiseRepeated: {
        // The conventional repeat-k-times methodology on the baseline
        // side: noise seeds taskSeed, taskSeed+1, ... — the same
        // derivation the serial drivers used, now owned by the
        // campaign lowering.
        auto base = runner.repeatedMetric(spec.baseline, task.setup,
                                          task.plan.reps, task.taskSeed,
                                          task.plan.noiseTemplate);
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.outcome.repBaseline = base.values();
        r.baseMetric = r.treatMetric = base.mean();
        r.outcome.speedup = 1.0;
        return r;
      }

      case RepetitionPlan::Kind::NoisePaired: {
        auto base = runner.repeatedMetric(spec.baseline, task.setup,
                                          task.plan.reps, task.taskSeed,
                                          task.plan.noiseTemplate);
        auto treat = runner.repeatedMetric(
            spec.treatment, task.setup, task.plan.reps,
            task.taskSeed + task.plan.treatSeedOffset,
            task.plan.noiseTemplate);
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.outcome.repBaseline = base.values();
        r.outcome.repTreatment = treat.values();
        r.baseMetric = base.mean();
        r.treatMetric = treat.mean();
        mbias_assert(r.treatMetric > 0.0, "degenerate metric");
        r.outcome.speedup = r.baseMetric / r.treatMetric;
        return r;
      }
    }
    mbias_panic("unknown repetition plan kind ", int(task.plan.kind));
}

/**
 * The live progress line: a helper thread redraws one stderr line a
 * few times a second — `NNN/NNN tasks (PP%) | cache HH% | ETA SSs` —
 * and blanks it on completion so the final report starts clean.
 * Display only; it never touches task state.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::uint64_t total,
                  const std::atomic<std::uint64_t> &done,
                  std::uint64_t cache_hits)
        : total_(total), cacheHits_(cache_hits)
    {
        if (!enabled || total == 0)
            return;
        start_ = std::chrono::steady_clock::now();
        thread_ = std::thread([this, &done] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!stop_) {
                draw(done.load());
                cv_.wait_for(lock, std::chrono::milliseconds(200));
            }
            // Blank the line out so the report overwrites it.
            std::fprintf(stderr, "\r%78s\r", "");
        });
    }

    ~ProgressMeter()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    draw(std::uint64_t done) const
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        char eta[32] = "--";
        if (done > 0 && done < total_)
            std::snprintf(eta, sizeof(eta), "%.0fs",
                          elapsed / double(done) *
                              double(total_ - done));
        std::fprintf(stderr,
                     "\rcampaign: %llu/%llu tasks (%3.0f%%) | cache "
                     "%3.0f%% | ETA %-8s",
                     (unsigned long long)done,
                     (unsigned long long)total_,
                     100.0 * double(done) / double(total_),
                     done ? 100.0 * double(cacheHits_) / double(done)
                          : 0.0,
                     eta);
    }

    std::uint64_t total_;
    std::uint64_t cacheHits_;
    std::chrono::steady_clock::time_point start_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

std::uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

CampaignEngine::CampaignEngine(CampaignSpec spec, CampaignOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
    mbias_assert(opts_.jobs >= 1, "campaign needs at least one job");
    mbias_assert(!opts_.resume || !opts_.outPath.empty(),
                 "--resume needs a result store path");
    // The JSONL record is a fixed flat schema with no per-rep arrays,
    // and the content address does not cover the loader's sp-align
    // override; campaigns using either must run storeless until the
    // store format grows those fields.
    mbias_assert(opts_.outPath.empty() ||
                     (!spec_.plan.samplesReps() &&
                      spec_.plan.kind != RepetitionPlan::Kind::BaselineOnly &&
                      spec_.spAlign == 0),
                 "rep-sampling / baseline-only / sp-aligned campaigns "
                 "do not persist result stores");
}

CampaignReport
CampaignEngine::run()
{
    const auto start = std::chrono::steady_clock::now();

    // Each run gets its own metrics registry so the report's snapshot
    // is exactly this campaign — nothing leaks across runs.
    obs::Registry metrics;
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = !opts_.tracePath.empty();
    if (tracing)
        tracer.start();

    const obs::Provenance provenance =
        obs::Provenance::capture(opts_.jobs);

    const std::vector<CampaignTask> tasks = spec_.expand();
    std::vector<std::string> keys;
    keys.reserve(tasks.size());
    for (const auto &t : tasks)
        keys.push_back(taskKey(spec_.experiment, t));
    metrics.counter("engine.tasks").add(tasks.size());

    std::unique_ptr<ResultStore> store;
    if (!opts_.outPath.empty()) {
        store = std::make_unique<ResultStore>(opts_.outPath, &metrics);
        if (opts_.resume)
            store->load();
        else
            store->reset();
        // Fresh stores (and pre-provenance legacy ones) get this
        // run's host setup as their header; a resumed store keeps
        // the header of the run that created it.
        if (store->headerProvenanceJson().empty())
            store->writeHeader(provenance);
    }

    // All workers materialize setups through the shared artifact
    // cache (unless disabled); its hit/miss/byte counters land in
    // this run's registry for the duration of the run.
    toolchain::ArtifactCache &artifacts =
        toolchain::ArtifactCache::global();
    if (opts_.artifactCache)
        artifacts.attachMetrics(&metrics);
    // The simulator's plan/trace/replay caches mirror their counters
    // the same way (sim.plan.*, sim.trace.*, sim.replay.*) regardless
    // of the artifact cache.
    sim::PlanCache::global().attachMetrics(&metrics);
    sim::TraceCache::global().attachMetrics(&metrics);
    sim::ReplayCache::global().attachMetrics(&metrics);
    // The caches are process-global and the registry is per-run:
    // detach on every exit path, before the registry dies.
    struct DetachMetrics
    {
        toolchain::ArtifactCache *cache;
        ~DetachMetrics()
        {
            if (cache)
                cache->attachMetrics(nullptr);
            sim::PlanCache::global().attachMetrics(nullptr);
            sim::TraceCache::global().attachMetrics(nullptr);
            sim::ReplayCache::global().attachMetrics(nullptr);
        }
    } detachMetrics{opts_.artifactCache ? &artifacts : nullptr};

    parallel::ThreadPool pool(opts_.jobs, &metrics);
    std::vector<core::RunOutcome> results(tasks.size());
    // One runner per worker: with the shared artifact cache runners
    // are cheap handles; without it each keeps a private compile memo
    // that must stay on its own thread.
    std::vector<std::unique_ptr<core::ExperimentRunner>> runners(
        pool.jobs());
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> resumed{0};

    // Hot-path metric handles, resolved once (registry lookups take a
    // lock; Counter::add / Histogram::record do not).
    obs::Counter &cExecuted = metrics.counter("engine.executed");
    obs::Counter &cResumed = metrics.counter("engine.store_hits");
    obs::Histogram &hExecute = metrics.histogram("task.execute_us");
    obs::Histogram &hTask = metrics.histogram("task.total_us");

    // Tasks with the same content address (repeated setups) compute
    // the same outcome, so only the lowest index of each distinct key
    // is scheduled; the others copy its outcome once the pool drains.
    // Deciding this before scheduling makes which tasks execute — and
    // which store lines they append — independent of worker timing.
    // A duplicate is accounted where its owner's outcome comes from:
    // the store (resumed) or this run (a cache hit).
    std::vector<std::size_t> ownerOf(tasks.size());
    std::vector<std::size_t> scheduled;
    std::uint64_t cacheHits = 0;
    {
        std::unordered_map<std::string_view, std::size_t> firstByKey;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const auto [it, fresh] = firstByKey.try_emplace(keys[i], i);
            ownerOf[i] = it->second;
            if (fresh) {
                scheduled.push_back(i);
            } else if (store && store->find(keys[i])) {
                resumed.fetch_add(1, std::memory_order_relaxed);
                cResumed.add();
            } else {
                ++cacheHits;
            }
        }
    }
    std::atomic<std::uint64_t> done{tasks.size() - scheduled.size()};

    ProgressMeter meter(opts_.progress, tasks.size(), done, cacheHits);

    pool.parallelFor(scheduled.size(), [&](std::size_t s, unsigned w) {
        const std::size_t i = scheduled[s];
        const auto taskStart = std::chrono::steady_clock::now();
        obs::ScopedSpan taskSpan("task", "campaign",
                                 "{\"task\":" + std::to_string(i) +
                                     "}");
        const CampaignTask &task = tasks[i];
        const std::string &key = keys[i];

        if (store) {
            if (const TaskRecord *rec = store->find(key)) {
                results[i] = rec->toOutcome();
                resumed.fetch_add(1, std::memory_order_relaxed);
                cResumed.add();
                done.fetch_add(1, std::memory_order_relaxed);
                return;
            }
        }
        if (!runners[w]) {
            obs::ScopedSpan span("runner-init", "campaign");
            runners[w] = std::make_unique<core::ExperimentRunner>(
                spec_.experiment);
            runners[w]->setMetrics(&metrics);
            runners[w]->setArtifactCache(
                opts_.artifactCache ? &artifacts : nullptr);
            if (spec_.spAlign != 0)
                runners[w]->setSpAlignOverride(spec_.spAlign);
        }
        const auto execStart = std::chrono::steady_clock::now();
        const TaskResult r = executeTask(*runners[w], task);
        hExecute.record(microsSince(execStart));
        executed.fetch_add(1, std::memory_order_relaxed);
        cExecuted.add();
        results[i] = r.outcome;
        if (store) {
            obs::ScopedSpan span("store-append", "campaign");
            store->append(TaskRecord::make(key, task, r.outcome,
                                           r.baseMetric,
                                           r.treatMetric));
        }
        hTask.record(microsSince(taskStart));
        done.fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < tasks.size(); ++i)
        if (ownerOf[i] != i)
            results[i] = results[ownerOf[i]];
    metrics.counter("cache.hits").add(cacheHits);
    metrics.counter("cache.misses").add(executed.load());

    CampaignReport report;
    {
        obs::ScopedSpan span("aggregate", "campaign");
        if (results.size() >= 2) {
            core::BiasAnalyzer analyzer(0.01, opts_.confidence);
            if (opts_.resamples > 0)
                analyzer.withBootstrap(opts_.resamples, spec_.seed,
                                       opts_.jobs);
            report.bias =
                analyzer.aggregate(spec_.experiment, std::move(results));
        } else {
            // A bias report needs >= 2 setups for a spread/CI; a
            // one-task campaign (e.g. a single-cell sweep lowered by
            // the pipeline) just carries its outcome through.
            report.bias.specDescription = spec_.experiment.str();
            for (const auto &o : results)
                report.bias.speedups.add(o.speedup);
            report.bias.outcomes = std::move(results);
        }
    }
    report.stats.totalTasks = tasks.size();
    report.stats.executed = executed.load();
    report.stats.cacheHits = cacheHits;
    report.stats.resumedFromStore = resumed.load();
    report.stats.jobs = pool.jobs();
    report.stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    report.provenance = provenance;
    report.metrics = metrics.snapshot();
    // Fold in the process-wide lang metrics (asm.load, asm.assemble,
    // fuzz.generate): asm-manifest workloads assemble inside the
    // campaign's tasks but record into the global registry, and their
    // cost belongs in the report obs-summary prints.
    {
        const auto global = obs::Registry::global().snapshot();
        obs::MetricsSnapshot lang;
        const auto langKey = [](const std::string &k) {
            return k.rfind("asm.", 0) == 0 || k.rfind("fuzz.", 0) == 0;
        };
        for (const auto &[k, v] : global.counters)
            if (langKey(k))
                lang.counters[k] = v;
        for (const auto &[k, v] : global.histograms)
            if (langKey(k))
                lang.histograms[k] = v;
        report.metrics.merge(lang);
    }
    if (store)
        store->appendMetrics(report.metrics);
    if (tracing) {
        tracer.stop();
        if (!tracer.writeTo(opts_.tracePath))
            mbias_warn("cannot write trace to ", opts_.tracePath);
        else
            inform("trace written to " + opts_.tracePath +
                   " (open in Perfetto: https://ui.perfetto.dev)");
    }
    return report;
}

} // namespace mbias::campaign
