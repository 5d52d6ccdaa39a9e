#include "campaign/engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
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

using Kind = RepetitionPlan::Kind;

/**
 * The widest lane pass the engine builds.  Wider passes walk the
 * recorded stream fewer times, but every lane carries its own clock
 * and noise, and, when the cap was set, its own caches: uncapped (96
 * lanes on noise_reps) passes ran slower and used over half again the
 * memory (docs/performance.md).  24 is the width the NoisePaired
 * families ran at before lanes were pooled across tasks, and it fits
 * the lane pass's 32-lane set masks.
 */
constexpr std::size_t kMaxLaneWidth = 24;

/** The two sides of a task: 0 = baseline, 1 = treatment. */
constexpr std::size_t kSides = 2;

/**
 * Lowers one task into the lanes each side runs, in rep order (a side
 * the plan does not observe gets none).  Every kind reduces to lanes
 * of one module set that differ only in their link order, where the
 * stack sits and their noise.
 */
std::array<std::vector<core::Lane>, kSides>
lowerTask(const CampaignTask &task)
{
    const RepetitionPlan &plan = task.plan;
    const std::uint64_t env = task.setup.envBytes;
    const toolchain::LinkOrder &order = task.setup.linkOrder;
    const core::Lane plain{env, 0, sim::NoiseModel::none(), order};
    std::array<std::vector<core::Lane>, kSides> sides;
    // The conventional repeat-k-times methodology: rep r runs under
    // the plan's noise template with seed base + r.
    const auto noiseSide = [&](std::size_t side, std::uint64_t base) {
        for (unsigned r = 0; r < plan.reps; ++r) {
            core::Lane lane{env, 0, plan.noiseTemplate, order};
            lane.noise.seed = base + r;
            sides[side].push_back(lane);
        }
    };
    switch (plan.kind) {
      case Kind::Single:
        sides[0] = sides[1] = {plain};
        return sides;
      case Kind::AslrRandomized:
        // Each side draws its per-run layout seeds from a stream
        // derived from the task seed, so the task is a pure function
        // of (campaign seed, index) like every other.
        for (std::size_t side = 0; side < kSides; ++side)
            for (unsigned r = 0; r < plan.reps; ++r) {
                core::Lane lane = plain;
                lane.aslrSeed = mixSeed(task.taskSeed, side) + r;
                sides[side].push_back(lane);
            }
        return sides;
      case Kind::BaselineOnly:
        sides[0] = {plain};
        return sides;
      case Kind::NoiseRepeated:
        noiseSide(0, task.taskSeed);
        return sides;
      case Kind::NoisePaired:
        noiseSide(0, task.taskSeed);
        noiseSide(1, task.taskSeed + plan.treatSeedOffset);
        return sides;
    }
    mbias_panic("unknown repetition plan kind ", int(plan.kind));
}

/** A finished task: the outcome plus the per-side metric values the
 *  record persists (metric means in the repetition kinds). */
struct TaskResult
{
    core::RunOutcome outcome;
    double baseMetric = 0.0;
    double treatMetric = 0.0;
};

/** Reassembles one task from its lanes' results (per side, in rep
 *  order); means are summed in rep order, as a per-task run would. */
TaskResult
assembleTask(const core::ExperimentSpec &spec, const CampaignTask &task,
             const std::array<std::vector<sim::RunResult>, kSides> &lanes)
{
    const auto metric = [&](const sim::RunResult &rr) {
        return core::metricValue(spec.metric, rr);
    };
    const auto sample = [&](const std::vector<sim::RunResult> &rs) {
        stats::Sample s;
        for (const sim::RunResult &rr : rs)
            s.add(metric(rr));
        return s;
    };
    TaskResult r;
    r.outcome.setup = task.setup;
    switch (task.plan.kind) {
      case Kind::Single:
        r.outcome.baseline = lanes[0][0];
        r.outcome.treatment = lanes[1][0];
        r.baseMetric = metric(r.outcome.baseline);
        r.treatMetric = metric(r.outcome.treatment);
        break;

      case Kind::BaselineOnly:
        // One observed side, full RunResult kept (the causal sweep
        // reads every counter, not just the metric).
        r.outcome.baseline = lanes[0][0];
        r.outcome.treatment.halted = true;
        r.baseMetric = r.treatMetric = metric(r.outcome.baseline);
        r.outcome.speedup = 1.0;
        return r;

      case Kind::AslrRandomized:
      case Kind::NoiseRepeated:
      case Kind::NoisePaired: {
          r.outcome.baseline.halted = r.outcome.treatment.halted = true;
          const stats::Sample base = sample(lanes[0]);
          r.baseMetric = base.mean();
          if (task.plan.samplesReps())
              r.outcome.repBaseline = base.values();
          if (task.plan.kind == Kind::NoiseRepeated) {
              r.treatMetric = r.baseMetric;
              r.outcome.speedup = 1.0;
              return r;
          }
          const stats::Sample treat = sample(lanes[1]);
          r.treatMetric = treat.mean();
          if (task.plan.samplesReps())
              r.outcome.repTreatment = treat.values();
          break;
      }
    }
    mbias_assert(r.treatMetric > 0.0, "degenerate metric");
    r.outcome.speedup = r.baseMetric / r.treatMetric;
    return r;
}

/** One lane of the campaign: rep @c rep of side @c side of task
 *  @c task. */
struct LaneRef
{
    std::size_t task = 0;
    std::size_t side = 0;
    std::size_t rep = 0;
};

/** Lanes of every task on one side, so one module set and one
 *  machine; by link order, then in task, then rep order. */
struct LaneFamily
{
    std::size_t side = 0;
    std::vector<LaneRef> refs;
    std::vector<core::Lane> lanes;
};

/** A run of lanes [begin, end) of one family of one campaign of a
 *  batch. */
struct LaneChunk
{
    std::size_t campaign = 0;
    std::size_t family = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
};

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

/** @p kind as the enumerator reads. */
const char *
kindName(RepetitionPlan::Kind kind)
{
    using Kind = RepetitionPlan::Kind;
    switch (kind) {
      case Kind::Single:
        return "Single";
      case Kind::AslrRandomized:
        return "AslrRandomized";
      case Kind::BaselineOnly:
        return "BaselineOnly";
      case Kind::NoiseRepeated:
        return "NoiseRepeated";
      case Kind::NoisePaired:
        return "NoisePaired";
    }
    return "?";
}

} // namespace

obs::MetricsSnapshot
cacheCounts()
{
    const auto a = toolchain::ArtifactCache::global().stats();
    const auto p = sim::PlanCache::global().stats();
    const auto t = sim::TraceCache::global().stats();
    const auto r = sim::ReplayCache::global().stats();
    obs::MetricsSnapshot s;
    s.counters = {
        {"artifacts.compile_hits", a.compileHits},
        {"artifacts.compile_misses", a.compileMisses},
        {"artifacts.link_hits", a.linkHits},
        {"artifacts.link_misses", a.linkMisses},
        {"artifacts.image_hits", a.imageHits},
        {"artifacts.image_misses", a.imageMisses},
        {"artifacts.evictions", a.evictions},
        {"sim.plan.hits", p.hits},
        {"sim.plan.misses", p.misses},
        {"sim.plan.evictions", p.evictions},
        {"sim.trace.hits", t.hits},
        {"sim.trace.misses", t.misses},
        {"sim.trace.evictions", t.evictions},
        {"sim.trace.superblocks", t.superblocks},
        {"sim.trace.ops_batched", t.opsBatched},
        {"sim.trace.ops_interpreted", t.opsInterpreted},
        {"sim.trace.fallbacks", t.fallbacks},
        {"sim.replay.hits", r.hits},
        {"sim.replay.misses", r.misses},
        {"sim.replay.evictions", r.evictions},
        {"sim.replay.records", r.records},
        {"sim.replay.replays", r.replays},
        {"sim.replay.lane_passes", r.lanePasses},
        {"sim.replay.code_classes", r.codeClasses},
        {"sim.replay.lane_accesses", r.laneAccesses},
        {"sim.replay.diverged_accesses", r.divergedAccesses},
        {"sim.replay.class_decisions", r.classDecisions},
        {"sim.replay.fallbacks", r.fallbacks},
        {"sim.replay.layout_fallbacks", r.layoutFallbacks},
    };
    s.gauges = {{"artifacts.bytes", std::int64_t(a.bytes)}};
    return s;
}

CampaignEngine::CampaignEngine(CampaignSpec spec, CampaignOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
    mbias_assert(opts_.jobs >= 1, "campaign needs at least one job");
    mbias_assert(!opts_.resume || !opts_.outPath.empty(),
                 "--resume needs a result store path");
    // The JSONL record is a fixed flat schema with no per-rep arrays or
    // full RunResult, and the content address does not cover the
    // loader's sp-align override; campaigns needing either must run
    // storeless until the store format grows those fields.
    if (opts_.outPath.empty())
        return;
    const char *why = nullptr;
    if (spec_.plan.samplesReps())
        why = "the store's flat record has no field for per-rep samples";
    else if (spec_.plan.kind == RepetitionPlan::Kind::BaselineOnly)
        why = "the store's flat record has no field for the full "
              "baseline RunResult";
    else if (spec_.spAlign != 0)
        why = "the store's content address does not cover the loader's "
              "sp alignment";
    if (why)
        mbias_fatal("a ", kindName(spec_.plan.kind), " campaign",
                    spec_.spAlign ? " with sp alignment " : "",
                    spec_.spAlign ? std::to_string(spec_.spAlign) : "",
                    " cannot persist a result store to ", opts_.outPath,
                    ": ", why);
}

namespace
{

/**
 * One campaign of a batch, from its plan to its report.  Construction
 * is the plan phase (expand, dedup, store lookup, lowering); cut()
 * adds its chunks to the batch's units, runChunk() is what a worker
 * does with one of them, and finish() aggregates once the pool pass
 * is over.
 */
struct Campaign
{
    Campaign(const CampaignSpec &spec, const CampaignOptions &opts,
             const obs::Provenance &provenance);

    void cut(std::size_t self, std::vector<LaneChunk> &units);
    void runChunk(const LaneChunk &chunk, unsigned w,
                  std::atomic<std::uint64_t> &done);
    void finishTask(std::size_t i, std::atomic<std::uint64_t> &done);
    CampaignReport finish();

    const CampaignSpec &spec;
    const CampaignOptions &opts;
    const obs::Provenance &provenance;

    // Each campaign gets its own metrics registry so the report's
    // snapshot is exactly this campaign — nothing leaks across runs
    // (the batch's pool books into the first campaign's).
    obs::Registry metrics;
    // Hot-path metric handles, resolved once (registry lookups take a
    // lock; Counter::add / Histogram::record do not).
    obs::Counter &cExecuted = metrics.counter("engine.executed");
    obs::Histogram &hExecute = metrics.histogram("task.execute_us");
    obs::Histogram &hTask = metrics.histogram("task.total_us");

    std::vector<CampaignTask> tasks;
    std::vector<std::string> keys;
    std::unique_ptr<ResultStore> store;
    std::vector<core::RunOutcome> results;
    std::vector<std::size_t> ownerOf;
    std::vector<std::size_t> toRun;
    std::uint64_t cacheHits = 0;
    std::uint64_t resumed = 0;
    std::atomic<std::uint64_t> executed{0};

    std::vector<std::array<std::vector<sim::RunResult>, kSides>> laneOut;
    std::vector<std::atomic<std::size_t>> pending;
    std::vector<std::atomic<std::uint64_t>> executeUs;
    std::vector<LaneFamily> families;
    std::size_t totalLanes = 0;

    // One runner per worker; runners are cheap handles onto the
    // shared artifact cache.
    std::vector<std::unique_ptr<core::ExperimentRunner>> runners;
};

Campaign::Campaign(const CampaignSpec &s, const CampaignOptions &o,
                   const obs::Provenance &p)
    : spec(s), opts(o), provenance(p), tasks(spec.expand()),
      runners(opts.jobs)
{
    keys.reserve(tasks.size());
    for (const auto &t : tasks)
        keys.push_back(taskKey(spec.experiment, t));
    metrics.counter("engine.tasks").add(tasks.size());

    if (!opts.outPath.empty()) {
        store = std::make_unique<ResultStore>(opts.outPath, &metrics);
        if (opts.resume)
            store->load();
        else
            store->reset();
        // Fresh stores (and pre-provenance legacy ones) get this
        // run's host setup as their header; a resumed store keeps
        // the header of the run that created it.
        if (store->headerProvenanceJson().empty())
            store->writeHeader(provenance);
    }

    // Tasks with the same content address (repeated setups) compute
    // the same outcome, so only the lowest index of each distinct key
    // runs; the others copy its outcome once the pool drains.  Tasks
    // the store already holds are served from it.  Deciding all this
    // before scheduling makes which tasks execute — and which store
    // lines they append — independent of worker timing.  A duplicate
    // is accounted where its owner's outcome comes from: the store
    // (resumed) or this run (a cache hit).
    results.resize(tasks.size());
    ownerOf.resize(tasks.size());
    {
        obs::Counter &cResumed = metrics.counter("engine.store_hits");
        std::unordered_map<std::string_view, std::size_t> firstByKey;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const auto [it, fresh] = firstByKey.try_emplace(keys[i], i);
            ownerOf[i] = it->second;
            const TaskRecord *rec = store ? store->find(keys[i]) : nullptr;
            if (rec) {
                if (fresh)
                    results[i] = rec->toOutcome();
                ++resumed;
                cResumed.add();
            } else if (fresh) {
                toRun.push_back(i);
            } else {
                ++cacheHits;
            }
        }
    }

    // Lowering: every task to run becomes per-side lanes, and lanes of
    // all tasks are grouped by side into families.  A family shares one
    // module set and one machine, so one recording times every lane of
    // it whose link keeps the recording's data layout.
    laneOut.resize(tasks.size());
    pending = std::vector<std::atomic<std::size_t>>(tasks.size());
    executeUs = std::vector<std::atomic<std::uint64_t>>(tasks.size());
    std::array<std::size_t, kSides> familyOf; // side -> family
    familyOf.fill(SIZE_MAX);
    for (const std::size_t i : toRun) {
        const auto sides = lowerTask(tasks[i]);
        for (std::size_t side = 0; side < kSides; ++side) {
            if (sides[side].empty())
                continue;
            if (familyOf[side] == SIZE_MAX) {
                familyOf[side] = families.size();
                families.push_back({side, {}, {}});
            }
            LaneFamily &fam = families[familyOf[side]];
            for (std::size_t r = 0; r < sides[side].size(); ++r) {
                fam.refs.push_back({i, side, r});
                fam.lanes.push_back(sides[side][r]);
            }
            laneOut[i][side].resize(sides[side].size());
            pending[i] += sides[side].size();
            totalLanes += sides[side].size();
        }
    }
    // The lanes of one link order sit together, the most shared
    // order first, so a chunk holds as few code classes as it can:
    // the lanes of a class share its front end, and a chunk of one
    // link order is a one-layout pass.
    for (LaneFamily &fam : families) {
        std::vector<std::uint64_t> order;
        std::unordered_map<std::uint64_t, std::size_t> count;
        for (const core::Lane &lane : fam.lanes)
            ++count[order.emplace_back(lane.linkOrder.fingerprint())];
        std::vector<std::size_t> by(fam.lanes.size());
        std::iota(by.begin(), by.end(), std::size_t(0));
        std::stable_sort(by.begin(), by.end(),
                         [&](std::size_t a, std::size_t b) {
                             return std::pair(count[order[b]], order[a]) <
                                    std::pair(count[order[a]], order[b]);
                         });
        LaneFamily sorted{fam.side, {}, {}};
        for (const std::size_t k : by) {
            sorted.refs.push_back(fam.refs[k]);
            sorted.lanes.push_back(fam.lanes[k]);
        }
        fam = std::move(sorted);
    }
    metrics.counter("engine.lanes").add(totalLanes);
}

/**
 * Chunking: each family splits into near-equal runs of at most
 * `width` lanes, narrow enough to keep every worker busy on this
 * campaign alone.  A chunk too narrow for its lanes at other link
 * orders to ride its pass (ExperimentRunner::timesOtherLinks) would
 * queue their live runs on one worker, so a family whose chunks come
 * out that narrow is cut one link order at a time, and those lanes
 * spread over the workers instead.
 */
void
Campaign::cut(std::size_t self, std::vector<LaneChunk> &units)
{
    const std::size_t first = units.size();
    const std::size_t width = std::min(
        kMaxLaneWidth, (totalLanes + opts.jobs - 1) / opts.jobs);
    const auto cutRun = [&](std::size_t f, std::size_t from,
                            std::size_t to) {
        const std::size_t n = to - from;
        const std::size_t chunks = (n + width - 1) / width;
        for (std::size_t c = 0, begin = from; c < chunks; ++c) {
            const std::size_t len = n / chunks + (c < n % chunks);
            units.push_back({self, f, begin, begin + len});
            begin += len;
        }
    };
    for (std::size_t f = 0; f < families.size(); ++f) {
        const auto &lanes = families[f].lanes;
        const std::size_t n = lanes.size();
        if (core::ExperimentRunner::timesOtherLinks(
                n / ((n + width - 1) / width))) {
            cutRun(f, 0, n);
            continue;
        }
        for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
            end = begin + 1;
            while (end < n && lanes[end].linkOrder == lanes[begin].linkOrder)
                ++end;
            cutRun(f, begin, end);
        }
    }
    metrics.counter("engine.lane_units").add(units.size() - first);
}

void
Campaign::runChunk(const LaneChunk &chunk, unsigned w,
                   std::atomic<std::uint64_t> &done)
{
    if (!runners[w]) {
        obs::ScopedSpan span("runner-init", "campaign");
        runners[w] = std::make_unique<core::ExperimentRunner>(spec.experiment);
        runners[w]->setMetrics(&metrics);
        if (spec.spAlign != 0)
            runners[w]->setSpAlignOverride(spec.spAlign);
    }
    const LaneFamily &fam = families[chunk.family];
    const std::size_t n = chunk.end - chunk.begin;
    obs::ScopedSpan runSpan("run", "campaign", nullptr, true);
    runSpan.arg("lanes", n);
    // The treatment machine of a hardware study serves only paired
    // single runs, as ExperimentRunner::run does.
    std::vector<sim::RunResult> rs = runners[w]->runFamily(
        fam.side ? spec.experiment.treatment : spec.experiment.baseline,
        fam.side == 1 && spec.plan.kind == Kind::Single,
        std::span(fam.lanes).subspan(chunk.begin, n));
    // The chunk's wall time, shared out evenly over its lanes.
    const std::uint64_t share = runSpan.stop() / n;
    for (std::size_t k = 0; k < n; ++k) {
        const LaneRef &ref = fam.refs[chunk.begin + k];
        laneOut[ref.task][ref.side][ref.rep] = std::move(rs[k]);
        executeUs[ref.task].fetch_add(share, std::memory_order_relaxed);
        // acq_rel: the finishing worker sees every lane booked before
        // each decrement.
        if (pending[ref.task].fetch_sub(1, std::memory_order_acq_rel) == 1)
            finishTask(ref.task, done);
    }
}

/** Reassembly: the worker that books a task's last lane finishes it —
 *  outcome, store record, task histograms and progress stay per
 *  task. */
void
Campaign::finishTask(std::size_t i, std::atomic<std::uint64_t> &done)
{
    obs::ScopedSpan taskSpan("task", "campaign", nullptr, true);
    taskSpan.arg("task", i);
    const TaskResult r = assembleTask(spec.experiment, tasks[i], laneOut[i]);
    laneOut[i] = {};
    const std::uint64_t execUs = executeUs[i].load();
    hExecute.record(execUs);
    executed.fetch_add(1, std::memory_order_relaxed);
    cExecuted.add();
    results[i] = r.outcome;
    if (store)
        store->append(TaskRecord::make(keys[i], tasks[i], r.outcome,
                                       r.baseMetric, r.treatMetric));
    hTask.record(execUs + taskSpan.stop());
    done.fetch_add(1, std::memory_order_relaxed);
}

/** The finish phase: duplicates copy their owner's outcome, and the
 *  outcomes aggregate into the report. */
CampaignReport
Campaign::finish()
{
    for (std::size_t i = 0; i < tasks.size(); ++i)
        if (ownerOf[i] != i)
            results[i] = results[ownerOf[i]];
    metrics.counter("cache.hits").add(cacheHits);
    metrics.counter("cache.misses").add(executed.load());

    CampaignReport report;
    if (results.size() >= 2) {
        core::BiasAnalyzer analyzer(0.01, opts.confidence);
        if (opts.resamples > 0)
            analyzer.withBootstrap(opts.resamples, spec.seed, opts.jobs);
        report.bias = analyzer.aggregate(spec.experiment, std::move(results));
    } else {
        // A bias report needs >= 2 setups for a spread/CI; a one-task
        // campaign (e.g. a single-cell sweep lowered by the pipeline)
        // just carries its outcome through.
        report.bias.specDescription = spec.experiment.str();
        for (const auto &o : results)
            report.bias.speedups.add(o.speedup);
        report.bias.outcomes = std::move(results);
    }
    report.stats.totalTasks = tasks.size();
    report.stats.executed = executed.load();
    report.stats.cacheHits = cacheHits;
    report.stats.resumedFromStore = resumed;
    report.stats.jobs = opts.jobs;
    report.provenance = provenance;
    report.metrics = metrics.snapshot();
    return report;
}

} // namespace

CampaignReport
CampaignEngine::run()
{
    return std::move(runBatch({this, 1}).front());
}

std::vector<CampaignReport>
CampaignEngine::runBatch(std::span<const CampaignEngine> engines)
{
    if (engines.empty())
        return {};
    const unsigned jobs = engines.front().opts_.jobs;
    obs::ScopedSpan batchSpan("campaign", "campaign", nullptr, true);
    batchSpan.arg("campaigns", engines.size());

    // The process-wide caches and the global registry (asm.*, fuzz.*)
    // count for the whole process; the batch books what they gained
    // between here and the end of its run.
    const obs::MetricsSnapshot cachesBefore = cacheCounts();
    const obs::MetricsSnapshot globalBefore =
        obs::Registry::global().snapshot();
    const obs::Provenance provenance = obs::Provenance::capture(jobs);

    // Plan: each campaign on its own, in spec order.
    std::vector<std::unique_ptr<Campaign>> campaigns;
    std::vector<LaneChunk> units;
    std::uint64_t totalTasks = 0, settled = 0, cacheHits = 0;
    bool progress = false;
    for (const CampaignEngine &e : engines) {
        mbias_assert(e.opts_.jobs == jobs,
                     "the campaigns of one batch share one worker budget");
        campaigns.push_back(
            std::make_unique<Campaign>(e.spec_, e.opts_, provenance));
        Campaign &c = *campaigns.back();
        c.cut(campaigns.size() - 1, units);
        totalTasks += c.tasks.size();
        settled += c.tasks.size() - c.toRun.size();
        cacheHits += c.cacheHits;
        progress |= e.opts_.progress;
    }

    // Run: one pool pass over the units of every campaign, so a
    // worker done with one campaign's chunks goes on to the next
    // campaign's instead of waiting for the slowest chunk.  The pool's
    // metrics are the batch's, booked on its first report.
    std::atomic<std::uint64_t> done{settled};
    {
        ProgressMeter meter(progress, totalTasks, done, cacheHits);
        parallel::ThreadPool pool(jobs, &campaigns.front()->metrics);
        pool.parallelFor(units.size(), [&](std::size_t u, unsigned w) {
            campaigns[units[u].campaign]->runChunk(units[u], w, done);
        });
    }

    // Finish: each campaign on its own, in spec order.
    std::vector<CampaignReport> reports;
    reports.reserve(campaigns.size());
    for (auto &c : campaigns)
        reports.push_back(c->finish());

    // The process-wide deltas are the batch's: they land once, on the
    // first report.  Every report carries the same cache rows (zero
    // on the others), so summing a batch's reports counts each cache
    // event once.
    const obs::MetricsSnapshot caches = cacheCounts();
    const double wall = double(batchSpan.stop()) * 1e-6;
    for (std::size_t k = 0; k < reports.size(); ++k) {
        CampaignReport &report = reports[k];
        report.stats.wallSeconds = wall;
        for (const auto &[name, v] : caches.counters)
            report.metrics.counters[name] =
                k == 0 ? v - cachesBefore.counters.at(name) : 0;
        report.metrics.gauges.insert(caches.gauges.begin(),
                                     caches.gauges.end());
        if (k == 0)
            report.metrics.merge(
                obs::Registry::global().snapshot().since(globalBefore));
        if (campaigns[k]->store)
            campaigns[k]->store->appendMetrics(report.metrics);
    }
    return reports;
}

} // namespace mbias::campaign
