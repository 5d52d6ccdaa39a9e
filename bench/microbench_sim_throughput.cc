/**
 * @file
 * Throughput microbenchmark for the simulator's interpreter tiers and
 * the campaign engine around them:
 *
 *  1. raw interpreter speed — simulated instructions/second of the
 *     reference interpreter, the plan-based fast path, and the
 *     superblock trace tier on the same images (identical results,
 *     different wall-clock).  Two images bound the range: `perl`
 *     (memory-heavy, modest superblock coverage) and a straight-line
 *     ALU kernel (the trace tier's best case, and the shape the
 *     ROADMAP's >=3x target is defined over);
 *  2. end-to-end campaign throughput — tasks/second of a fig3-style
 *     environment-size sweep across sim tier arms.
 *
 * The headline `speedup` compares the campaign on its default tier
 * (trace) against the same campaign pinned to the reference
 * interpreter (MBIAS_SIM_REFERENCE=1).  Human-readable progress
 * goes to stderr; stdout is exactly one JSON document, which
 * scripts/reproduce_all.sh captures as results/BENCH_sim.json.
 *
 * Timing methodology: each arm runs once to warm (and to verify the
 * report is bitwise identical across arms), then best-of-kRounds
 * timed runs are reported, which suppresses one-off scheduling noise
 * the same way the repo's interleaved probes do.  The two lane-pass
 * arms are the median of kLaneRounds rounds on the thread CPU clock
 * instead (medianCpuSeconds): their best-of-5 wall clock spread 2x
 * across runs of one build on a shared host.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <span>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "campaign/engine.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "isa/builder.hh"
#include "pipeline/driver.hh"
#include "pipeline/options.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/registry.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

constexpr int kLaneRounds = 15;

double
threadCpuSeconds()
{
    timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Seconds of one @p arm: the median over kLaneRounds rounds, each
 * timed by this thread's CPU clock (the simulator runs on the calling
 * thread).  The thread clock leaves out the time the kernel runs
 * other threads, and the median drops the rounds a slow phase of the
 * host still hits, as microbench_stats_throughput's store reads do.
 */
template <typename Arm>
double
medianCpuSeconds(Arm arm)
{
    std::vector<double> perRound;
    for (int round = 0; round < kLaneRounds; ++round) {
        const double t0 = threadCpuSeconds();
        arm();
        perRound.push_back(threadCpuSeconds() - t0);
    }
    std::nth_element(perRound.begin(), perRound.begin() + kLaneRounds / 2,
                     perRound.end());
    return perRound[kLaneRounds / 2];
}

/** The three implementations of Machine::run (sim/machine.hh). */
enum class Tier
{
    Reference,
    Fast,
    Trace,
};

/** Per-image tier results plus the ratios scripts consume. */
struct TierResult
{
    double reference = 0.0;
    double fast = 0.0;
    double trace = 0.0;
};

/**
 * Simulated instructions/second of all three tiers on one image.  The
 * tiers are timed *interleaved* within each round — reference, fast,
 * trace, repeat — so slow host-frequency drift hits every tier alike
 * and the reported ratios stay stable even when the absolute numbers
 * wander.  On a backend without trace support the third machine's
 * runs silently take the plain fast path (the declared fallback), so
 * its "trace" number measures exactly what a user would get.
 */
TierResult
measureTiers(const char *name, const sim::MachineConfig &mc,
             const toolchain::ProcessImage &image)
{
    std::array<sim::Machine, 3> machines = {
        sim::Machine(mc),
        sim::Machine(mc),
        sim::Machine(mc),
    };
    machines[0].setUseFastPath(false);
    machines[1].setUseTracePath(false);
    double insts = 0.0;
    for (auto &machine : machines) {
        auto warm = machine.run(image);
        mbias_assert(warm.halted, "bench workload did not halt");
        insts = double(warm.instructions());
    }
    constexpr int kRounds = 7, kReps = 6;
    std::array<double, 3> best{};
    for (int round = 0; round < kRounds; ++round) {
        for (std::size_t tier = 0; tier < machines.size(); ++tier) {
            const auto t0 = std::chrono::steady_clock::now();
            for (int r = 0; r < kReps; ++r)
                machines[tier].run(image);
            best[tier] = std::max(
                best[tier], insts * kReps / secondsSince(t0));
        }
    }

    TierResult r;
    r.reference = best[0];
    r.fast = best[1];
    r.trace = best[2];
    std::fprintf(stderr,
                 "  %s: reference %.1f, fast %.1f, trace %.1f Mi/s "
                 "(trace/fast %.2fx, trace/ref %.2fx)\n",
                 name, r.reference / 1e6, r.fast / 1e6, r.trace / 1e6,
                 r.trace / r.fast, r.trace / r.reference);
    return r;
}

/**
 * A straight-line-heavy kernel: a hot loop whose body is a long
 * unrolled ALU block — eight independent accumulator streams, the
 * shape loop unrolling actually produces — ending in one branch.
 * Almost every retired instruction sits inside one superblock, so
 * this is the shape the trace tier's >=3x-over-fast target is
 * measured on.
 */
toolchain::ProcessImage
straightLineImage()
{
    using namespace isa;
    ProgramBuilder b("straightline");
    b.func("main");
    b.li(reg::t0, 6000); // loop counter
    b.li(reg::s0, 0x1234);
    b.li(reg::s1, 0);
    b.label("loop");
    // 56 unroll groups x 8 ALU ops + 2 loop-maintenance ops per trip.
    for (int g = 0; g < 56; ++g) {
        b.addi(reg::s0, reg::s0, g + 1);
        b.xori(reg::s1, reg::s1, 0x5a5a);
        b.addi(reg::s2, reg::s2, -3);
        b.add(reg::s3, reg::s3, reg::s0);
        b.addi(reg::s4, reg::s4, 7);
        b.xori(reg::s5, reg::s5, 0x00ff);
        b.addi(reg::s6, reg::s6, 11);
        b.add(reg::s7, reg::s7, reg::s2);
    }
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.add(reg::s1, reg::s1, reg::s2);
    b.add(reg::s3, reg::s3, reg::s4);
    b.add(reg::s5, reg::s5, reg::s6);
    b.add(reg::s5, reg::s5, reg::s7);
    b.add(reg::s1, reg::s1, reg::s3);
    b.add(reg::s1, reg::s1, reg::s5);
    b.mv(reg::a0, reg::s1);
    b.halt();
    b.endFunc();
    auto prog = toolchain::Linker().link({b.build()});
    toolchain::LoaderConfig lc;
    lc.envBytes = 1024;
    return toolchain::Loader::load(std::move(prog), lc);
}

/** The record-once/replay-many measurement (sim/replay.hh). */
struct NoisyRepResult
{
    unsigned reps = 0;
    double perRepWall = 0.0;  ///< reps noisy runs on the reference oracle
    double planWall = 0.0;    ///< reps noisy runs on the plan loop
    double replayWall = 0.0;  ///< one recording + reps-1 replays
    double lanesCpu = 0.0;   ///< one recording + one reps-1 lane pass
    double aslrLanesCpu = 0.0; ///< one recording + a reps-lane ASLR pass
    double perRepInstsPerSec = 0.0;
    double planInstsPerSec = 0.0;
    double replayInstsPerSec = 0.0;
    double lanesInstsPerSec = 0.0;
    double aslrLanesInstsPerSec = 0.0;
    double speedup = 0.0;
    bool replayed = false; ///< false when the tier is hatched off
};

/**
 * The noisy-repetition driver shape (NoiseRepeated/NoisePaired
 * campaigns, ExperimentRunner::repeatedMetric): the same image run
 * `reps` times under distinct noise seeds.  The per-rep arm pays the
 * reference oracle (setUseFastPath(false)) every time, so `speedup`
 * keeps meaning replay over the reference across the trajectory; the
 * plan arm runs the same reps through run() on the plan loop, which is
 * where noisy runs go by default; the replay tier records the
 * functional stream once — that IS rep 0 — and re-runs only the timing
 * models for the rest, one rep per runReplay (replay arm) or all of
 * them in one runReplayLanes pass (lanes arm, what the runner does).
 * The ASLR lanes arm is the AslrRandomized shape: one recording, then
 * one pass of `reps` ASLR draws, each at its own stack base and noise
 * seed.  All arms are verified bitwise identical per seed before any
 * timing.
 */
NoisyRepResult
measureNoisyRepetition(const char *name,
                       const toolchain::ProcessImage &image)
{
    constexpr unsigned kReps = 24;
    constexpr std::uint64_t kSeedBase = 0xbe9c;
    const std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    sim::Machine machine(sim::MachineConfig::core2Like());
    sim::Machine oracle(sim::MachineConfig::core2Like());
    oracle.setUseFastPath(false);

    // Correctness gate: every replayed and plan-loop repetition must
    // match the oracle's execution of its seed bitwise, or the numbers
    // below would compare different experiments.
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto rec = machine.runRecord(
        image, budget, sim::NoiseModel::withSeed(kSeedBase), &trace);
    mbias_assert(rec.halted, "bench workload did not halt");
    const double insts = double(rec.instructions());
    for (unsigned r = 0; r < kReps; ++r) {
        const auto noise = sim::NoiseModel::withSeed(kSeedBase + r);
        const auto ref = oracle.run(image, budget, noise);
        const auto opt =
            r == 0 ? rec
            : trace ? machine.runReplay(image, budget, noise, *trace)
                    : machine.run(image, budget, noise);
        mbias_assert(opt == ref,
                     "replayed repetition diverged from per-rep run");
        mbias_assert(machine.run(image, budget, noise) == ref,
                     "plan-loop repetition diverged from per-rep run");
    }
    // The lanes arm's gate: one pass over reps 1..reps-1, each lane
    // against the oracle's run of its seed.
    std::vector<sim::ReplayLane> lanes;
    for (unsigned r = 1; r < kReps; ++r)
        lanes.push_back({&image, sim::NoiseModel::withSeed(kSeedBase + r)});
    if (trace) {
        const auto got = machine.runReplayLanes(*trace, budget, lanes);
        for (std::size_t k = 0; k < lanes.size(); ++k)
            mbias_assert(got[k] == oracle.run(image, budget, lanes[k].noise),
                         "lane of a lane pass diverged from per-rep run");
    }
    std::vector<toolchain::ProcessImage> draws;
    for (unsigned r = 0; r < kReps; ++r) {
        toolchain::LoaderConfig lc = image.loaderConfig;
        lc.aslrSeed = kSeedBase + r;
        draws.push_back(toolchain::Loader::load(image.program, lc));
    }
    std::vector<sim::ReplayLane> aslrLanes;
    for (unsigned r = 0; r < kReps; ++r)
        aslrLanes.push_back(
            {&draws[r], sim::NoiseModel::withSeed(kSeedBase + r)});
    if (trace) {
        const auto got = machine.runReplayLanes(*trace, budget, aslrLanes);
        for (std::size_t k = 0; k < aslrLanes.size(); ++k)
            mbias_assert(got[k] == oracle.run(draws[k], budget,
                                              aslrLanes[k].noise),
                         "ASLR lane of a lane pass diverged from per-rep "
                         "run");
    }

    NoisyRepResult out;
    out.reps = kReps;
    out.replayed = trace != nullptr;
    constexpr int kRounds = 5;
    for (int round = 0; round < kRounds; ++round) {
        {
            const auto t0 = std::chrono::steady_clock::now();
            for (unsigned r = 0; r < kReps; ++r)
                oracle.run(image, budget,
                           sim::NoiseModel::withSeed(kSeedBase + r));
            const double wall = secondsSince(t0);
            if (out.perRepWall == 0.0 || wall < out.perRepWall)
                out.perRepWall = wall;
        }
        {
            const auto t0 = std::chrono::steady_clock::now();
            for (unsigned r = 0; r < kReps; ++r)
                machine.run(image, budget,
                            sim::NoiseModel::withSeed(kSeedBase + r));
            const double wall = secondsSince(t0);
            if (out.planWall == 0.0 || wall < out.planWall)
                out.planWall = wall;
        }
        {
            // The recording pass is part of the replay arm's cost: the
            // runner amortizes it as rep 0, so the bench does too.
            const auto t0 = std::chrono::steady_clock::now();
            std::shared_ptr<const sim::FunctionalTrace> t;
            machine.runRecord(image, budget,
                              sim::NoiseModel::withSeed(kSeedBase), &t);
            for (unsigned r = 1; r < kReps; ++r) {
                const auto noise =
                    sim::NoiseModel::withSeed(kSeedBase + r);
                if (t)
                    machine.runReplay(image, budget, noise, *t);
                else
                    machine.run(image, budget, noise);
            }
            const double wall = secondsSince(t0);
            if (out.replayWall == 0.0 || wall < out.replayWall)
                out.replayWall = wall;
        }
    }
    // A lane arm: one recording, then one pass over @p pass.
    const auto lanePassCpu = [&](std::span<const sim::ReplayLane> pass) {
        return medianCpuSeconds([&] {
            std::shared_ptr<const sim::FunctionalTrace> t;
            machine.runRecord(image, budget,
                              sim::NoiseModel::withSeed(kSeedBase), &t);
            if (t) {
                machine.runReplayLanes(*t, budget, pass);
            } else {
                for (const auto &lane : pass)
                    machine.run(*lane.image, budget, lane.noise);
            }
        });
    };
    out.lanesCpu = lanePassCpu(lanes);
    out.aslrLanesCpu = lanePassCpu(aslrLanes);
    out.perRepInstsPerSec = insts * kReps / out.perRepWall;
    out.planInstsPerSec = insts * kReps / out.planWall;
    out.replayInstsPerSec = insts * kReps / out.replayWall;
    out.lanesInstsPerSec = insts * kReps / out.lanesCpu;
    out.aslrLanesInstsPerSec = insts * kReps / out.aslrLanesCpu;
    out.speedup = out.perRepWall / out.replayWall;
    std::fprintf(stderr,
                 "  %s noisy reps (%u): per-rep %.1f, plan %.1f, "
                 "replay %.1f, lanes %.1f, ASLR lanes %.1f Mi/s -> %.2fx, "
                 "lanes/plan %.2fx%s\n",
                 name, kReps, out.perRepInstsPerSec / 1e6,
                 out.planInstsPerSec / 1e6, out.replayInstsPerSec / 1e6,
                 out.lanesInstsPerSec / 1e6,
                 out.aslrLanesInstsPerSec / 1e6, out.speedup,
                 out.lanesInstsPerSec / out.planInstsPerSec,
                 out.replayed ? "" : " (replay tier off)");
    return out;
}

struct ArmResult
{
    double tasksPerSec = 0.0;
    double wallSeconds = 0.0;
    std::uint64_t tasks = 0;
    double sumSpeedup = 0.0; ///< campaign-result checksum across arms
    toolchain::ArtifactCacheStats cacheStats;
};

/** One fig3-style env sweep under one sim tier. */
ArmResult
campaignArm(Tier tier, unsigned jobs)
{
    // The tier toggles are the same process-wide escape hatches users
    // have: MBIAS_SIM_REFERENCE pins runs to the reference
    // interpreter, MBIAS_SIM_TRACE=0 drops the trace tier back to the
    // plain fast path; both are re-read on every run().
    if (tier == Tier::Reference)
        ::setenv("MBIAS_SIM_REFERENCE", "1", 1);
    else
        ::unsetenv("MBIAS_SIM_REFERENCE");
    if (tier == Tier::Fast)
        ::setenv("MBIAS_SIM_TRACE", "0", 1);
    else
        ::unsetenv("MBIAS_SIM_TRACE");

    std::vector<core::ExperimentSetup> setups;
    for (std::uint64_t env = 0; env <= 4096; env += 40) {
        core::ExperimentSetup setup;
        setup.envBytes = env;
        setups.push_back(setup);
    }
    campaign::CampaignSpec cspec; // perl on core2like by default
    cspec.withSetups(setups);
    campaign::CampaignOptions opts;
    opts.jobs = jobs;

    ArmResult out;
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
        // Every round starts from a cold process-wide state, so the
        // arm includes the cache-fill cost it would pay in a real
        // campaign.
        toolchain::ArtifactCache::global().clear();
        sim::PlanCache::global().clear();
        sim::TraceCache::global().clear();
        sim::ReplayCache::global().clear();
        // stats() counters are cumulative over the process; diff
        // around the run to attribute hits/misses to this round.
        const auto before = toolchain::ArtifactCache::global().stats();
        const auto t0 = std::chrono::steady_clock::now();
        auto report = campaign::CampaignEngine(cspec, opts).run();
        const double wall = secondsSince(t0);
        if (out.tasks == 0) {
            out.tasks = report.stats.totalTasks;
            for (const auto &o : report.bias.outcomes)
                out.sumSpeedup += o.speedup;
        }
        if (out.wallSeconds == 0.0 || wall < out.wallSeconds) {
            out.wallSeconds = wall;
            auto s = toolchain::ArtifactCache::global().stats();
            s.compileHits -= before.compileHits;
            s.compileMisses -= before.compileMisses;
            s.linkHits -= before.linkHits;
            s.linkMisses -= before.linkMisses;
            s.imageHits -= before.imageHits;
            s.imageMisses -= before.imageMisses;
            s.evictions -= before.evictions;
            out.cacheStats = s;
        }
    }
    ::unsetenv("MBIAS_SIM_REFERENCE");
    ::unsetenv("MBIAS_SIM_TRACE");
    out.tasksPerSec = double(out.tasks) / out.wallSeconds;
    return out;
}

double
hitRate(std::uint64_t hits, std::uint64_t misses)
{
    const std::uint64_t total = hits + misses;
    return total ? double(hits) / double(total) : 0.0;
}

void
printTiers(const char *name, const TierResult &r, bool comma)
{
    std::printf("    \"%s\": {\n", name);
    std::printf("      \"reference_insts_per_sec\": %.0f,\n",
                r.reference);
    std::printf("      \"fast_insts_per_sec\": %.0f,\n", r.fast);
    std::printf("      \"trace_insts_per_sec\": %.0f,\n", r.trace);
    std::printf("      \"fast_vs_reference\": %.4f,\n",
                r.fast / r.reference);
    std::printf("      \"trace_vs_fast\": %.4f,\n", r.trace / r.fast);
    std::printf("      \"trace_vs_reference\": %.4f\n",
                r.trace / r.reference);
    std::printf("    }%s\n", comma ? "," : "");
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = pipeline::parseOnlyPipelineArgs(
        argc, argv, {"jobs", "trace", "quiet", "verbose"});
    pipeline::applyLogging(options);
    pipeline::ScopedTraceSession trace(options.tracePath);
    const unsigned jobs = options.jobs;

    std::fprintf(stderr, "sim throughput microbench (jobs=%u)\n", jobs);

    // Part 1: raw per-tier throughput on two loaded images.
    const auto &w = workloads::findWorkload("perl");
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto prog = toolchain::Linker().link(cc.compile(w.build({})));
    toolchain::LoaderConfig lc;
    lc.envBytes = 1024;
    const auto image = toolchain::Loader::load(std::move(prog), lc);
    const TierResult perl =
        measureTiers("perl", sim::MachineConfig::core2Like(), image);
    const TierResult straight =
        measureTiers("straightline", sim::MachineConfig::core2Like(),
                     straightLineImage());
    const auto traceStats = sim::TraceCache::global().stats();
    std::fprintf(
        stderr,
        "  trace cache: %llu superblocks, %llu ops batched, %llu "
        "interpreted, %llu fallbacks\n",
        (unsigned long long)traceStats.superblocks,
        (unsigned long long)traceStats.opsBatched,
        (unsigned long long)traceStats.opsInterpreted,
        (unsigned long long)traceStats.fallbacks);

    // Part 1b: the same three tiers on every registered machine
    // backend (perl image).  The in-order backend declares no trace
    // support, so its trace-tier number is the asserted fast-path
    // fallback — per-backend throughput is provenance for the
    // conformance sweep, not a race between core models.
    std::vector<std::pair<const sim::MachineBackend *, TierResult>>
        backendTiers;
    for (const auto &backend : sim::MachineRegistry::global().backends())
        backendTiers.emplace_back(
            &backend, measureTiers(backend.config.name.c_str(),
                                   backend.config, image));

    // Part 1c: record-once / replay-many on the noisy-repetition
    // driver shape (reps >= 20).  Per-rep noisy execution always pays
    // the reference interpreter; replay rides whatever tier is hot, so
    // perl bounds the memory-heavy end and the straight-line kernel
    // the superblock end (where the >=5x target lives).
    const NoisyRepResult noisyPerl =
        measureNoisyRepetition("perl", image);
    const NoisyRepResult noisyStraight =
        measureNoisyRepetition("straightline", straightLineImage());

    // Part 2: the campaign matrix.  Arms differ only in engine
    // plumbing, so their campaign results must agree exactly.
    const ArmResult optimized = campaignArm(Tier::Trace, jobs);
    const ArmResult cacheFast = campaignArm(Tier::Fast, jobs);
    const ArmResult cacheRef = campaignArm(Tier::Reference, jobs);
    for (const ArmResult *arm : {&cacheFast, &cacheRef})
        mbias_assert(arm->sumSpeedup == optimized.sumSpeedup &&
                         arm->tasks == optimized.tasks,
                     "campaign results must not depend on the sim tier");

    const double speedup = optimized.tasksPerSec / cacheRef.tasksPerSec;
    std::fprintf(stderr,
                 "  campaign: cache+trace %.1f tasks/s, cache+reference "
                 "%.1f tasks/s -> speedup %.2fx\n",
                 optimized.tasksPerSec, cacheRef.tasksPerSec, speedup);

    const auto &cs = optimized.cacheStats;
    std::printf("{\n");
    std::printf("  \"jobs\": %u,\n", jobs);
    std::printf("  \"interpreter\": {\n");
    printTiers("perl", perl, true);
    printTiers("straightline", straight, true);
    std::printf("    \"trace_ops_batched\": %llu,\n",
                (unsigned long long)traceStats.opsBatched);
    std::printf("    \"trace_ops_interpreted\": %llu,\n",
                (unsigned long long)traceStats.opsInterpreted);
    std::printf("    \"trace_fallbacks\": %llu\n",
                (unsigned long long)traceStats.fallbacks);
    std::printf("  },\n");
    std::printf("  \"backends\": {\n");
    for (std::size_t i = 0; i < backendTiers.size(); ++i) {
        const auto &[backend, tiers] = backendTiers[i];
        std::printf("    \"%s\": {\n", backend->config.name.c_str());
        std::printf("      \"core_model\": \"%s\",\n",
                    backend->coreModel.c_str());
        std::printf("      \"trace_supported\": %s,\n",
                    backend->tiers.trace ? "true" : "false");
        std::printf("      \"reference_insts_per_sec\": %.0f,\n",
                    tiers.reference);
        std::printf("      \"fast_insts_per_sec\": %.0f,\n", tiers.fast);
        std::printf("      \"trace_insts_per_sec\": %.0f,\n",
                    tiers.trace);
        std::printf("      \"fast_vs_reference\": %.4f\n",
                    tiers.fast / tiers.reference);
        std::printf("    }%s\n",
                    i + 1 < backendTiers.size() ? "," : "");
    }
    std::printf("  },\n");
    std::printf("  \"noisy_repetition\": {\n");
    auto noisyJson = [](const char *wname, const NoisyRepResult &n,
                        bool comma) {
        std::printf("    \"%s\": {\n", wname);
        std::printf("      \"reps\": %u,\n", n.reps);
        std::printf("      \"replayed\": %s,\n",
                    n.replayed ? "true" : "false");
        std::printf("      \"per_rep_wall_seconds\": %.4f,\n",
                    n.perRepWall);
        std::printf("      \"replay_wall_seconds\": %.4f,\n",
                    n.replayWall);
        std::printf("      \"per_rep_insts_per_sec\": %.0f,\n",
                    n.perRepInstsPerSec);
        std::printf("      \"plan_insts_per_sec\": %.0f,\n",
                    n.planInstsPerSec);
        std::printf("      \"replay_insts_per_sec\": %.0f,\n",
                    n.replayInstsPerSec);
        std::printf("      \"lanes_insts_per_sec\": %.0f,\n",
                    n.lanesInstsPerSec);
        std::printf("      \"aslr_lanes_insts_per_sec\": %.0f,\n",
                    n.aslrLanesInstsPerSec);
        std::printf("      \"lanes_vs_plan\": %.4f,\n",
                    n.lanesInstsPerSec / n.planInstsPerSec);
        std::printf("      \"speedup\": %.4f\n", n.speedup);
        std::printf("    }%s\n", comma ? "," : "");
    };
    noisyJson("perl", noisyPerl, true);
    noisyJson("straightline", noisyStraight, false);
    std::printf("  },\n");
    std::printf("  \"campaign_env_sweep\": {\n");
    std::printf("    \"tasks\": %llu,\n",
                (unsigned long long)optimized.tasks);
    auto arm = [](const char *name, const ArmResult &r, bool comma) {
        std::printf("    \"%s\": {\"tasks_per_sec\": %.2f, "
                    "\"wall_seconds\": %.4f}%s\n",
                    name, r.tasksPerSec, r.wallSeconds,
                    comma ? "," : "");
    };
    arm("cache_trace", optimized, true);
    arm("cache_fast", cacheFast, true);
    arm("cache_reference", cacheRef, true);
    std::printf("    \"cache_hit_rates\": {\"compile\": %.4f, "
                "\"link\": %.4f, \"image\": %.4f}\n",
                hitRate(cs.compileHits, cs.compileMisses),
                hitRate(cs.linkHits, cs.linkMisses),
                hitRate(cs.imageHits, cs.imageMisses));
    std::printf("  },\n");
    std::printf("  \"speedup\": %.4f\n", speedup);
    std::printf("}\n");
    return 0;
}
