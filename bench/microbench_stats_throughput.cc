/**
 * @file
 * Throughput microbenchmark for this PR's statistics fast path:
 *
 *  1. store read — records/second of the single-pass columnar reader
 *     (readStoreColumns) and of ResultStore::load on a fig7-scale
 *     campaign store built live by a milc environment+link sweep;
 *  2. bootstrap — a 10k-resample percentile bootstrap of the store's
 *     speedup column under three arms: the serial reference
 *     (via the MBIAS_STATS_SERIAL escape hatch, exactly what users
 *     get), the fast engine at jobs=1 (SIMD, no threads), and the
 *     fast engine at `--jobs N`.
 *
 * The headline `speedup` compares the fast engine at --jobs N against
 * the serial reference.  The arms must produce bitwise-identical
 * confidence intervals — that is the engine's contract, and the bench
 * asserts it before timing anything.  Human-readable progress goes to
 * stderr; stdout is exactly one JSON document, which
 * scripts/reproduce_all.sh captures as results/BENCH_stats.json.
 *
 * Timing methodology: a store read is the median of 15 rounds of 100
 * back-to-back reads on the thread CPU clock (medianReadSeconds).
 * Each bootstrap arm runs once to warm (and to verify the bitwise
 * contract), then best-of-kRounds timed runs are reported, matching
 * microbench_sim_throughput.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "campaign/engine.hh"
#include "campaign/store.hh"
#include "core/setup.hh"
#include "pipeline/options.hh"
#include "stats/engine.hh"

using namespace mbias;

namespace
{

constexpr const char *kStorePath = "results/microbench_stats_store.jsonl";

constexpr int kReadRounds = 15, kReadsPerRound = 100;

double
threadCpuSeconds()
{
    timespec ts;
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Seconds of one @p read: the median over kReadRounds rounds of
 * kReadsPerRound back-to-back reads, each round timed by this
 * thread's CPU clock.  A read takes about half a millisecond, so a
 * single wall-clock read mostly measures the shared host's scheduler;
 * the thread clock leaves out the time the kernel runs other threads,
 * and the median drops the rounds a slow phase of the host still hits.
 */
template <typename Read>
double
medianReadSeconds(Read read)
{
    std::vector<double> perRead;
    for (int round = 0; round < kReadRounds; ++round) {
        const double t0 = threadCpuSeconds();
        for (int r = 0; r < kReadsPerRound; ++r)
            read();
        perRead.push_back((threadCpuSeconds() - t0) / kReadsPerRound);
    }
    std::nth_element(perRead.begin(), perRead.begin() + kReadRounds / 2,
                     perRead.end());
    return perRead[kReadRounds / 2];
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Builds the fig7-scale store: milc across 527 randomized setups. */
void
buildStore(unsigned jobs)
{
    campaign::CampaignSpec cspec;
    core::ExperimentSpec spec;
    spec.withWorkload("milc");
    cspec.withExperiment(spec)
        .withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(), 527)
        .withSeed(0xf19u);
    campaign::CampaignOptions opts;
    opts.jobs = jobs;
    opts.outPath = kStorePath;
    campaign::CampaignEngine(cspec, opts).run();
}

struct ArmResult
{
    stats::ConfidenceInterval ci;
    double wallSeconds = 0.0;
    bool serial = false;
};

/** One bootstrap arm: warm + verify, then best-of-kRounds timing. */
ArmResult
bootstrapArm(const std::vector<double> &data, bool reference,
             unsigned jobs, int resamples)
{
    // The serial arm uses the same process-wide escape hatch users
    // have: MBIAS_STATS_SERIAL pins the engine to the reference
    // implementation and is re-read per Engine construction.
    if (reference)
        ::setenv("MBIAS_STATS_SERIAL", "1", 1);
    else
        ::unsetenv("MBIAS_STATS_SERIAL");

    stats::EngineOptions eo;
    eo.jobs = jobs;
    stats::Engine engine(eo);

    ArmResult out;
    out.serial = engine.usingSerial();
    if (reference)
        mbias_assert(out.serial,
                     "MBIAS_STATS_SERIAL must pin the reference path");
    out.ci = engine.bootstrapInterval(data, 0x5eed, resamples, 0.95);

    constexpr int kRounds = 7, kReps = 3;
    double best = 0.0;
    for (int round = 0; round < kRounds; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < kReps; ++r)
            engine.bootstrapInterval(data, 0x5eed, resamples, 0.95);
        const double perCall = secondsSince(t0) / kReps;
        if (best == 0.0 || perCall < best)
            best = perCall;
    }
    out.wallSeconds = best;
    ::unsetenv("MBIAS_STATS_SERIAL");
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = pipeline::parseOnlyPipelineArgs(argc, argv);
    const unsigned jobs = options.jobs;
    const int asked = options.resamplesOr(0);
    const int resamples = asked > 0 ? asked : 10000;

    std::fprintf(stderr, "stats throughput microbench (jobs=%u, "
                 "resamples=%d)\n", jobs, resamples);

    buildStore(jobs);
    std::error_code ec;
    const double storeBytes =
        double(std::filesystem::file_size(kStorePath, ec));

    // Part 1: store read throughput (columnar fast path and the
    // record-map load a resumed campaign performs).
    campaign::StoreColumns cols = campaign::readStoreColumns(kStorePath);
    mbias_assert(cols.rows() == 527, "unexpected store shape");
    const double readSeconds = medianReadSeconds([&] {
        const auto c = campaign::readStoreColumns(kStorePath);
        mbias_assert(c.rows() == cols.rows(), "unstable store read");
    });
    const double loadSeconds = medianReadSeconds([&] {
        campaign::ResultStore store(kStorePath);
        mbias_assert(store.load() == cols.rows(), "unstable store load");
    });
    std::fprintf(stderr,
                 "  store read: columnar %.0f rec/s, load %.0f rec/s "
                 "(median of %d rounds of %d reads, thread CPU time)\n",
                 double(cols.rows()) / readSeconds,
                 double(cols.rows()) / loadSeconds, kReadRounds,
                 kReadsPerRound);

    // Part 2: the bootstrap arms.  All three must agree bitwise.
    const ArmResult ref = bootstrapArm(cols.speedup, true, jobs, resamples);
    const ArmResult fast1 = bootstrapArm(cols.speedup, false, 1, resamples);
    const ArmResult fastN =
        bootstrapArm(cols.speedup, false, jobs, resamples);
    for (const ArmResult *arm : {&fast1, &fastN})
        mbias_assert(arm->ci.lower == ref.ci.lower &&
                         arm->ci.upper == ref.ci.upper &&
                         arm->ci.estimate == ref.ci.estimate,
                     "bootstrap CI must not depend on engine arm");

    const double speedup = ref.wallSeconds / fastN.wallSeconds;
    std::fprintf(stderr,
                 "  bootstrap: reference %.2f ms, fast jobs=1 %.2f ms, "
                 "fast jobs=%u %.2f ms -> speedup %.2fx\n",
                 ref.wallSeconds * 1e3, fast1.wallSeconds * 1e3, jobs,
                 fastN.wallSeconds * 1e3, speedup);

    std::printf("{\n");
    std::printf("  \"jobs\": %u,\n", jobs);
    std::printf("  \"resamples\": %d,\n", resamples);
    std::printf("  \"simd_available\": %s,\n",
                stats::Engine::simdAvailable() ? "true" : "false");
    std::printf("  \"store\": {\n");
    std::printf("    \"records\": %zu,\n", cols.rows());
    std::printf("    \"bytes\": %.0f,\n", storeBytes);
    std::printf("    \"columnar_records_per_sec\": %.0f,\n",
                double(cols.rows()) / readSeconds);
    std::printf("    \"columnar_mb_per_sec\": %.2f,\n",
                storeBytes / readSeconds / 1e6);
    std::printf("    \"load_records_per_sec\": %.0f\n",
                double(cols.rows()) / loadSeconds);
    std::printf("  },\n");
    std::printf("  \"bootstrap\": {\n");
    std::printf("    \"n\": %zu,\n", cols.speedup.size());
    auto arm = [](const char *name, const ArmResult &r, bool comma) {
        std::printf("    \"%s\": {\"wall_seconds\": %.6f, "
                    "\"serial\": %s}%s\n",
                    name, r.wallSeconds, r.serial ? "true" : "false",
                    comma ? "," : "");
    };
    arm("serial_reference", ref, true);
    arm("fast_jobs1", fast1, true);
    arm("fast_jobsN", fastN, true);
    std::printf("    \"ci\": {\"estimate\": %.17g, \"lower\": %.17g, "
                "\"upper\": %.17g}\n",
                ref.ci.estimate, ref.ci.lower, ref.ci.upper);
    std::printf("  },\n");
    std::printf("  \"speedup\": %.4f\n", speedup);
    std::printf("}\n");
    return 0;
}
