/**
 * @file
 * FigureContext, the one way to measure: its campaign lowerings must
 * reproduce the per-run measurements they replaced, bit for bit and
 * at any --jobs.
 */
#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"

namespace
{

using namespace mbias;

TEST(FigureContext, VarianceDecompositionMatchesPerRepRuns)
{
    core::ExperimentSpec spec; // perl, core2like, gcc O2 vs O3
    core::ExperimentSetup home;
    home.envBytes = 300;
    const auto peers = core::SetupSpace().varyEnvSize().grid(3);
    constexpr unsigned reps = 4;
    constexpr std::uint64_t noise_seed = 0xfeed;

    // The historic seeds, one repeatedMetric call per side: within at
    // noise_seed + r (treatment + 7919), between at noise_seed +
    // 104729 + 2i (treatment + 1).
    core::ExperimentRunner runner(spec);
    const auto base =
        runner.repeatedMetric(spec.baseline, home, reps, noise_seed);
    const auto treat = runner.repeatedMetric(spec.treatment, home, reps,
                                             noise_seed + 7919);
    std::vector<double> within;
    for (unsigned r = 0; r < reps; ++r)
        within.push_back(base.values()[r] / treat.values()[r]);
    std::vector<double> between;
    for (std::size_t i = 0; i < peers.size(); ++i) {
        const std::uint64_t seed = noise_seed + 104729 + 2 * i;
        const auto b =
            runner.repeatedMetric(spec.baseline, peers[i], 1, seed);
        const auto t =
            runner.repeatedMetric(spec.treatment, peers[i], 1, seed + 1);
        between.push_back(b.values()[0] / t.values()[0]);
    }

    for (const unsigned jobs : {1u, 4u}) {
        pipeline::PipelineOptions opts;
        opts.jobs = jobs;
        const auto r = pipeline::FigureContext(opts).varianceDecomposition(
            spec, home, peers, reps, noise_seed);
        EXPECT_EQ(r.withinSetup.values(), within) << "--jobs " << jobs;
        EXPECT_EQ(r.betweenSetups.values(), between) << "--jobs " << jobs;
    }
}

} // namespace
