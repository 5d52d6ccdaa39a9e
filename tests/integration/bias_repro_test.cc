/**
 * @file
 * Integration tests asserting the paper's *headline phenomena* hold in
 * this reproduction — these are the claims EXPERIMENTS.md records.
 */
#include <gtest/gtest.h>

#include "core/bias.hh"
#include "core/causal.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

/** Measures @p setups through the campaign engine, the one way
 *  every entry point measures. */
BiasReport
measure(const ExperimentSpec &spec, std::vector<ExperimentSetup> setups)
{
    return pipeline::FigureContext()
        .run(campaign::CampaignSpec().withExperiment(spec).withSetups(
            std::move(setups)))
        .bias;
}

TEST(PaperClaims, Figure3EnvSizeFlipsPerlConclusion)
{
    // "Speedup of O3 on Core 2 vs env size sweeps ~0.92-1.10."
    ExperimentSpec spec; // perl / core2like / gcc O2 vs O3
    ExperimentRunner runner(spec);
    stats::Sample sp;
    for (std::uint64_t env = 0; env <= 4096; env += 36) {
        ExperimentSetup s;
        s.envBytes = env;
        sp.add(runner.run(s).speedup);
    }
    EXPECT_LT(sp.min(), 0.98) << "no setup where O3 clearly hurts";
    EXPECT_GT(sp.max(), 1.02) << "no setup where O3 clearly helps";
    EXPECT_GT(sp.range(), 0.04);
}

TEST(PaperClaims, LinkOrderAloneChangesCycles)
{
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    stats::Sample cycles;
    for (unsigned s = 0; s < 12; ++s) {
        ExperimentSetup setup;
        setup.linkOrder = s == 0 ? toolchain::LinkOrder::asGiven()
                                 : toolchain::LinkOrder::shuffled(s);
        cycles.add(double(runner.runSide(spec.baseline, setup).cycles()));
    }
    EXPECT_GT(cycles.range() / cycles.median(), 0.005)
        << "link order must move cycles by >0.5%";
}

TEST(PaperClaims, BiasOnEveryMachineModel)
{
    for (const auto &machine : sim::MachineConfig::allPresets()) {
        ExperimentSpec spec;
        spec.withMachine(machine);
        ExperimentRunner runner(spec);
        stats::Sample cycles;
        for (std::uint64_t env = 0; env <= 1024; env += 36) {
            ExperimentSetup s;
            s.envBytes = env;
            cycles.add(
                double(runner.runSide(spec.baseline, s).cycles()));
        }
        EXPECT_GT(cycles.range(), 0.0) << machine.name;
    }
}

TEST(PaperClaims, BiasWithBothCompilerVendors)
{
    for (auto vendor : {toolchain::CompilerVendor::GccLike,
                        toolchain::CompilerVendor::IccLike}) {
        ExperimentSpec spec;
        spec.withBaseline({vendor, toolchain::OptLevel::O2})
            .withTreatment({vendor, toolchain::OptLevel::O3});
        ExperimentRunner runner(spec);
        stats::Sample sp;
        for (std::uint64_t env = 0; env <= 2048; env += 68) {
            ExperimentSetup s;
            s.envBytes = env;
            sp.add(runner.run(s).speedup);
        }
        EXPECT_GT(sp.range(), 0.01) << toolchain::vendorName(vendor);
    }
}

TEST(PaperClaims, RandomizationCoversGridEstimate)
{
    // The randomized-setup CI must be consistent with a (denser)
    // grid-sweep mean — the remedy must estimate the same effect.
    ExperimentSpec spec;
    auto grid = SetupSpace().varyEnvSize().grid(48);
    auto grid_report = measure(spec, grid);

    auto rand_report = measure(
        spec, pipeline::sequentialSetups(SetupSpace().varyEnvSize(), 31, 99));

    EXPECT_TRUE(
        rand_report.speedupCI.contains(grid_report.speedups.mean()))
        << "randomized CI " << rand_report.speedupCI.str()
        << " excludes grid mean " << grid_report.speedups.mean();
}

TEST(PaperClaims, ExtremeSingleSetupsFallOutsideCI)
{
    ExperimentSpec spec;
    auto grid = SetupSpace().varyEnvSize().grid(48);
    auto report = measure(spec, grid);
    // The CI of the *mean* is far narrower than the setup spread:
    // cherry-picked setups lie outside it.
    EXPECT_LT(report.speedupCI.lower, report.speedups.max());
    EXPECT_FALSE(report.speedupCI.contains(report.speedups.min()));
    EXPECT_FALSE(report.speedupCI.contains(report.speedups.max()));
}

TEST(PaperClaims, CausalInterventionCollapsesEnvBias)
{
    ExperimentSpec spec;
    auto setups = SetupSpace().varyEnvSize().grid(32);
    auto report = CausalAnalyzer().analyze(spec, setups);
    ASSERT_FALSE(report.interventions.empty());
    const auto &align = report.interventions.front();
    EXPECT_EQ(align.name, "force 64-byte stack alignment");
    EXPECT_GT(align.reduction(), 0.8)
        << "aligning the stack should remove most env-size bias";
}

TEST(PaperClaims, InstructionCountsAreLayoutInvariant)
{
    // Bias is a *timing* phenomenon: the architectural work must not
    // change with setup.
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    ExperimentSetup a, b;
    b.envBytes = 1234;
    b.linkOrder = toolchain::LinkOrder::shuffled(5);
    EXPECT_EQ(runner.runSide(spec.baseline, a).instructions(),
              runner.runSide(spec.baseline, b).instructions());
}

} // namespace
