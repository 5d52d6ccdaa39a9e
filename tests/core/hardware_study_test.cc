/** @file Tests for machine-pair (hardware) studies and the prefetcher. */
#include <gtest/gtest.h>

#include "core/bias.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

sim::MachineConfig
withPrefetcher()
{
    auto m = sim::MachineConfig::core2Like();
    m.name = "core2like+pf";
    m.enableNextLinePrefetch = true;
    return m;
}

TEST(HardwareStudy, SpecStrNamesBothMachines)
{
    ExperimentSpec spec;
    spec.withWorkload("lbm").withTreatmentMachine(withPrefetcher());
    spec.treatment = spec.baseline;
    EXPECT_EQ(spec.str(), "lbm (gcc-O2): core2like vs core2like+pf");
}

TEST(HardwareStudy, IdenticalMachinesGiveUnitSpeedup)
{
    ExperimentSpec spec;
    spec.withTreatmentMachine(sim::MachineConfig::core2Like());
    spec.treatment = spec.baseline;
    ExperimentRunner runner(spec);
    EXPECT_DOUBLE_EQ(runner.run(ExperimentSetup{}).speedup, 1.0);
}

TEST(HardwareStudy, PrefetcherHelpsStreaming)
{
    ExperimentSpec spec;
    spec.withWorkload("lbm").withTreatmentMachine(withPrefetcher());
    spec.treatment = spec.baseline;
    ExperimentRunner runner(spec);
    auto o = runner.run(ExperimentSetup{});
    EXPECT_GT(o.speedup, 1.05);
    EXPECT_GT(o.treatment.counters.get(sim::Counter::PrefetchesIssued),
              0u);
    EXPECT_EQ(o.baseline.counters.get(sim::Counter::PrefetchesIssued),
              0u);
    // Functional result identical on both machines.
    EXPECT_EQ(o.baseline.result, o.treatment.result);
}

TEST(HardwareStudy, PrefetchReducesDemandMisses)
{
    ExperimentSpec spec;
    spec.withWorkload("libquantum")
        .withTreatmentMachine(withPrefetcher());
    spec.treatment = spec.baseline;
    ExperimentRunner runner(spec);
    auto o = runner.run(ExperimentSetup{});
    EXPECT_LT(o.treatment.counters.get(sim::Counter::DcacheMisses),
              o.baseline.counters.get(sim::Counter::DcacheMisses));
}

TEST(HardwareStudy, SoftwareStudyUnaffectedByOptionalField)
{
    // Without treatmentMachine the behaviour is the classic software
    // study (regression guard for the optional's default).
    ExperimentSpec spec;
    ASSERT_FALSE(spec.treatmentMachine.has_value());
    ExperimentRunner runner(spec);
    auto o = runner.run(ExperimentSetup{});
    EXPECT_NE(o.speedup, 0.0);
    EXPECT_EQ(spec.str(), "perl: gcc-O2 vs gcc-O3 on core2like");
}

TEST(HardwareStudy, BiasAnalysisComposes)
{
    ExperimentSpec spec;
    spec.withWorkload("hmmer").withTreatmentMachine(withPrefetcher());
    spec.treatment = spec.baseline;
    auto setups = SetupSpace().varyEnvSize().grid(8);
    auto report =
        pipeline::FigureContext()
            .run(campaign::CampaignSpec().withExperiment(spec).withSetups(
                setups))
            .bias;
    EXPECT_EQ(report.outcomes.size(), 8u);
    EXPECT_GT(report.speedups.mean(), 1.0);
}

} // namespace
