/** @file Tests for the bias toolkit: runner, analyzer, checker, causal. */
#include <gtest/gtest.h>

#include "core/bias.hh"
#include "core/causal.hh"
#include "core/conclusion.hh"
#include "core/table.hh"
#include "pipeline/context.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

ExperimentSpec
fastSpec(const std::string &workload = "perl")
{
    ExperimentSpec spec;
    spec.withWorkload(workload);
    return spec;
}

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

TEST(Runner, SpeedupIsMetricRatio)
{
    ExperimentRunner runner(fastSpec());
    auto o = runner.run(ExperimentSetup{});
    EXPECT_TRUE(o.baseline.halted);
    EXPECT_TRUE(o.treatment.halted);
    EXPECT_DOUBLE_EQ(o.speedup, double(o.baseline.cycles()) /
                                    double(o.treatment.cycles()));
}

TEST(Runner, SameSetupSameOutcome)
{
    ExperimentRunner runner(fastSpec());
    ExperimentSetup s;
    s.envBytes = 300;
    auto a = runner.run(s);
    auto b = runner.run(s);
    EXPECT_EQ(a.baseline.cycles(), b.baseline.cycles());
    EXPECT_EQ(a.treatment.cycles(), b.treatment.cycles());
}

TEST(Runner, IdenticalToolchainsGiveUnitSpeedup)
{
    ExperimentSpec spec = fastSpec();
    spec.treatment = spec.baseline; // no treatment at all
    ExperimentRunner runner(spec);
    for (std::uint64_t env : {0ull, 123ull, 4000ull}) {
        ExperimentSetup s;
        s.envBytes = env;
        EXPECT_DOUBLE_EQ(runner.run(s).speedup, 1.0);
    }
}

TEST(Runner, MetricSelection)
{
    ExperimentSpec spec = fastSpec();
    spec.metric = Metric::Instructions;
    ExperimentRunner runner(spec);
    auto rr = runner.runSide(spec.baseline, ExperimentSetup{});
    EXPECT_DOUBLE_EQ(runner.metricOf(rr), double(rr.instructions()));
    spec.metric = Metric::Cpi;
    ExperimentRunner runner2(spec);
    auto rr2 = runner2.runSide(spec.baseline, ExperimentSetup{});
    EXPECT_DOUBLE_EQ(runner2.metricOf(rr2), rr2.cpi());
}

TEST(Runner, SpAlignOverrideAppliesIntervention)
{
    ExperimentRunner runner(fastSpec());
    runner.setSpAlignOverride(64);
    // Env sizes that differ by less than 64 land on the same sp.
    ExperimentSetup a, b;
    a.envBytes = 1;
    b.envBytes = 31;
    EXPECT_EQ(runner.runSide(fastSpec().baseline, a).cycles(),
              runner.runSide(fastSpec().baseline, b).cycles());
}

TEST(BiasAnalyzer, DetectsEnvBiasOnPerl)
{
    auto setups = SetupSpace().varyEnvSize().grid(24);
    auto report = measure(fastSpec(), setups);
    EXPECT_EQ(report.outcomes.size(), 24u);
    EXPECT_GT(report.biasMagnitude, 0.02);
    EXPECT_TRUE(report.biased());
    EXPECT_GT(report.conclusionFlips, 0);
    EXPECT_FALSE(report.str().empty());
}

TEST(BiasAnalyzer, NullTreatmentIsNotBiased)
{
    ExperimentSpec spec = fastSpec();
    spec.treatment = spec.baseline;
    auto setups = SetupSpace().varyEnvSize().grid(10);
    auto report = measure(spec, setups);
    EXPECT_DOUBLE_EQ(report.speedups.min(), 1.0);
    EXPECT_DOUBLE_EQ(report.speedups.max(), 1.0);
    EXPECT_EQ(report.conclusionFlips, 0);
    EXPECT_EQ(report.verdict, Verdict::Inconclusive);
}

TEST(BiasAnalyzer, ClearWinnerIsConclusive)
{
    // sphinx: O3 wins by ~20% everywhere, bias is tiny.
    auto setups = SetupSpace().varyEnvSize().grid(8);
    auto report = measure(fastSpec("sphinx"), setups);
    EXPECT_EQ(report.verdict, Verdict::TreatmentHelps);
    EXPECT_EQ(report.conclusionFlips, 0);
    EXPECT_FALSE(report.biased());
}

TEST(BiasAnalyzer, MinMaxSetupsRecorded)
{
    auto setups = SetupSpace().varyEnvSize().grid(16);
    auto report = measure(fastSpec(), setups);
    double min_sp = 10, max_sp = 0;
    ExperimentSetup min_s, max_s;
    for (const auto &o : report.outcomes) {
        if (o.speedup < min_sp) {
            min_sp = o.speedup;
            min_s = o.setup;
        }
        if (o.speedup > max_sp) {
            max_sp = o.speedup;
            max_s = o.setup;
        }
    }
    EXPECT_EQ(report.minSetup, min_s);
    EXPECT_EQ(report.maxSetup, max_s);
}

TEST(ConclusionChecker, SingleSetupVerdicts)
{
    ConclusionChecker c(0.01);
    EXPECT_EQ(c.singleSetupVerdict(1.05), Verdict::TreatmentHelps);
    EXPECT_EQ(c.singleSetupVerdict(0.95), Verdict::TreatmentHurts);
    EXPECT_EQ(c.singleSetupVerdict(1.005), Verdict::Inconclusive);
}

TEST(ConclusionChecker, WrongDataFlaggedForPerl)
{
    auto setups = SetupSpace().varyEnvSize().grid(32);
    auto report = measure(fastSpec(), setups);
    auto check = ConclusionChecker().check(report);
    EXPECT_TRUE(check.wrongDataPossible);
    EXPECT_GT(check.wouldConcludeHelps, 0);
    EXPECT_GT(check.wouldConcludeHurts, 0);
    EXPECT_EQ(check.wouldConcludeHelps + check.wouldConcludeHurts +
                  check.wouldConcludeNeutral,
              int(setups.size()));
    EXPECT_FALSE(check.str().empty());
}

TEST(ConclusionChecker, NoWrongDataWithoutTreatment)
{
    ExperimentSpec spec = fastSpec();
    spec.treatment = spec.baseline;
    auto setups = SetupSpace().varyEnvSize().grid(8);
    auto report = measure(spec, setups);
    auto check = ConclusionChecker().check(report);
    EXPECT_FALSE(check.wrongDataPossible);
    EXPECT_EQ(check.contradictionRate, 0.0);
}

TEST(CausalAnalyzer, EnvBiasTracedToLineSplits)
{
    auto setups = SetupSpace().varyEnvSize().grid(24);
    auto report = CausalAnalyzer().analyze(fastSpec(), setups);
    ASSERT_FALSE(report.rankedCauses.empty());
    // Line splits must rank among the top causes.
    bool splits_high = false;
    for (std::size_t i = 0; i < 3 && i < report.rankedCauses.size(); ++i)
        splits_high |= report.rankedCauses[i].counter ==
                       sim::Counter::LineSplits;
    EXPECT_TRUE(splits_high);
    // The stack-alignment intervention must remove most of the spread.
    ASSERT_FALSE(report.interventions.empty());
    EXPECT_EQ(report.interventions[0].name,
              "force 64-byte stack alignment");
    EXPECT_TRUE(report.interventions[0].confirmed());
    EXPECT_FALSE(report.str().empty());
}

TEST(CausalAnalyzer, InterventionsAreDeduplicated)
{
    auto setups = SetupSpace().varyEnvSize().grid(16);
    auto report = CausalAnalyzer().analyze(fastSpec(), setups);
    std::set<std::string> names;
    for (const auto &iv : report.interventions)
        EXPECT_TRUE(names.insert(iv.name).second) << iv.name;
}

TEST(InterventionResult, ReductionMath)
{
    InterventionResult iv;
    iv.spreadBefore = 100.0;
    iv.spreadAfter = 25.0;
    EXPECT_DOUBLE_EQ(iv.reduction(), 0.75);
    EXPECT_TRUE(iv.confirmed());
    iv.spreadAfter = 80.0;
    EXPECT_FALSE(iv.confirmed());
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"a", "bbbb"});
    t.addRow({"x", "1"});
    t.addRow("y", {2.5}, 1);
    const std::string s = t.str();
    EXPECT_NE(s.find("bbbb"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(fmt(1.23456, 2), "1.23");
}

} // namespace
