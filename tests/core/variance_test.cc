/** @file Tests for the variance (false-confidence) analysis. */
#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/setup.hh"
#include "core/variance.hh"
#include "pipeline/context.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

/** The decomposition fig8 and `mbias variance` run, at @p reps noisy
 *  repetitions and the historic noise seed. */
VarianceReport
decompose(const ExperimentSpec &spec, const ExperimentSetup &home,
          const std::vector<ExperimentSetup> &peers, unsigned reps)
{
    return pipeline::FigureContext().varianceDecomposition(
        spec, home, peers, reps, 0xfeed);
}

TEST(VarianceAnalyzer, RepeatedMetricVariesUnderNoise)
{
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    auto sample = runner.repeatedMetric(spec.baseline, ExperimentSetup{},
                                        6, 42);
    EXPECT_EQ(sample.count(), 6u);
    EXPECT_GT(sample.range(), 0.0) << "noise must move the metric";
    EXPECT_LT(sample.cv(), 0.05) << "noise must stay small";
}

TEST(VarianceAnalyzer, RepeatedMetricDeterministicGivenSeeds)
{
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    auto a = runner.repeatedMetric(spec.baseline, ExperimentSetup{}, 4, 9);
    auto b = runner.repeatedMetric(spec.baseline, ExperimentSetup{}, 4, 9);
    EXPECT_EQ(a.values(), b.values());
}

TEST(VarianceAnalyzer, PerlShowsFalseConfidenceAtBadHomeSetup)
{
    ExperimentSpec spec; // perl
    ExperimentSetup home;
    home.envBytes = 300; // a known O3-hurts pocket
    auto peers = SetupSpace().varyEnvSize().grid(16);
    auto r = decompose(spec, home, peers, 8);
    EXPECT_GT(r.varianceRatio, 3.0);
    EXPECT_TRUE(r.falseConfidence);
    EXPECT_FALSE(r.str().empty());
}

TEST(VarianceAnalyzer, RobustWorkloadShowsNoFalseConfidence)
{
    ExperimentSpec spec;
    spec.withWorkload("sphinx"); // large genuine effect, tiny bias
    ExperimentSetup home;
    home.envBytes = 300;
    auto peers = SetupSpace().varyEnvSize().grid(8);
    auto r = decompose(spec, home, peers, 8);
    // The cross-setup mean sits close to any single setup's estimate.
    EXPECT_NEAR(r.withinSetup.mean(), r.betweenSetups.mean(), 0.02);
}

TEST(VarianceAnalyzer, WithinCiTightensWithRepetitions)
{
    ExperimentSpec spec;
    ExperimentSetup home;
    auto peers = SetupSpace().varyEnvSize().grid(4);
    auto few = decompose(spec, home, peers, 4);
    auto many = decompose(spec, home, peers, 24);
    EXPECT_LT(many.withinCI.halfWidth(), few.withinCI.halfWidth());
}

} // namespace
