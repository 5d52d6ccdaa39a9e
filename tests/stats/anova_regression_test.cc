/** @file Tests for ANOVA, correlation and KDE. */
#include <gtest/gtest.h>

#include <cmath>

#include "base/random.hh"
#include "stats/anova.hh"
#include "stats/density.hh"
#include "stats/regression.hh"

namespace
{

using namespace mbias::stats;
using mbias::Rng;

// ---------------------------------------------------------------- ANOVA

TEST(Anova, IdenticalGroupsNoEffect)
{
    Sample g({1.0, 2.0, 3.0});
    auto r = oneWayAnova({g, g, g});
    EXPECT_NEAR(r.fStatistic, 0.0, 1e-12);
    EXPECT_NEAR(r.pValue, 1.0, 1e-9);
    EXPECT_FALSE(r.significant());
    EXPECT_NEAR(r.etaSquared, 0.0, 1e-12);
}

TEST(Anova, SeparatedGroupsSignificant)
{
    Sample a({1.0, 1.1, 0.9});
    Sample b({5.0, 5.1, 4.9});
    Sample c({9.0, 9.1, 8.9});
    auto r = oneWayAnova({a, b, c});
    EXPECT_TRUE(r.significant());
    EXPECT_GT(r.etaSquared, 0.95);
    EXPECT_DOUBLE_EQ(r.dfBetween, 2.0);
    EXPECT_DOUBLE_EQ(r.dfWithin, 6.0);
}

TEST(Anova, HandComputedSumsOfSquares)
{
    // Groups {1,2} and {3,4}: grand mean 2.5,
    // ssBetween = 2*(1.5-2.5)^2 + 2*(3.5-2.5)^2 = 4,
    // ssWithin = 0.5 + 0.5 = 1.
    auto r = oneWayAnova({Sample({1.0, 2.0}), Sample({3.0, 4.0})});
    EXPECT_DOUBLE_EQ(r.ssBetween, 4.0);
    EXPECT_DOUBLE_EQ(r.ssWithin, 1.0);
    EXPECT_DOUBLE_EQ(r.fStatistic, 4.0 / (1.0 / 2.0));
}

TEST(Anova, ZeroWithinVarianceExactDifference)
{
    auto r = oneWayAnova({Sample({1.0, 1.0}), Sample({2.0, 2.0})});
    EXPECT_TRUE(std::isinf(r.fStatistic));
    EXPECT_DOUBLE_EQ(r.pValue, 0.0);
}

// ---------------------------------------------------------- correlation

TEST(Correlation, PerfectAndInverse)
{
    EXPECT_NEAR(pearson({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
    EXPECT_NEAR(pearson({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
}

TEST(Correlation, ConstantSeriesIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 4, 6}), 0.0);
}

TEST(Correlation, SpearmanMonotoneNonlinear)
{
    // y = x^3 is monotone: spearman 1, pearson < 1.
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{1, 8, 27, 64, 125};
    EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
    EXPECT_LT(pearson(x, y), 1.0);
}

TEST(Correlation, SpearmanHandlesTies)
{
    // Ties share mean ranks; result must be finite and sane.
    const double r = spearman({1, 1, 2, 3}, {10, 10, 20, 30});
    EXPECT_NEAR(r, 1.0, 1e-12);
}

// ------------------------------------------------------------------ KDE

TEST(Kde, IntegratesToRoughlyOne)
{
    Rng rng(21);
    Sample s;
    for (int i = 0; i < 200; ++i)
        s.add(rng.nextGaussian());
    KernelDensity kde(s);
    // Trapezoid over a wide grid.
    double integral = 0.0;
    const double lo = -6.0, hi = 6.0;
    const int n = 600;
    for (int i = 0; i < n; ++i) {
        const double x = lo + (hi - lo) * i / (n - 1);
        integral += kde.at(x) * (hi - lo) / (n - 1);
    }
    EXPECT_NEAR(integral, 1.0, 0.02);
}

TEST(Kde, PeaksNearMode)
{
    Sample s({0.0, 0.1, -0.1, 0.05, -0.05, 10.0});
    KernelDensity kde(s, 0.5); // narrow bandwidth resolves both modes
    EXPECT_GT(kde.at(0.0), kde.at(5.0));
    EXPECT_GT(kde.at(10.0), kde.at(5.0));
}

TEST(Violin, QuartilesAndStrip)
{
    Sample s({1, 2, 3, 4, 5, 6, 7, 8, 9});
    auto v = ViolinSummary::of(s);
    EXPECT_DOUBLE_EQ(v.min, 1.0);
    EXPECT_DOUBLE_EQ(v.median, 5.0);
    EXPECT_DOUBLE_EQ(v.max, 9.0);
    EXPECT_DOUBLE_EQ(v.p25, 3.0);
    EXPECT_DOUBLE_EQ(v.p75, 7.0);
    const std::string strip = v.strip(s, 20);
    EXPECT_EQ(strip.size(), 20u);
}

} // namespace
