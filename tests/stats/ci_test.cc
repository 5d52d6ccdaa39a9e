/** @file Tests for confidence intervals and the Welch t-test. */
#include <gtest/gtest.h>

#include "base/random.hh"
#include "stats/ci.hh"

namespace
{

using namespace mbias::stats;
using mbias::Rng;

TEST(TInterval, HandComputed)
{
    // n=4, mean=2.5, sd=~1.29099, se=0.645497, t*(0.95, 3)=3.18245.
    Sample s({1.0, 2.0, 3.0, 4.0});
    auto ci = tInterval(s, 0.95);
    EXPECT_DOUBLE_EQ(ci.estimate, 2.5);
    EXPECT_NEAR(ci.halfWidth(), 3.18245 * 0.6454972244, 1e-3);
    EXPECT_TRUE(ci.contains(2.5));
    EXPECT_NEAR(ci.lower + ci.upper, 5.0, 1e-12);
}

TEST(TInterval, NarrowsWithMoreData)
{
    Rng rng(5);
    Sample small_n, large_n;
    for (int i = 0; i < 8; ++i)
        small_n.add(rng.nextGaussian());
    for (int i = 0; i < 512; ++i)
        large_n.add(rng.nextGaussian());
    EXPECT_LT(tInterval(large_n).halfWidth(),
              tInterval(small_n).halfWidth());
}

TEST(TInterval, HigherConfidenceIsWider)
{
    Sample s({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_LT(tInterval(s, 0.90).halfWidth(),
              tInterval(s, 0.99).halfWidth());
}

TEST(TInterval, CoverageProperty)
{
    // ~95% of intervals from N(0,1) samples should contain 0.
    Rng rng(11);
    int covered = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        Sample s;
        for (int i = 0; i < 12; ++i)
            s.add(rng.nextGaussian());
        covered += tInterval(s, 0.95).contains(0.0);
    }
    EXPECT_GE(covered, trials * 90 / 100);
    EXPECT_LE(covered, trials * 99 / 100);
}

TEST(WelchTTest, IdenticalSamplesP1)
{
    Sample a({1.0, 2.0, 3.0});
    EXPECT_NEAR(welchTTestPValue(a, a), 1.0, 1e-12);
}

TEST(WelchTTest, SeparatedSamplesSmallP)
{
    Sample a({1.0, 1.1, 0.9, 1.05, 0.95});
    Sample b({9.0, 9.1, 8.9, 9.05, 8.95});
    EXPECT_LT(welchTTestPValue(a, b), 1e-6);
}

TEST(WelchTTest, OverlappingSamplesLargeP)
{
    Sample a({1.0, 2.0, 3.0, 4.0});
    Sample b({1.5, 2.5, 3.5, 2.0});
    EXPECT_GT(welchTTestPValue(a, b), 0.3);
}

TEST(WelchTTest, FalsePositiveRate)
{
    Rng rng(77);
    int rejections = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        Sample a, b;
        for (int i = 0; i < 10; ++i) {
            a.add(rng.nextGaussian());
            b.add(rng.nextGaussian());
        }
        rejections += welchTTestPValue(a, b) < 0.05;
    }
    // Should be near 5%.
    EXPECT_LE(rejections, trials * 10 / 100);
}

TEST(RatioInterval, CenteredOnRatio)
{
    Sample num({10.0, 10.2, 9.8, 10.1});
    Sample den({5.0, 5.1, 4.9, 5.05});
    auto ci = ratioInterval(num, den);
    EXPECT_NEAR(ci.estimate, num.mean() / den.mean(), 1e-12);
    EXPECT_TRUE(ci.contains(2.0));
    EXPECT_LT(ci.upper - ci.lower, 0.5);
}

TEST(ConfidenceInterval, Predicates)
{
    ConfidenceInterval ci;
    ci.estimate = 1.05;
    ci.lower = 1.02;
    ci.upper = 1.08;
    EXPECT_TRUE(ci.entirelyAbove(1.0));
    EXPECT_FALSE(ci.entirelyBelow(1.0));
    EXPECT_FALSE(ci.contains(1.0));
    EXPECT_TRUE(ci.contains(1.05));
}

} // namespace
