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
