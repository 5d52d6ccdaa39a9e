/** @file Unit tests for stats::Sample against hand-computed values. */
#include <gtest/gtest.h>

#include <cmath>
#include "base/random.hh"
#include "stats/sample.hh"

namespace
{

using mbias::stats::Sample;

TEST(Sample, MeanAndSum)
{
    Sample s({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_EQ(s.count(), 4u);
}

TEST(Sample, VarianceUnbiased)
{
    // Hand-computed: mean 3, squared deviations 4+1+0+1+4 = 10, n-1 = 4.
    Sample s({1.0, 2.0, 3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(s.variance(), 2.5);
    EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(2.5));
    EXPECT_DOUBLE_EQ(s.stderror(), std::sqrt(2.5 / 5.0));
}

TEST(Sample, MinMaxMedianOdd)
{
    Sample s({5.0, 1.0, 3.0});
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    EXPECT_DOUBLE_EQ(s.range(), 4.0);
}

TEST(Sample, MedianEvenInterpolates)
{
    Sample s({1.0, 2.0, 3.0, 10.0});
    EXPECT_DOUBLE_EQ(s.median(), 2.5);
}

TEST(Sample, QuantileType7)
{
    // R: quantile(c(1,2,3,4), 0.25) == 1.75 (type 7).
    Sample s({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 1.75);
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 4.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 2.5);
}

TEST(Sample, QuantileSingleton)
{
    Sample s({7.0});
    EXPECT_DOUBLE_EQ(s.quantile(0.3), 7.0);
}

TEST(Sample, Geomean)
{
    Sample s({1.0, 4.0, 16.0});
    EXPECT_NEAR(s.geomean(), 4.0, 1e-12);
}

TEST(Sample, CvOfConstantIsZero)
{
    Sample s({5.0, 5.0, 5.0});
    EXPECT_DOUBLE_EQ(s.cv(), 0.0);
}

TEST(Sample, AddAfterQuery)
{
    Sample s({3.0, 1.0});
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    s.add(0.5); // invalidates the cached sorted copy
    EXPECT_DOUBLE_EQ(s.min(), 0.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Sample, AddAll)
{
    Sample a({1.0, 2.0});
    Sample b({3.0});
    a.addAll(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Sample, FreeGeomean)
{
    EXPECT_NEAR(mbias::stats::geomean({2.0, 8.0}), 4.0, 1e-12);
}

/** Property: quantiles are monotone in q. */
class QuantileMonotone : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantileMonotone, Monotone)
{
    mbias::Rng rng(GetParam());
    Sample s;
    for (int i = 0; i < 57; ++i)
        s.add(rng.nextDouble() * 100.0);
    double prev = s.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = s.quantile(q);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min());
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone, ::testing::Range(0, 8));

} // namespace
