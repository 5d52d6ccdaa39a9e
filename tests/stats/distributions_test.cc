/** @file Tests for special functions against known reference values. */
#include <gtest/gtest.h>

#include "stats/distributions.hh"

namespace
{

using namespace mbias::stats;

TEST(Distributions, IncompleteBetaBoundaries)
{
    EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(Distributions, IncompleteBetaSymmetry)
{
    // I_x(a, b) == 1 - I_{1-x}(b, a).
    for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
        EXPECT_NEAR(regularizedIncompleteBeta(2.5, 4.0, x),
                    1.0 - regularizedIncompleteBeta(4.0, 2.5, 1.0 - x),
                    1e-10);
    }
}

TEST(Distributions, IncompleteBetaUniformCase)
{
    // I_x(1, 1) = x (uniform CDF).
    for (double x : {0.2, 0.5, 0.8})
        EXPECT_NEAR(regularizedIncompleteBeta(1.0, 1.0, x), x, 1e-12);
}

TEST(Distributions, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-6);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-6);
    EXPECT_NEAR(normalCdf(1.0), 0.8413447460685429, 1e-9);
}

TEST(Distributions, NormalQuantileInvertsCdf)
{
    for (double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.999})
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-9);
}

TEST(Distributions, StudentTKnownValues)
{
    // t with large df approaches the normal.
    EXPECT_NEAR(studentTCdf(1.96, 1e6), 0.975, 1e-3);
    // Symmetric around zero.
    EXPECT_NEAR(studentTCdf(0.0, 7.0), 0.5, 1e-12);
    EXPECT_NEAR(studentTCdf(2.0, 5.0) + studentTCdf(-2.0, 5.0), 1.0,
                1e-12);
    // t_{0.975, 10} = 2.2281 (standard table).
    EXPECT_NEAR(studentTCdf(2.2281, 10.0), 0.975, 1e-4);
}

TEST(Distributions, StudentTCriticalMatchesTable)
{
    EXPECT_NEAR(studentTCritical(0.95, 10.0), 2.2281, 2e-4);
    EXPECT_NEAR(studentTCritical(0.95, 30.0), 2.0423, 2e-4);
    EXPECT_NEAR(studentTCritical(0.99, 10.0), 3.1693, 3e-4);
    EXPECT_NEAR(studentTCritical(0.90, 5.0), 2.0150, 2e-4);
}

TEST(Distributions, FCdfKnownValues)
{
    // F(1, d, d) == 0.5 by symmetry of the ratio of equal chi-squares.
    EXPECT_NEAR(fCdf(1.0, 10.0, 10.0), 0.5, 1e-10);
    // F_{0.95}(2, 10) critical value is 4.103 (standard table).
    EXPECT_NEAR(fCdf(4.103, 2.0, 10.0), 0.95, 1e-3);
    EXPECT_DOUBLE_EQ(fCdf(0.0, 3.0, 3.0), 0.0);
}

} // namespace
