/**
 * @file
 * The stats engine's bitwise contract: the optimized bootstrap and
 * ANOVA paths must reproduce the serial reference exactly — at any
 * jobs setting, with or without SIMD, and the reference itself must
 * match the documented per-stream contract hand-rolled in this file.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "base/random.hh"
#include "base/seeding.hh"
#include "stats/anova2.hh"
#include "stats/engine.hh"

namespace
{

using namespace mbias::stats;
using mbias::Rng;

std::vector<double>
speedupLike(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(1.0 + 0.05 * rng.nextGaussian());
    return v;
}

/**
 * The documented contract, hand-rolled with no engine code: resample
 * r draws from streamRng(seed, r), one nextIndex per draw, Neumaier
 * compensation in draw order, mean = (sum + comp) / n.
 */
std::vector<double>
contractMeans(const std::vector<double> &data, std::uint64_t seed, int R)
{
    std::vector<double> out(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
        Rng rng = mbias::streamRng(seed, std::uint64_t(r));
        double sum = 0.0, comp = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
            const double x = data[rng.nextIndex(data.size())];
            const double t = sum + x;
            if (std::abs(sum) >= std::abs(x))
                comp += (sum - t) + x;
            else
                comp += (x - t) + sum;
            sum = t;
        }
        out[std::size_t(r)] = (sum + comp) / double(data.size());
    }
    return out;
}

Engine
makeEngine(unsigned jobs, bool force_serial = false,
           bool force_scalar = false)
{
    EngineOptions eo;
    eo.jobs = jobs;
    eo.forceSerial = force_serial;
    eo.forceScalar = force_scalar;
    return Engine(eo);
}

TEST(Engine, SerialReferenceMatchesContract)
{
    const auto data = speedupLike(53, 7);
    const auto ref = makeEngine(1, true).bootstrapMeans(data, 42, 200);
    EXPECT_EQ(ref, contractMeans(data, 42, 200));
}

TEST(Engine, FastPathMatchesSerialBitwise)
{
    // 1037 resamples: full SIMD blocks, a partial block tail, and a
    // partial chunk — every code path in one differential.
    const auto data = speedupLike(129, 11);
    const auto serial = makeEngine(1, true).bootstrapMeans(data, 9, 1037);
    const auto fast = makeEngine(1).bootstrapMeans(data, 9, 1037);
    EXPECT_EQ(serial, fast);

    const auto ciS = makeEngine(1, true).bootstrapInterval(data, 9, 1037);
    const auto ciF = makeEngine(1).bootstrapInterval(data, 9, 1037);
    EXPECT_EQ(ciS.lower, ciF.lower);
    EXPECT_EQ(ciS.upper, ciF.upper);
    EXPECT_EQ(ciS.estimate, ciF.estimate);
}

TEST(Engine, BootstrapBitwiseIdenticalAcrossJobs)
{
    const auto data = speedupLike(257, 13);
    const auto one = makeEngine(1).bootstrapMeans(data, 5, 3000);
    for (unsigned jobs : {2u, 8u}) {
        EXPECT_EQ(one, makeEngine(jobs).bootstrapMeans(data, 5, 3000));
        const auto ci1 = makeEngine(1).bootstrapInterval(data, 5, 3000);
        const auto ciJ =
            makeEngine(jobs).bootstrapInterval(data, 5, 3000);
        EXPECT_EQ(ci1.lower, ciJ.lower);
        EXPECT_EQ(ci1.upper, ciJ.upper);
        EXPECT_EQ(ci1.estimate, ciJ.estimate);
    }
}

TEST(Engine, ScalarAndSimdBlocksAgreeBitwise)
{
    if (!Engine::simdAvailable())
        GTEST_SKIP() << "no AVX-512 kernel on this host";
    const auto data = speedupLike(75, 17);
    EXPECT_EQ(makeEngine(1, false, true).bootstrapMeans(data, 3, 500),
              makeEngine(1).bootstrapMeans(data, 3, 500));
}

TEST(Engine, EnvEscapeHatchPinsSerial)
{
    const auto data = speedupLike(40, 19);
    const auto fast = makeEngine(4).bootstrapInterval(data, 21, 400);
    ::setenv("MBIAS_STATS_SERIAL", "1", 1);
    const Engine pinned = makeEngine(4);
    EXPECT_TRUE(pinned.usingSerial());
    const auto ci = pinned.bootstrapInterval(data, 21, 400);
    ::unsetenv("MBIAS_STATS_SERIAL");
    // The hatch changes the implementation, never the bits.
    EXPECT_EQ(ci.lower, fast.lower);
    EXPECT_EQ(ci.upper, fast.upper);
    EXPECT_EQ(ci.estimate, fast.estimate);
}

TEST(Engine, IntervalShapeAndEstimate)
{
    const auto data = speedupLike(100, 23);
    const auto ci = makeEngine(2).bootstrapInterval(data, 1, 1000, 0.9);
    EXPECT_LT(ci.lower, ci.upper);
    EXPECT_DOUBLE_EQ(ci.level, 0.9);
    EXPECT_EQ(ci.estimate, compensatedMean(data.data(), data.size()));
    EXPECT_GT(ci.lower, 0.5);
    EXPECT_LT(ci.upper, 1.5);

    // A degenerate sample collapses the interval onto its value.
    const std::vector<double> flat(4, 5.0);
    const auto point = makeEngine(2).bootstrapInterval(flat, 1, 200);
    EXPECT_DOUBLE_EQ(point.lower, 5.0);
    EXPECT_DOUBLE_EQ(point.upper, 5.0);
    EXPECT_DOUBLE_EQ(point.estimate, 5.0);
}

std::vector<std::vector<Sample>>
anovaCells(unsigned na, unsigned nb, unsigned reps, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<Sample>> cells(na,
                                           std::vector<Sample>(nb));
    for (unsigned a = 0; a < na; ++a)
        for (unsigned b = 0; b < nb; ++b)
            for (unsigned r = 0; r < reps; ++r)
                cells[a][b].add(5.0 + 2.0 * a + 0.5 * b +
                                rng.nextGaussian());
    return cells;
}

TEST(Engine, AnovaBitwiseIdenticalAcrossJobs)
{
    const auto cells = anovaCells(4, 3, 6, 29);
    const auto one = makeEngine(1).twoWayAnova(cells);
    for (unsigned jobs : {2u, 8u}) {
        const auto j = makeEngine(jobs).twoWayAnova(cells);
        EXPECT_EQ(one.ssA, j.ssA);
        EXPECT_EQ(one.ssB, j.ssB);
        EXPECT_EQ(one.ssAB, j.ssAB);
        EXPECT_EQ(one.ssWithin, j.ssWithin);
        EXPECT_EQ(one.fA, j.fA);
        EXPECT_EQ(one.fB, j.fB);
        EXPECT_EQ(one.fAB, j.fAB);
        EXPECT_EQ(one.pA, j.pA);
        EXPECT_EQ(one.pB, j.pB);
        EXPECT_EQ(one.pAB, j.pAB);
    }
    // The serial engine path agrees with the parallel one bitwise too.
    const auto s = makeEngine(1, true).twoWayAnova(cells);
    EXPECT_EQ(one.ssA, s.ssA);
    EXPECT_EQ(one.ssWithin, s.ssWithin);
    EXPECT_EQ(one.pAB, s.pAB);
}

TEST(Engine, AnovaAgreesWithLegacyToRounding)
{
    // The legacy twoWayAnova associates its sums differently, so the
    // agreement is to rounding, not bitwise (see engine.hh).
    const auto cells = anovaCells(3, 3, 8, 31);
    const auto e = makeEngine(2).twoWayAnova(cells);
    const auto l = twoWayAnova(cells);
    EXPECT_NEAR(e.ssA, l.ssA, 1e-9 * std::abs(l.ssA) + 1e-12);
    EXPECT_NEAR(e.ssB, l.ssB, 1e-9 * std::abs(l.ssB) + 1e-12);
    EXPECT_NEAR(e.ssAB, l.ssAB, 1e-9 * std::abs(l.ssAB) + 1e-12);
    EXPECT_NEAR(e.ssWithin, l.ssWithin,
                1e-9 * std::abs(l.ssWithin) + 1e-12);
    EXPECT_NEAR(e.fA, l.fA, 1e-8 * std::abs(l.fA) + 1e-12);
    EXPECT_NEAR(e.pA, l.pA, 1e-8);
    EXPECT_EQ(e.dfA, l.dfA);
    EXPECT_EQ(e.dfWithin, l.dfWithin);
}

TEST(CompensatedSum, CancellationExact)
{
    const std::vector<double> v{1e16, 1.0, -1e16};
    EXPECT_DOUBLE_EQ(compensatedSum(v), 1.0);
    // The naive left fold loses the 1.0 entirely.
    EXPECT_DOUBLE_EQ((1e16 + 1.0) + -1e16, 0.0);
}

TEST(CompensatedSum, IllConditionedMatchesLongDouble)
{
    // Each triple (big, small, -big) cancels its 1e15-scale terms
    // exactly, so the true sum is just the sum of the unit-scale
    // values — which a plain left fold butchers (every small addend
    // lands on a ~1e15 partial and loses its low bits) and a
    // compensated sum recovers to a few ulps.
    Rng rng(37);
    std::vector<double> v;
    long double exact = 0.0L;
    for (int i = 0; i < 1000; ++i) {
        const double big = 1e15 * (1.0 + rng.nextDouble());
        const double small = rng.nextDouble();
        v.push_back(big);
        v.push_back(small);
        v.push_back(-big);
        exact += static_cast<long double>(small);
    }
    double naive = 0.0;
    for (double x : v)
        naive += x;
    const double ref = static_cast<double>(exact);
    const double got = compensatedSum(v);
    EXPECT_NEAR(got, ref, 1e-9) << "compensated sum drifted";
    EXPECT_GT(std::abs(naive - ref), std::abs(got - ref))
        << "naive fold should be strictly worse on this input";
    EXPECT_DOUBLE_EQ(compensatedMean(v.data(), v.size()),
                     got / double(v.size()));
}

} // namespace
