#include "stats/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "obs/trace.hh"
#include "parallel/pool.hh"
#include "stats/distributions.hh"

namespace mbias::stats
{

namespace
{

/** Resample chunk granularity.  A multiple of the SIMD block width
 *  (32 resamples) so only the final chunk takes the scalar tail, and
 *  coarse enough that chunk dispatch is noise next to the O(chunk * n)
 *  work inside.  Chunk boundaries cannot affect results: every
 *  resample mean is a pure function of (seed, stream index, data). */
constexpr int kChunkResamples = 1024;

/** MBIAS_STATS_SERIAL=1 pins every engine to the serial reference
 *  path (re-read per engine, so one process can compare both). */
bool
serialForced()
{
    const char *e = std::getenv("MBIAS_STATS_SERIAL");
    return e && *e && !(e[0] == '0' && e[1] == '\0');
}

/**
 * Type-7 linear-interpolated quantile via selection instead of a full
 * sort: nth_element places the lo-th and (lo+1)-th order statistics,
 * which is all the interpolation reads.  Order statistics are a pure
 * function of the multiset, so this returns bitwise the same value a
 * sorted scan would (the formula below is Sample::quantile's).
 */
double
quantileSelect(std::vector<double> &s, double q)
{
    if (s.size() == 1)
        return s.front();
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    std::nth_element(s.begin(), s.begin() + std::ptrdiff_t(lo), s.end());
    const double vlo = s[lo];
    std::nth_element(s.begin() + std::ptrdiff_t(lo),
                     s.begin() + std::ptrdiff_t(hi), s.end());
    return vlo * (1.0 - frac) + s[hi] * frac;
}

/** Same formula over a fully sorted vector (serial reference). */
double
quantileSorted(const std::vector<double> &s, double q)
{
    if (s.size() == 1)
        return s.front();
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

} // namespace

double
compensatedSum(const double *data, std::size_t n)
{
    double sum = 0.0, comp = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = data[i];
        const double t = sum + x;
        if (std::abs(sum) >= std::abs(x))
            comp += (sum - t) + x;
        else
            comp += (x - t) + sum;
        sum = t;
    }
    return sum + comp;
}

double
compensatedMean(const double *data, std::size_t n)
{
    mbias_assert(n > 0, "mean of empty array");
    return compensatedSum(data, n) / double(n);
}

namespace detail
{

void
scalarBootstrapMeans(const double *data, std::size_t n,
                     std::uint64_t seed, int r0, int r1, double *means)
{
    for (int r = r0; r < r1; ++r) {
        Rng rng = streamRng(seed, std::uint64_t(r));
        double sum = 0.0, comp = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = data[rng.nextIndex(n)];
            const double t = sum + x;
            if (std::abs(sum) >= std::abs(x))
                comp += (sum - t) + x;
            else
                comp += (x - t) + sum;
            sum = t;
        }
        means[r - r0] = (sum + comp) / double(n);
    }
}

} // namespace detail

Engine::Engine(EngineOptions opts) : opts_(opts)
{
    serial_ = opts_.forceSerial || serialForced();
    if (opts_.metrics) {
        bootstrapCalls_ = &opts_.metrics->counter("stats.bootstrap_calls");
        bootstrapResamples_ =
            &opts_.metrics->counter("stats.bootstrap_resamples");
        bootstrapUs_ = &opts_.metrics->histogram("stats.bootstrap_us");
        anovaCalls_ = &opts_.metrics->counter("stats.anova_calls");
        anovaCells_ = &opts_.metrics->counter("stats.anova_cells");
    }
}

bool
Engine::simdAvailable()
{
    return detail::avx512BootstrapSupported();
}

std::vector<double>
Engine::bootstrapMeans(const std::vector<double> &data, std::uint64_t seed,
                       int resamples) const
{
    mbias_assert(!data.empty(), "bootstrap of empty sample");
    mbias_assert(data.size() <= 0x100000000ULL,
                 "bootstrap sample too large for nextIndex draws");
    mbias_assert(resamples >= 1, "bootstrapMeans needs resamples >= 1");
    std::vector<double> means(static_cast<std::size_t>(resamples));

    if (serial_) {
        // Serial reference: one resample at a time, every draw an
        // out-of-line library call.  This is the path the fast one
        // must match bitwise, so keep it boring.
        for (int r = 0; r < resamples; ++r) {
            Rng rng = streamRng(seed, std::uint64_t(r));
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
            means[std::size_t(r)] = (sum + comp) / double(data.size());
        }
        return means;
    }

    const bool simd = !opts_.forceScalar && detail::avx512BootstrapSupported();
    const int chunks =
        (resamples + kChunkResamples - 1) / kChunkResamples;
    parallel::ThreadPool pool(opts_.jobs, nullptr);
    pool.parallelFor(std::size_t(chunks), [&](std::size_t c, unsigned) {
        const int r0 = int(c) * kChunkResamples;
        const int r1 = std::min(resamples, r0 + kChunkResamples);
        if (simd)
            detail::avx512BootstrapMeans(data.data(), data.size(), seed,
                                         r0, r1, means.data() + r0);
        else
            detail::scalarBootstrapMeans(data.data(), data.size(), seed,
                                         r0, r1, means.data() + r0);
    });
    return means;
}

ConfidenceInterval
Engine::bootstrapInterval(const std::vector<double> &data,
                          std::uint64_t seed, int resamples,
                          double level) const
{
    mbias_assert(resamples >= 10, "too few bootstrap resamples");
    mbias_assert(level > 0.0 && level < 1.0,
                 "confidence level must be in (0, 1)");
    obs::ScopedSpan span("bootstrap", "stats");
    const auto start = std::chrono::steady_clock::now();

    std::vector<double> means = bootstrapMeans(data, seed, resamples);
    const double alpha = (1.0 - level) / 2.0;
    ConfidenceInterval ci;
    ci.estimate = compensatedMean(data.data(), data.size());
    ci.level = level;
    if (serial_) {
        std::sort(means.begin(), means.end());
        ci.lower = quantileSorted(means, alpha);
        ci.upper = quantileSorted(means, 1.0 - alpha);
    } else {
        ci.lower = quantileSelect(means, alpha);
        ci.upper = quantileSelect(means, 1.0 - alpha);
    }

    if (bootstrapCalls_) {
        bootstrapCalls_->add();
        bootstrapResamples_->add(std::uint64_t(resamples));
        bootstrapUs_->record(std::uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
    }
    return ci;
}

TwoWayAnovaResult
Engine::twoWayAnova(const std::vector<std::vector<Sample>> &cells) const
{
    const std::size_t na = cells.size();
    mbias_assert(na >= 2, "two-way ANOVA needs >= 2 levels of factor A");
    const std::size_t nb = cells[0].size();
    mbias_assert(nb >= 2, "two-way ANOVA needs >= 2 levels of factor B");
    const std::size_t reps = cells[0][0].count();
    mbias_assert(reps >= 2, "two-way ANOVA needs >= 2 replicates/cell");
    for (const auto &row : cells) {
        mbias_assert(row.size() == nb, "ragged cell matrix");
        for (const auto &c : row)
            mbias_assert(c.count() == reps, "unbalanced cell design");
    }
    obs::ScopedSpan span("anova", "stats");

    // Stage 1: per-cell partials — compensated sum and, once the cell
    // mean is known, the within-cell sum of squares.  Each partial is
    // a pure function of one cell, and the reductions below combine
    // them in fixed (a-major) cell order, so the result is bitwise
    // identical at any jobs setting.
    const std::size_t ncells = na * nb;
    std::vector<double> cellSum(ncells), cellSq(ncells);
    parallel::ThreadPool pool(serial_ ? 1 : opts_.jobs, nullptr);
    pool.parallelFor(ncells, [&](std::size_t cidx, unsigned) {
        const auto &vals = cells[cidx / nb][cidx % nb].values();
        const double sum = compensatedSum(vals.data(), vals.size());
        const double mean = sum / double(vals.size());
        double acc = 0.0, comp = 0.0;
        for (double v : vals) {
            const double d = (v - mean) * (v - mean);
            const double t = acc + d;
            if (std::abs(acc) >= std::abs(d))
                comp += (acc - t) + d;
            else
                comp += (d - t) + acc;
            acc = t;
        }
        cellSum[cidx] = sum;
        cellSq[cidx] = acc + comp;
    });

    // Stage 2: serial combination in fixed order (cheap: O(cells)).
    const double n_total = double(na * nb * reps);
    double grand_sum = 0.0;
    for (std::size_t i = 0; i < ncells; ++i)
        grand_sum += cellSum[i];
    const double grand_mean = grand_sum / n_total;

    std::vector<double> mean_a(na, 0.0), mean_b(nb, 0.0);
    for (std::size_t a = 0; a < na; ++a)
        for (std::size_t b = 0; b < nb; ++b) {
            mean_a[a] += cellSum[a * nb + b];
            mean_b[b] += cellSum[a * nb + b];
        }
    for (auto &m : mean_a)
        m /= double(nb * reps);
    for (auto &m : mean_b)
        m /= double(na * reps);

    TwoWayAnovaResult r;
    for (std::size_t a = 0; a < na; ++a)
        r.ssA += double(nb * reps) * (mean_a[a] - grand_mean) *
                 (mean_a[a] - grand_mean);
    for (std::size_t b = 0; b < nb; ++b)
        r.ssB += double(na * reps) * (mean_b[b] - grand_mean) *
                 (mean_b[b] - grand_mean);
    for (std::size_t a = 0; a < na; ++a)
        for (std::size_t b = 0; b < nb; ++b) {
            const double cell_mean =
                cellSum[a * nb + b] / double(reps);
            const double inter =
                cell_mean - mean_a[a] - mean_b[b] + grand_mean;
            r.ssAB += double(reps) * inter * inter;
            r.ssWithin += cellSq[a * nb + b];
        }

    r.dfA = double(na - 1);
    r.dfB = double(nb - 1);
    r.dfAB = double((na - 1) * (nb - 1));
    r.dfWithin = double(na * nb * (reps - 1));

    const double ms_within = r.ssWithin / r.dfWithin;
    auto ftest = [&](double ss, double df, double &f, double &p) {
        if (ms_within == 0.0) {
            f = ss > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
            p = ss > 0.0 ? 0.0 : 1.0;
            return;
        }
        f = (ss / df) / ms_within;
        p = 1.0 - fCdf(f, df, r.dfWithin);
    };
    ftest(r.ssA, r.dfA, r.fA, r.pA);
    ftest(r.ssB, r.dfB, r.fB, r.pB);
    ftest(r.ssAB, r.dfAB, r.fAB, r.pAB);

    if (anovaCalls_) {
        anovaCalls_->add();
        anovaCells_->add(ncells);
    }
    return r;
}

} // namespace mbias::stats
