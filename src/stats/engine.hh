#ifndef MBIAS_STATS_ENGINE_HH
#define MBIAS_STATS_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hh"
#include "stats/anova2.hh"
#include "stats/ci.hh"

namespace mbias::stats
{

/**
 * Neumaier-compensated sum of @p n doubles in index order.  The
 * compensation makes the result far less sensitive to the magnitude
 * spread of the addends than a plain left fold; the fixed order makes
 * it a pure function of the input array, which every engine path
 * below relies on.
 */
double compensatedSum(const double *data, std::size_t n);

inline double
compensatedSum(const std::vector<double> &v)
{
    return compensatedSum(v.data(), v.size());
}

/** compensatedSum / n; requires n > 0. */
double compensatedMean(const double *data, std::size_t n);

/** Options for a stats::Engine.  Plain aggregate; copy freely. */
struct EngineOptions
{
    /** Worker threads for chunked reductions; 0 or 1 means inline. */
    unsigned jobs = 1;

    /** Pin this engine to the serial reference path (same effect as
     *  MBIAS_STATS_SERIAL=1, but per-instance). */
    bool forceSerial = false;

    /** Keep the chunked/parallel structure but use the scalar block
     *  kernel even when the SIMD one is available.  Differential-test
     *  hook: scalar and SIMD blocks must agree bitwise. */
    bool forceScalar = false;

    /** Optional registry for stats.* counters and histograms. */
    obs::Registry *metrics = nullptr;
};

/**
 * Parallel, vectorized analysis engine.
 *
 * The engine mirrors the simulator fast path's discipline: every
 * optimized path must be **bitwise identical** to a plain serial
 * reference, and the equivalence is enforced by tests plus runtime
 * escape hatches, never argued by hand.
 *
 * The determinism contract for the bootstrap (see docs/statistics.md):
 *
 *  - resample r draws from the generator `streamRng(seed, r)` — the
 *    same per-stream derivation PR 1 uses for campaign tasks, so
 *    resamples are independent streams keyed by index;
 *  - each draw is one `Rng::nextIndex(n)` (exactly one generator step,
 *    no rejection loop), so draw d of resample r is a pure function
 *    of (seed, r, d);
 *  - each resample mean is a Neumaier-compensated sum over draws in
 *    order d = 0..n-1, divided by n.
 *
 * Every resample mean is therefore a pure function of (seed, r, data):
 * chunking, thread count, work stealing, and SIMD lane assignment
 * cannot change a single bit.  The percentile step selects order
 * statistics of the means vector, which are likewise schedule
 * independent.
 *
 * Escape hatches: `MBIAS_STATS_SERIAL=1` in the environment pins every
 * engine in the process to the serial reference;
 * EngineOptions::forceSerial pins one engine.
 */
class Engine
{
  public:
    explicit Engine(EngineOptions opts = EngineOptions{});

    /**
     * The R resample means of @p data under the contract above.
     * Requires 0 < data.size() <= 2^32 and resamples >= 1.
     */
    std::vector<double> bootstrapMeans(const std::vector<double> &data,
                                       std::uint64_t seed,
                                       int resamples) const;

    /**
     * Percentile-bootstrap confidence interval for the mean of
     * @p data: estimate is the compensated mean of the data, bounds
     * are type-7 quantiles of the resample means.  Bitwise identical
     * at any jobs setting, with or without SIMD.
     */
    ConfidenceInterval bootstrapInterval(const std::vector<double> &data,
                                         std::uint64_t seed,
                                         int resamples = 1000,
                                         double level = 0.95) const;

    /**
     * Balanced two-way ANOVA with per-cell compensated partial sums
     * reduced in fixed cell order.  Bitwise identical at any jobs
     * setting.  Note: agrees with the legacy stats::twoWayAnova only
     * to rounding (the legacy code associates its sums differently);
     * the engine's own serial and parallel paths agree bitwise.
     */
    TwoWayAnovaResult
    twoWayAnova(const std::vector<std::vector<Sample>> &cells) const;

    /** True when this engine runs the serial reference path (escape
     *  hatch or forceSerial). */
    bool usingSerial() const { return serial_; }

    /** True when the vectorized block kernel is compiled in and the
     *  CPU supports it. */
    static bool simdAvailable();

  private:
    EngineOptions opts_;
    bool serial_;
    obs::Counter *bootstrapCalls_ = nullptr;
    obs::Counter *bootstrapResamples_ = nullptr;
    obs::Histogram *bootstrapUs_ = nullptr;
    obs::Counter *anovaCalls_ = nullptr;
    obs::Counter *anovaCells_ = nullptr;
};

namespace detail
{

/** True iff the binary carries the AVX-512 bootstrap kernel and the
 *  running CPU can execute it. */
bool avx512BootstrapSupported();

/**
 * Vectorized block kernel: fills means[0 .. r1-r0) with the resample
 * means for stream indices [r0, r1) under the engine contract.  Only
 * callable when avx512BootstrapSupported().
 */
void avx512BootstrapMeans(const double *data, std::size_t n,
                          std::uint64_t seed, int r0, int r1,
                          double *means);

/** Scalar block kernel with arithmetic identical to the SIMD one (and
 *  to the serial reference); always available. */
void scalarBootstrapMeans(const double *data, std::size_t n,
                          std::uint64_t seed, int r0, int r1,
                          double *means);

} // namespace detail

} // namespace mbias::stats

#endif // MBIAS_STATS_ENGINE_HH
