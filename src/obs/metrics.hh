#ifndef MBIAS_METRICS_HH
#define MBIAS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace mbias::obs
{

/**
 * Execution metrics for the campaign engine (and anything else that
 * wants counters): a registry of named Counters, Gauges, and
 * Histograms designed so the hot path is one relaxed atomic add into
 * a per-worker shard — no locks, no cache-line ping-pong — and all
 * cross-shard merging happens at snapshot time.
 *
 * Determinism note: counters that count *work* (tasks executed, cache
 * hits, store appends) are bitwise-identical across job counts for a
 * fixed campaign spec; metrics that measure *scheduling* (queue
 * waits, steals, latencies) are not, by nature.  The convention is
 * that schedule-dependent metrics live under the `pool.` prefix or
 * are histograms of durations.
 */

/** Number of fixed log-scaled histogram buckets (see Histogram). */
constexpr unsigned kHistogramBuckets = 64;

/**
 * The merged (cross-shard) view of one Histogram, and the value type
 * snapshots carry.  Bucket b holds values in
 * [bucketLower(b), bucketUpper(b)]: bucket 0 is exactly {0} and
 * bucket b >= 1 covers [2^(b-1), 2^b - 1] — fixed log2-scaled bounds,
 * so merging shards (or whole snapshots) is plain elementwise
 * addition.
 */
struct HistogramStats
{
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;

    /** Smallest value bucket @p b accepts. */
    static std::uint64_t bucketLower(unsigned b);

    /** Largest value bucket @p b accepts (inclusive). */
    static std::uint64_t bucketUpper(unsigned b);

    /** Exact mean of the recorded values (sum is exact, not bucketed). */
    double mean() const;

    /**
     * Upper bound of the bucket containing the q-quantile (0 < q <= 1)
     * — a conservative estimate with log2 resolution.  0 when empty.
     */
    std::uint64_t quantile(double q) const;

    /**
     * Percentile estimate with sub-bucket resolution: linear
     * interpolation of the q-rank's position within its log2 bucket's
     * [lower, upper] value range.  Smoother than quantile() (which
     * reports the raw bucket upper bound) and what obs-summary
     * renders as p50/p90/p99.  0 when empty.
     */
    double percentile(double q) const;

    /** Elementwise accumulate (for merging snapshots). */
    void merge(const HistogramStats &other);
};

/**
 * A point-in-time merge of every metric in a Registry.  Plain data:
 * copyable, comparable field by field, printable, and mergeable
 * across registries (bench harnesses sum per-campaign snapshots).
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::int64_t> gauges;
    std::map<std::string, HistogramStats> histograms;

    bool empty() const;

    /** Accumulates @p other (counters/histograms add, gauges last-wins). */
    void merge(const MetricsSnapshot &other);

    /** Aligned human-readable rendering (obs-summary, reports). */
    std::string str() const;

    /**
     * One-line JSON: {"counters":{...},"gauges":{...},
     * "histograms":{"name":{"count":..,"sum":..,"mean":..,"p50":..,
     * "p90":..,"p99":..},...}}.  Histograms are summarized
     * (interpolated percentiles), not dumped bucket-by-bucket.
     */
    std::string toJson() const;
};

/**
 * Pretty-prints a one-line JSON object (at most one nesting level,
 * the shape toJson() and the store's meta lines emit) with one field
 * per line and two-space indentation.  Purely lexical — no general
 * JSON parser — which is all the store's flat records need.
 */
std::string prettyJson(const std::string &json);

/** Shards per metric; power of two, indexed by threadShard(). */
constexpr unsigned kShards = 16;

/**
 * The calling thread's shard index in [0, kShards).  Workers of a
 * ThreadPool are assigned their worker index (mod kShards) for the
 * duration of a parallelFor; other threads default to shard 0.
 * Sharding only spreads contention — merged totals are identical
 * however the adds were distributed.
 */
unsigned threadShard();

/** Sets the calling thread's shard (and trace thread id) to @p id. */
void setThreadShard(unsigned id);

/** The unmasked id from setThreadShard (trace tid); 0 by default. */
unsigned threadId();

/** Monotonically increasing count; relaxed per-shard add. */
class Counter
{
  public:
    void
    add(std::uint64_t delta = 1)
    {
        shards_[threadShard()].v.fetch_add(delta,
                                           std::memory_order_relaxed);
    }

    /** Sum over shards. */
    std::uint64_t value() const;

  private:
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> v{0};
    };
    std::array<Slot, kShards> shards_;
};

/** Last-write-wins instantaneous value (e.g. queue depth). */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t delta)
    {
        v_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Fixed log2-bucketed distribution of non-negative integer values
 * (durations in microseconds, sizes in bytes).  record() is two
 * relaxed adds into the caller's shard; stats() merges the shards.
 */
class Histogram
{
  public:
    /** Bucket index for @p value (see HistogramStats for bounds). */
    static unsigned bucketOf(std::uint64_t value);

    void
    record(std::uint64_t value)
    {
        Shard &s = shards_[threadShard()];
        s.counts[bucketOf(value)].fetch_add(1,
                                            std::memory_order_relaxed);
        s.sum.fetch_add(value, std::memory_order_relaxed);
    }

    /** Merged view across all shards. */
    HistogramStats stats() const;

  private:
    struct alignas(64) Shard
    {
        std::array<std::atomic<std::uint64_t>, kHistogramBuckets>
            counts{};
        std::atomic<std::uint64_t> sum{0};
    };
    std::array<Shard, kShards> shards_;
};

/**
 * Named metric registry.  counter()/gauge()/histogram() lazily create
 * on first use and return a reference that stays valid for the
 * registry's lifetime — resolve handles once, then hit them lock-free.
 * Creation takes a mutex; the metric hot paths never do.
 *
 * The campaign engine gives each run its own Registry (so reports
 * carry exactly that run's metrics); global() exists for code without
 * a natural owner.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Merged point-in-time view of everything registered. */
    MetricsSnapshot snapshot() const;

    /** Process-wide default registry. */
    static Registry &global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace mbias::obs

#endif // MBIAS_METRICS_HH
