/**
 * @file
 * Metrics registry unit tests: log2 histogram bucket boundaries,
 * per-shard merge correctness, quantile estimates, and snapshot
 * merging.
 */
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace
{

using namespace mbias;

TEST(ObsHistogram, BucketBoundaries)
{
    // Bucket 0 holds exactly {0}; bucket b >= 1 holds [2^(b-1), 2^b - 1].
    obs::Registry reg;
    auto &h = reg.histogram("h");
    const std::vector<std::pair<std::uint64_t, unsigned>> cases = {
        {0, 0}, {1, 1}, {2, 2},  {3, 2},  {4, 3},    {7, 3},
        {8, 4}, {9, 4}, {15, 4}, {16, 5}, {1023, 10}, {1024, 11},
    };
    for (const auto &[value, bucket] : cases)
        h.record(value);
    const auto snap = reg.snapshot();
    const auto &stats = snap.histograms.at("h");
    for (const auto &[value, bucket] : cases)
        EXPECT_GE(stats.buckets[bucket], 1u)
            << "value " << value << " should land in bucket " << bucket;
    EXPECT_EQ(stats.count, cases.size());
    std::uint64_t sum = 0;
    for (const auto &[value, bucket] : cases)
        sum += value;
    EXPECT_EQ(stats.sum, sum);
}

TEST(ObsHistogram, BucketBoundsAreConsistent)
{
    // Every bucket's [lower, upper] range must be non-empty, adjacent
    // to its neighbours, and contain the values bucketed into it.
    EXPECT_EQ(obs::HistogramStats::bucketLower(0), 0u);
    EXPECT_EQ(obs::HistogramStats::bucketUpper(0), 0u);
    for (unsigned b = 1; b < obs::kHistogramBuckets; ++b) {
        EXPECT_EQ(obs::HistogramStats::bucketLower(b),
                  obs::HistogramStats::bucketUpper(b - 1) + 1);
        EXPECT_LE(obs::HistogramStats::bucketLower(b),
                  obs::HistogramStats::bucketUpper(b));
    }
}

TEST(ObsHistogram, QuantileIsConservativeUpperBound)
{
    obs::Registry reg;
    auto &h = reg.histogram("q");
    for (int i = 0; i < 99; ++i)
        h.record(10); // bucket 4: [8, 15]
    h.record(1000);   // bucket 10: [512, 1023]
    const auto stats = reg.snapshot().histograms.at("q");
    // p50 falls inside the bucket holding 10s; the estimate is that
    // bucket's upper bound.
    EXPECT_EQ(stats.quantile(0.50), 15u);
    // p995+ reaches the outlier's bucket.
    EXPECT_EQ(stats.quantile(0.999), 1023u);
    EXPECT_DOUBLE_EQ(stats.mean(), (99 * 10 + 1000) / 100.0);
}

TEST(ObsHistogram, PercentileInterpolatesWithinBucket)
{
    obs::Registry reg;
    auto &h = reg.histogram("p");
    for (const std::uint64_t v : {8, 10, 12, 14})
        h.record(v); // all in bucket 4: [8, 15]
    const auto stats = reg.snapshot().histograms.at("p");
    // rank = q * count observations into the bucket, spread linearly
    // across [8, 15]: p50 sits halfway, p100 at the upper bound.
    EXPECT_DOUBLE_EQ(stats.percentile(0.50), 8.0 + 0.50 * 7.0);
    EXPECT_DOUBLE_EQ(stats.percentile(0.90), 8.0 + 0.90 * 7.0);
    EXPECT_DOUBLE_EQ(stats.percentile(1.00), 15.0);
}

TEST(ObsHistogram, PercentileIsLessPessimisticThanQuantile)
{
    // Same distribution as QuantileIsConservativeUpperBound: the
    // interpolated percentile lands inside the bucket instead of
    // snapping to its upper bound.
    obs::Registry reg;
    auto &h = reg.histogram("p");
    for (int i = 0; i < 99; ++i)
        h.record(10); // bucket 4: [8, 15]
    h.record(1000);   // bucket 10: [512, 1023]
    const auto stats = reg.snapshot().histograms.at("p");
    EXPECT_DOUBLE_EQ(stats.percentile(0.50), 8.0 + (50.0 / 99.0) * 7.0);
    EXPECT_LT(stats.percentile(0.50), double(stats.quantile(0.50)));
    EXPECT_NEAR(stats.percentile(0.999),
                512.0 + 0.9 * (1023.0 - 512.0), 1e-6);
}

TEST(ObsHistogram, PercentileEdgeCases)
{
    // Empty histogram reports 0; the last (open-ended) bucket reports
    // its lower bound since interpolating to 2^63 - 1 is meaningless.
    const obs::HistogramStats empty;
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    obs::Registry reg;
    auto &h = reg.histogram("top");
    h.record(~std::uint64_t(0));
    const auto stats = reg.snapshot().histograms.at("top");
    EXPECT_DOUBLE_EQ(
        stats.percentile(0.5),
        double(obs::HistogramStats::bucketLower(obs::kHistogramBuckets -
                                                1)));
}

TEST(ObsSnapshot, SummaryTablePinsPercentileColumns)
{
    // Pins the obs-summary rendering: the histogram table shows
    // count / mean / p50 / p90 / p99 (interpolated percentiles, not
    // raw log2 buckets), column-aligned with the counter table.
    obs::Registry reg;
    reg.counter("tasks.done").add(5);
    auto &h = reg.histogram("task.execute_us");
    for (const std::uint64_t v : {8, 10, 12, 14})
        h.record(v); // bucket 4: mean 11.0, p50 11.5, p90 14.3, p99 14.9
    const auto text = reg.snapshot().str();

    const std::string expected =
        "counters:\n"
        "  tasks.done" + std::string(30, ' ') + "5\n" +
        "histograms:" + std::string(25, ' ') + "count" +
        std::string(9, ' ') + "mean" + std::string(8, ' ') + "p50" +
        std::string(8, ' ') + "p90" + std::string(8, ' ') + "p99\n" +
        "  task.execute_us" + std::string(23, ' ') + "4" +
        std::string(9, ' ') + "11.0" + std::string(7, ' ') + "11.5" +
        std::string(7, ' ') + "14.3" + std::string(7, ' ') + "14.9\n";
    EXPECT_EQ(text, expected);
}

TEST(ObsCounter, ShardsMergeAtSnapshot)
{
    // Writers on distinct shards must not lose increments; the
    // snapshot is the sum over all shards.
    obs::Registry reg;
    auto &c = reg.counter("c");
    constexpr unsigned threads = 8;
    constexpr std::uint64_t per_thread = 10'000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&c, t] {
            obs::setThreadShard(t);
            for (std::uint64_t i = 0; i < per_thread; ++i)
                c.add();
        });
    }
    for (auto &th : pool)
        th.join();
    EXPECT_EQ(c.value(), threads * per_thread);
    EXPECT_EQ(reg.snapshot().counters.at("c"), threads * per_thread);
}

TEST(ObsHistogram, ShardsMergeAtSnapshot)
{
    obs::Registry reg;
    auto &h = reg.histogram("h");
    constexpr unsigned threads = 4;
    constexpr std::uint64_t per_thread = 1'000;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&h, t] {
            obs::setThreadShard(t);
            for (std::uint64_t i = 0; i < per_thread; ++i)
                h.record(100); // bucket 7: [64, 127]
        });
    }
    for (auto &th : pool)
        th.join();
    const auto stats = reg.snapshot().histograms.at("h");
    EXPECT_EQ(stats.count, threads * per_thread);
    EXPECT_EQ(stats.sum, threads * per_thread * 100);
    EXPECT_EQ(stats.buckets[7], threads * per_thread);
}

TEST(ObsSnapshot, MergeAddsCountersAndBuckets)
{
    obs::Registry a, b;
    a.counter("shared").add(3);
    b.counter("shared").add(4);
    b.counter("only_b").add(1);
    a.gauge("g").set(7);
    a.histogram("h").record(2);
    b.histogram("h").record(5);

    auto snap = a.snapshot();
    snap.merge(b.snapshot());
    EXPECT_EQ(snap.counters.at("shared"), 7u);
    EXPECT_EQ(snap.counters.at("only_b"), 1u);
    EXPECT_EQ(snap.gauges.at("g"), 7);
    EXPECT_EQ(snap.histograms.at("h").count, 2u);
    EXPECT_EQ(snap.histograms.at("h").sum, 7u);
}

TEST(ObsSnapshot, JsonAndStrMentionEveryMetric)
{
    obs::Registry reg;
    reg.counter("tasks.done").add(5);
    reg.gauge("jobs").set(8);
    reg.histogram("wait_us").record(42);
    const auto snap = reg.snapshot();
    const auto json = snap.toJson();
    EXPECT_NE(json.find("\"tasks.done\":5"), std::string::npos) << json;
    EXPECT_NE(json.find("\"jobs\":8"), std::string::npos) << json;
    EXPECT_NE(json.find("wait_us"), std::string::npos) << json;
    const auto text = snap.str();
    EXPECT_NE(text.find("tasks.done"), std::string::npos) << text;
    EXPECT_NE(text.find("wait_us"), std::string::npos) << text;
}

TEST(ObsRegistry, SameNameReturnsSameMetric)
{
    obs::Registry reg;
    auto &c1 = reg.counter("x");
    auto &c2 = reg.counter("x");
    EXPECT_EQ(&c1, &c2);
    c1.add(2);
    c2.add(3);
    EXPECT_EQ(reg.snapshot().counters.at("x"), 5u);
}

TEST(MetricsSnapshot, SinceSubtractsCountersAndHistogramsExactly)
{
    obs::Registry reg;
    reg.counter("work").add(10);
    reg.histogram("us").record(3);
    reg.histogram("us").record(100);
    const auto before = reg.snapshot();

    reg.counter("work").add(5);
    reg.counter("fresh").add(2);
    reg.histogram("us").record(3);
    reg.histogram("us").record(1000);
    const auto d = reg.snapshot().since(before);

    EXPECT_EQ(d.counters.at("work"), 5u);
    EXPECT_EQ(d.counters.at("fresh"), 2u);
    const auto &h = d.histograms.at("us");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 1003u);
    EXPECT_EQ(h.buckets[obs::Histogram::bucketOf(3)], 1u);
    EXPECT_EQ(h.buckets[obs::Histogram::bucketOf(100)], 0u);
    EXPECT_EQ(h.buckets[obs::Histogram::bucketOf(1000)], 1u);

    // Booking the difference on top of the earlier reading gives back
    // the later one: nothing is lost or counted twice.
    auto rebuilt = before;
    rebuilt.merge(d);
    const auto after = reg.snapshot();
    EXPECT_EQ(rebuilt.counters, after.counters);
    EXPECT_EQ(rebuilt.histograms.at("us").buckets,
              after.histograms.at("us").buckets);
    EXPECT_EQ(rebuilt.histograms.at("us").sum,
              after.histograms.at("us").sum);
}

TEST(MetricsSnapshot, SinceKeepsTheCurrentGaugeValue)
{
    obs::Registry reg;
    reg.gauge("bytes").set(100);
    reg.gauge("same").set(7);
    const auto before = reg.snapshot();
    reg.gauge("bytes").set(40); // gauges may fall: no subtraction
    reg.gauge("new").set(0);
    const auto d = reg.snapshot().since(before);
    EXPECT_EQ(d.gauges.at("bytes"), 40);
    EXPECT_EQ(d.gauges.at("new"), 0) << "a gauge that appeared moved";
    EXPECT_EQ(d.gauges.count("same"), 0u);
}

TEST(MetricsSnapshot, SinceDropsEntriesThatDidNotMove)
{
    obs::Registry reg;
    reg.counter("idle").add(4);
    reg.counter("zero");
    reg.histogram("idle_us").record(9);
    reg.histogram("empty_us");
    const auto before = reg.snapshot();
    reg.counter("late_zero");
    reg.histogram("late_empty_us");
    const auto d = reg.snapshot().since(before);
    EXPECT_TRUE(d.empty()) << d.toJson();
    EXPECT_TRUE(before.since(before).empty());
}

} // namespace
