#include "obs/metrics.hh"

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "base/logging.hh"

namespace mbias::obs
{

// ---------------------------------------------------------------------
// HistogramStats (always compiled; snapshots exist in both build modes)

std::uint64_t
HistogramStats::bucketLower(unsigned b)
{
    mbias_assert(b < kHistogramBuckets, "bucket out of range: ", b);
    return b == 0 ? 0 : std::uint64_t(1) << (b - 1);
}

std::uint64_t
HistogramStats::bucketUpper(unsigned b)
{
    mbias_assert(b < kHistogramBuckets, "bucket out of range: ", b);
    if (b == 0)
        return 0;
    if (b == kHistogramBuckets - 1)
        return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t(1) << b) - 1;
}

double
HistogramStats::mean() const
{
    return count == 0 ? 0.0 : double(sum) / double(count);
}

std::uint64_t
HistogramStats::quantile(double q) const
{
    mbias_assert(q > 0.0 && q <= 1.0, "quantile out of (0, 1]: ", q);
    if (count == 0)
        return 0;
    // Rank of the quantile observation (1-based, ceil), then walk the
    // cumulative counts to the bucket containing it.
    const std::uint64_t rank =
        std::uint64_t(std::ceil(q * double(count)));
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank)
            return bucketUpper(b);
    }
    return bucketUpper(kHistogramBuckets - 1);
}

double
HistogramStats::percentile(double q) const
{
    mbias_assert(q > 0.0 && q <= 1.0, "percentile out of (0, 1]: ", q);
    if (count == 0)
        return 0.0;
    // Continuous rank of the percentile, then interpolate its position
    // among the containing bucket's observations across the bucket's
    // value range.  The last bucket's upper bound is 2^63 - 1, where
    // interpolation is meaningless; report its lower bound instead.
    const double rank = q * double(count);
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < kHistogramBuckets; ++b) {
        if (!buckets[b])
            continue;
        const std::uint64_t before = seen;
        seen += buckets[b];
        if (double(seen) >= rank) {
            const double lo = double(bucketLower(b));
            if (b + 1 == kHistogramBuckets)
                return lo;
            const double hi = double(bucketUpper(b));
            const double frac =
                (rank - double(before)) / double(buckets[b]);
            return lo + frac * (hi - lo);
        }
    }
    return double(bucketLower(kHistogramBuckets - 1));
}

void
HistogramStats::merge(const HistogramStats &other)
{
    for (unsigned b = 0; b < kHistogramBuckets; ++b)
        buckets[b] += other.buckets[b];
    count += other.count;
    sum += other.sum;
}

// ---------------------------------------------------------------------
// MetricsSnapshot

bool
MetricsSnapshot::empty() const
{
    return counters.empty() && gauges.empty() && histograms.empty();
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges)
        gauges[name] = v;
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);
}

MetricsSnapshot
MetricsSnapshot::since(const MetricsSnapshot &before) const
{
    MetricsSnapshot d;
    for (const auto &[name, v] : counters) {
        const auto it = before.counters.find(name);
        const std::uint64_t was =
            it == before.counters.end() ? 0 : it->second;
        if (v != was)
            d.counters[name] = v - was;
    }
    for (const auto &[name, v] : gauges) {
        const auto it = before.gauges.find(name);
        if (it == before.gauges.end() || it->second != v)
            d.gauges[name] = v;
    }
    for (const auto &[name, h] : histograms) {
        const auto it = before.histograms.find(name);
        const HistogramStats was =
            it == before.histograms.end() ? HistogramStats{} : it->second;
        if (h.count == was.count)
            continue;
        HistogramStats &diff = d.histograms[name];
        for (unsigned b = 0; b < kHistogramBuckets; ++b)
            diff.buckets[b] = h.buckets[b] - was.buckets[b];
        diff.count = h.count - was.count;
        diff.sum = h.sum - was.sum;
    }
    return d;
}

std::string
MetricsSnapshot::str() const
{
    std::ostringstream os;
    char line[160];
    if (!counters.empty()) {
        os << "counters:\n";
        for (const auto &[name, v] : counters) {
            std::snprintf(line, sizeof(line), "  %-28s %12llu\n",
                          name.c_str(), (unsigned long long)v);
            os << line;
        }
    }
    if (!gauges.empty()) {
        os << "gauges:\n";
        for (const auto &[name, v] : gauges) {
            std::snprintf(line, sizeof(line), "  %-28s %12lld\n",
                          name.c_str(), (long long)v);
            os << line;
        }
    }
    if (!histograms.empty()) {
        std::snprintf(line, sizeof(line),
                      "histograms:  %-17s %10s %12s %10s %10s %10s\n",
                      "", "count", "mean", "p50", "p90", "p99");
        os << line;
        for (const auto &[name, h] : histograms) {
            std::snprintf(line, sizeof(line),
                          "  %-28s %10llu %12.1f %10.1f %10.1f %10.1f\n",
                          name.c_str(), (unsigned long long)h.count,
                          h.mean(), h.count ? h.percentile(0.5) : 0.0,
                          h.count ? h.percentile(0.9) : 0.0,
                          h.count ? h.percentile(0.99) : 0.0);
            os << line;
        }
    }
    if (empty())
        os << "(no metrics recorded)\n";
    return os.str();
}

std::string
MetricsSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "" : ",") << "\"" << name << "\":" << v;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "" : ",") << "\"" << name << "\":" << v;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[name, h] : histograms) {
        char num[128];
        std::snprintf(num, sizeof(num),
                      "%.3f,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f",
                      h.mean(), h.count ? h.percentile(0.5) : 0.0,
                      h.count ? h.percentile(0.9) : 0.0,
                      h.count ? h.percentile(0.99) : 0.0);
        os << (first ? "" : ",") << "\"" << name
           << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
           << ",\"mean\":" << num << "}";
        first = false;
    }
    os << "}}";
    return os.str();
}

std::string
prettyJson(const std::string &json)
{
    std::string out;
    unsigned depth = 0;
    bool inString = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        const char c = json[i];
        if (inString) {
            out += c;
            if (c == '\\' && i + 1 < json.size())
                out += json[++i];
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"':
            inString = true;
            out += c;
            break;
          case '{':
            ++depth;
            out += "{\n";
            out.append(2 * depth, ' ');
            break;
          case '}':
            depth = depth ? depth - 1 : 0;
            out += '\n';
            out.append(2 * depth, ' ');
            out += '}';
            break;
          case ',':
            out += ",\n";
            out.append(2 * depth, ' ');
            break;
          case ':':
            out += ": ";
            break;
          default:
            out += c;
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Thread shard

namespace
{
thread_local unsigned t_threadId = 0;
} // namespace

unsigned
threadShard()
{
    static_assert((kShards & (kShards - 1)) == 0,
                  "kShards must be a power of two");
    return t_threadId & (kShards - 1);
}

void
setThreadShard(unsigned id)
{
    t_threadId = id;
}

unsigned
threadId()
{
    return t_threadId;
}

// ---------------------------------------------------------------------
// Counter / Histogram merging

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (const Slot &s : shards_)
        total += s.v.load(std::memory_order_relaxed);
    return total;
}

unsigned
Histogram::bucketOf(std::uint64_t value)
{
    if (value == 0)
        return 0;
    const unsigned b = unsigned(std::bit_width(value));
    return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

HistogramStats
Histogram::stats() const
{
    HistogramStats out;
    for (const Shard &s : shards_) {
        for (unsigned b = 0; b < kHistogramBuckets; ++b) {
            const std::uint64_t n =
                s.counts[b].load(std::memory_order_relaxed);
            out.buckets[b] += n;
            out.count += n;
        }
        out.sum += s.sum.load(std::memory_order_relaxed);
    }
    return out;
}

// ---------------------------------------------------------------------
// Registry

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot out;
    for (const auto &[name, c] : counters_)
        out.counters[name] = c->value();
    for (const auto &[name, g] : gauges_)
        out.gauges[name] = g->value();
    for (const auto &[name, h] : histograms_)
        out.histograms[name] = h->stats();
    return out;
}

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

} // namespace mbias::obs
