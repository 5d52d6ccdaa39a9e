/**
 * @file
 * Span tracer tests: spans only record while a session is active, the
 * exported document is well-formed Chrome-trace JSON, and nested
 * ScopedSpans produce properly contained slices (child interval inside
 * the parent interval on the same tid) so Perfetto renders them
 * nested.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hh"

namespace
{

using namespace mbias;

/** Counts non-overlapping occurrences of @p needle in @p hay. */
std::size_t
countOf(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(ObsTrace, RecordsOnlyWhileActive)
{
    auto &tracer = obs::Tracer::global();
    tracer.stop();
    {
        obs::ScopedSpan dropped("dropped", "test");
    }
    tracer.start();
    EXPECT_EQ(tracer.eventCount(), 0u) << "start() must clear buffer";
    {
        obs::ScopedSpan kept("kept", "test");
    }
    tracer.stop();
    {
        obs::ScopedSpan late("late", "test");
    }
    EXPECT_EQ(tracer.eventCount(), 1u);
    const auto json = tracer.chromeJson();
    EXPECT_NE(json.find("\"kept\""), std::string::npos) << json;
    EXPECT_EQ(json.find("\"dropped\""), std::string::npos) << json;
    EXPECT_EQ(json.find("\"late\""), std::string::npos) << json;
}

TEST(ObsTrace, ChromeJsonShape)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    {
        obs::ScopedSpan span("phase", "cat");
        span.arg("task", 3);
        span.arg("figure", "fig\"3");
    }
    tracer.stop();
    const auto json = tracer.chromeJson();

    // The two required top-level fields of the Chrome trace format.
    EXPECT_EQ(json.find("{\"displayTimeUnit\""), 0u) << json;
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json;
    // Each event is a complete ("ph":"X") slice with the standard keys.
    for (const char *key :
         {"\"name\":\"phase\"", "\"cat\":\"cat\"", "\"ph\":\"X\"",
          "\"pid\":1", "\"tid\":", "\"ts\":", "\"dur\":",
          "\"args\":{\"task\":3,\"figure\":\"fig\\\"3\"}"})
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in " << json;
    // Balanced braces/brackets — cheap well-formedness check without a
    // JSON parser (CI additionally validates with python json.load).
    EXPECT_EQ(countOf(json, "{"), countOf(json, "}"));
    EXPECT_EQ(countOf(json, "["), countOf(json, "]"));
}

TEST(ObsTrace, NestedSpansAreContained)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    {
        obs::ScopedSpan outer("outer", "test");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        {
            obs::ScopedSpan inner("inner", "test");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tracer.stop();
    ASSERT_EQ(tracer.eventCount(), 2u);
    const auto json = tracer.chromeJson();

    // Destruction order emits inner first; pull both intervals out.
    auto field = [&](const char *name, std::size_t from) {
        const auto pos = json.find(name, from);
        EXPECT_NE(pos, std::string::npos) << name;
        return std::stoull(json.substr(pos + std::strlen(name)));
    };
    const auto innerPos = json.find("\"inner\"");
    const auto outerPos = json.find("\"outer\"");
    ASSERT_NE(innerPos, std::string::npos);
    ASSERT_NE(outerPos, std::string::npos);
    const auto innerTs = field("\"ts\":", innerPos);
    const auto innerDur = field("\"dur\":", innerPos);
    const auto outerTs = field("\"ts\":", outerPos);
    const auto outerDur = field("\"dur\":", outerPos);
    EXPECT_GE(innerTs, outerTs);
    EXPECT_LE(innerTs + innerDur, outerTs + outerDur)
        << "inner slice must end within the outer slice";
    EXPECT_GE(innerDur, 1000u) << "2ms sleep inside the inner span";
    EXPECT_GE(outerDur, innerDur + 2000u);
}

TEST(ObsTrace, SubMicrosecondNestingStaysContained)
{
    // Many parent/child pairs far shorter than the microsecond the
    // trace rounds to: some straddle a microsecond edge, where rounding
    // ts and dur apart would end the child 1 us after its parent.
    auto &tracer = obs::Tracer::global();
    tracer.start();
    constexpr std::size_t kPairs = 20000;
    for (std::size_t i = 0; i < kPairs; ++i) {
        obs::ScopedSpan parent("p", "test");
        obs::ScopedSpan child("c", "test");
    }
    tracer.stop();
    ASSERT_EQ(tracer.eventCount(), 2 * kPairs);
    const auto json = tracer.chromeJson();

    // Destruction order emits each child just before its parent.
    std::size_t pos = 0;
    const auto next = [&](const char *key) {
        pos = json.find(key, pos);
        EXPECT_NE(pos, std::string::npos) << key;
        pos += std::strlen(key);
        return std::strtoull(json.c_str() + pos, nullptr, 10);
    };
    std::size_t escaped = 0;
    for (std::size_t i = 0; i < kPairs; ++i) {
        const auto childTs = next("\"ts\":");
        const auto childDur = next("\"dur\":");
        const auto parentTs = next("\"ts\":");
        const auto parentDur = next("\"dur\":");
        escaped += childTs < parentTs ||
                   childTs + childDur > parentTs + parentDur;
    }
    EXPECT_EQ(escaped, 0u) << "children that leave their parent's slice";
}

TEST(ObsTrace, HistogramSampleIsTheEventDuration)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    obs::Histogram hist;
    {
        obs::ScopedSpan span("timed", "test", &hist);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tracer.stop();
    const obs::HistogramStats st = hist.stats();
    ASSERT_EQ(st.count, 1u);
    const auto json = tracer.chromeJson();
    const auto at = json.find("\"timed\"");
    ASSERT_NE(at, std::string::npos) << json;
    const auto dur = json.find("\"dur\":", at);
    ASSERT_NE(dur, std::string::npos) << json;
    EXPECT_EQ(st.sum, std::stoull(json.substr(dur + 6)))
        << "one clock: the sample and the event share one duration";
    EXPECT_GE(st.sum, 1000u) << "2ms sleep inside the span";

    // Untraced, the histogram still gets its sample from the same
    // span, and stop() hands the caller that duration once.
    obs::Histogram untraced;
    {
        obs::ScopedSpan span("untraced", "test", &untraced);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::uint64_t us = span.stop();
        EXPECT_EQ(untraced.stats().sum, us);
        EXPECT_EQ(span.stop(), 0u) << "a span ends once";
    }
    EXPECT_EQ(untraced.stats().count, 1u);
}

TEST(ObsTrace, InactiveSpanBuildsNoArgs)
{
    auto &tracer = obs::Tracer::global();
    tracer.stop();
    obs::Histogram hist;
    {
        obs::ScopedSpan span("quiet", "test", &hist);
        span.arg("insts", 7);
        span.arg("figure", "fig3");
        // A session that opens mid-span does not adopt it.
        tracer.start();
    }
    {
        obs::ScopedSpan cancelled("cancelled", "test", &hist);
        cancelled.cancel();
    }
    tracer.stop();
    EXPECT_EQ(tracer.eventCount(), 0u) << tracer.chromeJson();
    EXPECT_EQ(hist.stats().count, 1u) << "a cancelled span books nothing";
    // Nothing to time and nothing to trace: no clock was read.
    obs::ScopedSpan bare("bare", "test");
    EXPECT_EQ(bare.stop(), 0u);
}

TEST(ObsTrace, ConcurrentSpansAllRecorded)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    constexpr unsigned kThreads = 8;
    constexpr unsigned kSpansPerThread = 50;
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t)
        workers.emplace_back([t] {
            obs::setThreadShard(t + 1);
            for (unsigned i = 0; i < kSpansPerThread; ++i) {
                obs::ScopedSpan span("worker-span", "test");
            }
        });
    for (auto &w : workers)
        w.join();
    tracer.stop();

    EXPECT_EQ(tracer.eventCount(), kThreads * kSpansPerThread);
    const auto json = tracer.chromeJson();
    EXPECT_EQ(countOf(json, "\"worker-span\""), kThreads * kSpansPerThread);
    // Every worker's tid must appear: no thread's spans were lost or
    // misattributed under contention.
    for (unsigned t = 0; t < kThreads; ++t) {
        const std::string tid = "\"tid\":" + std::to_string(t + 1) + ",";
        EXPECT_GE(countOf(json, tid), kSpansPerThread) << tid;
    }
    // The interleaved writes still produce a well-formed document.
    EXPECT_EQ(countOf(json, "{"), countOf(json, "}"));
    EXPECT_EQ(countOf(json, "["), countOf(json, "]"));
}

TEST(ObsTrace, WriteToRoundTrips)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    {
        obs::ScopedSpan span("io", "test");
    }
    tracer.stop();
    const std::string path = testing::TempDir() + "/mbias_trace_test.json";
    ASSERT_TRUE(tracer.writeTo(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), tracer.chromeJson());
    EXPECT_FALSE(tracer.writeTo("/nonexistent-dir/x/y/trace.json"));
    std::filesystem::remove(path);
}

} // namespace
