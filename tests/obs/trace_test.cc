/**
 * @file
 * Span tracer tests: spans only record while a session is active, the
 * exported document is well-formed Chrome-trace JSON, and nested
 * ScopedSpans produce properly contained slices (child interval inside
 * the parent interval on the same tid) so Perfetto renders them
 * nested.
 */
#include <gtest/gtest.h>

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
        obs::ScopedSpan span("phase", "cat", "{\"task\":3}");
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
          "\"args\":{\"task\":3}"})
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

TEST(ObsTrace, SummarizeCleanFile)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    for (int i = 0; i < 3; ++i) {
        obs::ScopedSpan span("clean", "test");
    }
    tracer.stop();
    const std::string path =
        testing::TempDir() + "/mbias_trace_clean.json";
    ASSERT_TRUE(tracer.writeTo(path));

    const auto s = obs::summarizeTraceFile(path);
    EXPECT_TRUE(s.ok);
    EXPECT_EQ(s.events, 3u);
    EXPECT_EQ(s.bytes, std::filesystem::file_size(path));
    EXPECT_FALSE(s.truncated);
    EXPECT_EQ(s.tornBytes, 0u);
    std::filesystem::remove(path);
}

TEST(ObsTrace, SummarizeTornTailCountsAndReportsOffset)
{
    auto &tracer = obs::Tracer::global();
    tracer.start();
    for (int i = 0; i < 3; ++i) {
        obs::ScopedSpan span("torn", "test");
    }
    tracer.stop();
    const std::string path =
        testing::TempDir() + "/mbias_trace_torn.json";
    ASSERT_TRUE(tracer.writeTo(path));

    // Simulate a process killed mid-write: the document ends
    // "}\n]}\n", so dropping the last 5 bytes tears the final event
    // object open and loses the closing bracket.
    const auto full = std::filesystem::file_size(path);
    ASSERT_GT(full, 5u);
    std::filesystem::resize_file(path, full - 5);

    const auto s = obs::summarizeTraceFile(path);
    EXPECT_TRUE(s.ok) << "header and array are intact";
    EXPECT_TRUE(s.truncated);
    EXPECT_EQ(s.events, 2u) << "the torn third event must not count";
    EXPECT_EQ(s.bytes, full - 5);
    EXPECT_GT(s.tornOffset, 0u);
    EXPECT_EQ(s.tornOffset + s.tornBytes, s.bytes)
        << "offset + torn tail must cover the file exactly";
    std::filesystem::remove(path);
}

TEST(ObsTrace, SummarizeTornHeader)
{
    const std::string path =
        testing::TempDir() + "/mbias_trace_header.json";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEv";
    }
    const auto s = obs::summarizeTraceFile(path);
    EXPECT_FALSE(s.ok);
    EXPECT_TRUE(s.truncated);
    EXPECT_EQ(s.events, 0u);
    EXPECT_EQ(s.tornBytes, s.bytes) << "the whole file is the torn tail";
    std::filesystem::remove(path);
}

TEST(ObsTrace, SummarizeMissingFile)
{
    const auto s =
        obs::summarizeTraceFile("/nonexistent-dir/x/y/trace.json");
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.events, 0u);
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_FALSE(s.truncated);
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
