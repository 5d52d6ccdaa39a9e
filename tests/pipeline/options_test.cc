/**
 * @file
 * The shared pipeline flag parser: one grammar for the mbias CLI and
 * the throughput microbenches.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pipeline/options.hh"

namespace
{

using namespace mbias;

pipeline::ParsedArgs
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return pipeline::parsePipelineArgs(int(argv.size()), argv.data());
}

TEST(PipelineOptions, Defaults)
{
    const auto p = parse({});
    EXPECT_EQ(p.options.jobs, 1u);
    EXPECT_FALSE(p.options.seed.has_value());
    EXPECT_FALSE(p.options.resamples.has_value());
    EXPECT_FALSE(p.options.confidence.has_value());
    EXPECT_TRUE(p.options.tracePath.empty());
    EXPECT_FALSE(p.options.quiet);
    EXPECT_FALSE(p.options.verbose);
    EXPECT_TRUE(p.rest.empty());
}

TEST(PipelineOptions, EveryFlag)
{
    const auto p = parse({"--jobs", "8", "--seed", "7", "--resamples",
                          "250", "--confidence", "0.99", "--trace",
                          "t.json", "--quiet"});
    EXPECT_EQ(p.options.jobs, 8u);
    EXPECT_EQ(p.options.seedOr(42), 7u);
    EXPECT_EQ(p.options.resamplesOr(0), 250);
    EXPECT_DOUBLE_EQ(p.options.confidenceOr(), 0.99);
    EXPECT_EQ(p.options.tracePath, "t.json");
    EXPECT_TRUE(p.options.quiet);
    EXPECT_TRUE(p.rest.empty());
}

TEST(PipelineOptions, EntryPointDefaultsFillUnsetFlags)
{
    // The per-entry-point historical defaults: `mbias analyze` uses
    // resamplesOr(1000), figures resamplesOr(0); both read the same
    // parsed flags.
    const auto p = parse({"--jobs", "2"});
    EXPECT_EQ(p.options.resamplesOr(1000), 1000);
    EXPECT_EQ(p.options.resamplesOr(0), 0);
    EXPECT_EQ(p.options.seedOr(42), 42u);
    EXPECT_DOUBLE_EQ(p.options.confidenceOr(0.95), 0.95);
}

TEST(PipelineOptions, NonPipelineArgsPassThroughInOrder)
{
    const auto p = parse({"campaign", "--workload", "milc", "--jobs",
                          "4", "--setups", "64"});
    EXPECT_EQ(p.options.jobs, 4u);
    const std::vector<std::string> want = {"campaign", "--workload",
                                           "milc", "--setups", "64"};
    EXPECT_EQ(p.rest, want);
}

TEST(PipelineOptions, ValueFlagWithoutValueIsFatal)
{
    // A bare value flag must not run the default it was meant to
    // override: at the end of the line, or followed by another flag.
    EXPECT_EXIT(parse({"--jobs"}), ::testing::ExitedWithCode(1),
                "missing value for --jobs");
    EXPECT_EXIT(parse({"--jobs", "--quiet"}), ::testing::ExitedWithCode(1),
                "missing value for --jobs");
    for (const char *flag :
         {"--seed", "--resamples", "--confidence", "--trace"})
        EXPECT_EXIT(parse({flag, "--verbose"}), ::testing::ExitedWithCode(1),
                    std::string("missing value for ") + flag);
}

TEST(PipelineOptions, NegativeJobsAreFatal)
{
    // strtoull wraps "-1" to 2^64 - 1, which as a worker count asks
    // the campaign engine for 4294967295 runners.
    EXPECT_EXIT(parse({"--jobs", "-1"}), ::testing::ExitedWithCode(1),
                "bad value for --jobs: '-1'");
    EXPECT_EXIT(parse({"--seed", "-3"}), ::testing::ExitedWithCode(1),
                "bad value for --seed");
    EXPECT_EXIT(parse({"--jobs", " 2"}), ::testing::ExitedWithCode(1),
                "bad value for --jobs");
}

TEST(PipelineOptions, OutOfRangeCountsAreFatal)
{
    // Past INT_MAX, --resamples would wrap negative in the int cast.
    EXPECT_EXIT(parse({"--resamples", "3000000000"}),
                ::testing::ExitedWithCode(1), "bad value for --resamples");
    EXPECT_EXIT(parse({"--jobs", "4294967296"}),
                ::testing::ExitedWithCode(1), "bad value for --jobs");
    EXPECT_EXIT(parse({"--seed", "18446744073709551616"}),
                ::testing::ExitedWithCode(1), "bad value for --seed");
    EXPECT_EQ(parse({"--resamples", "2147483647"}).options.resamplesOr(0),
              2147483647);
}

TEST(PipelineOptions, NanConfidenceIsFatal)
{
    // NaN fails every comparison, so a range check written as two
    // rejections lets it through to a panic in the CI code.
    EXPECT_EXIT(parse({"--confidence", "nan"}),
                ::testing::ExitedWithCode(1),
                "--confidence must be in \\(0, 1\\)");
    EXPECT_EXIT(parse({"--confidence", "1"}), ::testing::ExitedWithCode(1),
                "--confidence must be in");
}

} // namespace
