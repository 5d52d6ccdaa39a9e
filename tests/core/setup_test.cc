/** @file Tests for ExperimentSpec, SetupSpace, SetupRandomizer and
 *  setup specs. */
#include <gtest/gtest.h>

#include <set>

#include "core/experiment.hh"
#include "core/explain.hh"
#include "core/setup.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

TEST(ExperimentSpec, FluentSettersAndStr)
{
    ExperimentSpec spec;
    spec.withWorkload("bzip")
        .withMachine(sim::MachineConfig::p4Like())
        .withBaseline({toolchain::CompilerVendor::IccLike,
                       toolchain::OptLevel::O1})
        .withTreatment({toolchain::CompilerVendor::IccLike,
                        toolchain::OptLevel::O3})
        .withScale(2);
    EXPECT_EQ(spec.workload, "bzip");
    EXPECT_EQ(spec.machine.name, "p4like");
    EXPECT_EQ(spec.workloadConfig.scale, 2u);
    EXPECT_EQ(spec.str(), "bzip: icc-O1 vs icc-O3 on p4like");
}

TEST(Metric, Names)
{
    EXPECT_EQ(metricName(Metric::Cycles), "cycles");
    EXPECT_EQ(metricName(Metric::Cpi), "cpi");
    EXPECT_EQ(metricName(Metric::Instructions), "instructions");
}

TEST(ExperimentSetup, DefaultIsTheConventionalSetup)
{
    ExperimentSetup s;
    EXPECT_EQ(s.envBytes, 0u);
    EXPECT_EQ(s.linkOrder, toolchain::LinkOrder::asGiven());
    EXPECT_EQ(s.str(), "env=0 link=as-given");
}

TEST(SetupSpace, SampleRespectsEnvRange)
{
    Rng rng(3);
    auto space = SetupSpace().varyEnvSize(100, 200);
    for (int i = 0; i < 200; ++i) {
        auto s = space.sample(rng);
        EXPECT_GE(s.envBytes, 100u);
        EXPECT_LE(s.envBytes, 200u);
        EXPECT_EQ(s.linkOrder, toolchain::LinkOrder::asGiven());
    }
}

TEST(SetupSpace, SampleVariesLinkOnlyWhenAsked)
{
    Rng rng(5);
    auto space = SetupSpace().varyLinkOrder();
    std::set<std::uint64_t> seeds;
    for (int i = 0; i < 20; ++i) {
        auto s = space.sample(rng);
        EXPECT_EQ(s.envBytes, 0u);
        EXPECT_EQ(s.linkOrder.kind(),
                  toolchain::LinkOrder::Kind::Seeded);
        seeds.insert(s.linkOrder.seed());
    }
    EXPECT_GE(seeds.size(), 19u);
}

TEST(SetupSpace, GridSweepsEnvEvenly)
{
    auto grid = SetupSpace().varyEnvSize(0, 4096).grid(5);
    ASSERT_EQ(grid.size(), 5u);
    EXPECT_EQ(grid[0].envBytes, 0u);
    EXPECT_EQ(grid[1].envBytes, 1024u);
    EXPECT_EQ(grid[4].envBytes, 4096u);
}

TEST(SetupSpace, GridWithLinkOrderUsesSeeds)
{
    auto grid = SetupSpace().varyLinkOrder().grid(3);
    ASSERT_EQ(grid.size(), 3u);
    EXPECT_EQ(grid[0].linkOrder, toolchain::LinkOrder::asGiven());
    EXPECT_EQ(grid[1].linkOrder, toolchain::LinkOrder::shuffled(1));
    EXPECT_EQ(grid[2].linkOrder, toolchain::LinkOrder::shuffled(2));
}

TEST(SetupRandomizer, DeterministicFromSeed)
{
    auto space = SetupSpace().varyEnvSize().varyLinkOrder();
    SetupRandomizer a(space, 9), b(space, 9);
    auto sa = a.sample(10), sb = b.sample(10);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i)
        EXPECT_EQ(sa[i], sb[i]);
}

TEST(SetupRandomizer, SuccessiveDrawsDiffer)
{
    auto space = SetupSpace().varyEnvSize();
    SetupRandomizer r(space, 11);
    auto first = r.sample(5);
    auto second = r.sample(5);
    bool any_diff = false;
    for (std::size_t i = 0; i < 5; ++i)
        any_diff |= !(first[i] == second[i]);
    EXPECT_TRUE(any_diff);
}

TEST(SetupSpec, ParsesEnvAndLinkParts)
{
    ExperimentSetup s;
    std::string error;
    ASSERT_TRUE(parseSetupSpec("env=960,link=seed:17", s, error)) << error;
    EXPECT_EQ(s.envBytes, 960u);
    EXPECT_EQ(s.linkOrder, toolchain::LinkOrder::shuffled(17));
    ASSERT_TRUE(parseSetupSpec("env=2097152,link=alpha", s, error));
    EXPECT_EQ(s.envBytes, ExperimentSetup::kMaxEnvBytes);
    EXPECT_EQ(s.linkOrder, toolchain::LinkOrder::alphabetical());
}

TEST(SetupSpec, RejectsHostileNumbers)
{
    // The flags' grammar: digit first, no trailing text, no wrap; env
    // capped like --env.  Each used to parse as a different setup.
    for (const std::string bad :
         {"env=5x", "env=-1", "env=+1", "env= 1", "env=", "env=0x10",
          "env=2097153", "env=18446744073709551616", "link=seed:-3",
          "link=seed:", "link=seed:4z", "link=seed:18446744073709551616"}) {
        ExperimentSetup s;
        std::string error;
        EXPECT_FALSE(parseSetupSpec(bad, s, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

} // namespace
