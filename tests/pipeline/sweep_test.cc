/**
 * @file
 * The figures' canonical setup and seed derivations: each named setup
 * list must be exactly the one its figures have always measured, and
 * pinned seeds must reach the campaign's tasks unchanged.
 */
#include <gtest/gtest.h>

#include "campaign/spec.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "pipeline/setups.hh"

namespace
{

using namespace mbias;

TEST(Sweep, LinkOrderGridIsAsGivenThenShuffled)
{
    const auto setups = core::SetupSpace().varyLinkOrder().grid(4);
    ASSERT_EQ(setups.size(), 4u);
    EXPECT_EQ(setups[0].linkOrder, toolchain::LinkOrder::asGiven());
    for (unsigned s = 1; s < 4; ++s)
        EXPECT_EQ(setups[s].linkOrder, toolchain::LinkOrder::shuffled(s));
    for (const auto &s : setups)
        EXPECT_EQ(s.envBytes, 0u);
}

TEST(Sweep, EnvGridStepsInclusively)
{
    const auto setups = pipeline::envGridSetups(100, 30);
    ASSERT_EQ(setups.size(), 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(setups[i].envBytes, 30u * i);
        EXPECT_EQ(setups[i].linkOrder, toolchain::LinkOrder::asGiven());
    }
    const auto offset = pipeline::envGridSetups(100, 30, 60);
    ASSERT_EQ(offset.size(), 2u);
    EXPECT_EQ(offset[0].envBytes, 60u);
    EXPECT_EQ(offset[1].envBytes, 90u);
}

TEST(Sweep, SequentialSetupsMatchLegacyRandomizer)
{
    const auto space = core::SetupSpace().varyEnvSize().varyLinkOrder();
    const auto ours = pipeline::sequentialSetups(space, 9, 0xa44);
    auto randomizer = core::SetupRandomizer(space, 0xa44);
    const auto theirs = randomizer.sample(9);
    EXPECT_EQ(ours, theirs);
}

TEST(Sweep, SeededSetupsPinTaskSeeds)
{
    core::ExperimentSetup home;
    home.envBytes = 300;
    const auto cspec =
        campaign::CampaignSpec()
            .withExperiment(core::ExperimentSpec{})
            .withSeededSetups({{home, 0xfeed}, {home, 0xfeed + 104729}})
            .withPlan({campaign::RepetitionPlan::Kind::NoisePaired, 15,
                       7919});
    const auto tasks = cspec.expand();
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[0].taskSeed, 0xfeedu);
    EXPECT_EQ(tasks[1].taskSeed, 0xfeedu + 104729u);
    for (const auto &t : tasks) {
        EXPECT_EQ(t.plan.kind,
                  campaign::RepetitionPlan::Kind::NoisePaired);
        EXPECT_EQ(t.plan.reps, 15u);
        EXPECT_EQ(t.plan.treatSeedOffset, 7919u);
    }
}

} // namespace
