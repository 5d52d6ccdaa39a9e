/**
 * @file
 * What a campaign report counts: the process-wide caches and the
 * global registry count for the whole process, and a report books
 * only what they gained during its own run.
 */
#include <gtest/gtest.h>

#include "campaign/engine.hh"
#include "lang/fuzzer.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "sim/replay.hh"
#include "toolchain/artifacts.hh"

namespace
{

using namespace mbias;

campaign::CampaignSpec
aslrSpec()
{
    campaign::CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("sjeng"))
        .withSetups(core::SetupSpace().varyEnvSize().grid(3))
        .withPlan({campaign::RepetitionPlan::Kind::AslrRandomized, 3});
    return spec;
}

std::uint64_t
counter(const obs::MetricsSnapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

TEST(CampaignMetrics, WorkBeforeTheRunIsNotBooked)
{
    // Programs generated before the campaign count in the global
    // registry, not in the campaign's report.
    lang::FuzzConfig cfg;
    cfg.seed = 9;
    for (unsigned i = 0; i < 3; ++i)
        lang::fuzzProgram(cfg, i);
    ASSERT_GE(counter(obs::Registry::global().snapshot(), "fuzz.generate"),
              3u);

    const auto report = campaign::CampaignEngine(aslrSpec()).run();
    for (const auto &[name, v] : report.metrics.counters)
        EXPECT_NE(name.rfind("fuzz.", 0), 0u) << name << " = " << v;
    for (const auto &[name, h] : report.metrics.histograms)
        EXPECT_NE(name.rfind("fuzz.", 0), 0u) << name;
    EXPECT_EQ(counter(report.metrics, "engine.tasks"), 3u);
}

TEST(CampaignMetrics, ASecondRunBooksOnlyItsOwnWork)
{
    const auto artifactsBefore = toolchain::ArtifactCache::global().stats();
    const auto replayBefore = sim::ReplayCache::global().stats();
    const auto first = campaign::CampaignEngine(aslrSpec()).run();
    const auto artifacts = toolchain::ArtifactCache::global().stats();
    const auto replay = sim::ReplayCache::global().stats();
    // The first run's report holds exactly what the caches gained.
    EXPECT_EQ(counter(first.metrics, "artifacts.compile_misses"),
              artifacts.compileMisses - artifactsBefore.compileMisses);
    EXPECT_EQ(counter(first.metrics, "sim.replay.records"),
              replay.records - replayBefore.records);
    EXPECT_EQ(counter(first.metrics, "sim.replay.replays"),
              replay.replays - replayBefore.replays);
    // The runtime hatches that turn the replay tier off leave it idle.
    if (sim::replayTierUsable(sim::Machine(core::ExperimentSpec().machine))) {
        EXPECT_GT(counter(first.metrics, "sim.replay.replays"), 0u);
    }
    EXPECT_EQ(first.metrics.gauges.at("artifacts.bytes"),
              std::int64_t(artifacts.bytes));

    // The same campaign again finds every compile and recording
    // cached, and its report says so rather than repeating the
    // first run's counts.
    const auto second = campaign::CampaignEngine(aslrSpec()).run();
    EXPECT_EQ(second.metrics.counters.at("sim.replay.records"), 0u);
    EXPECT_EQ(second.metrics.counters.at("artifacts.compile_misses"), 0u);
    EXPECT_GT(counter(second.metrics, "artifacts.compile_hits"), 0u);
    EXPECT_EQ(counter(second.metrics, "sim.replay.replays"),
              counter(first.metrics, "sim.replay.replays"));
}

} // namespace
