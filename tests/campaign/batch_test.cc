/**
 * @file
 * Campaign batches: CampaignEngine::runBatch plans each campaign on its
 * own and runs the chunks of all of them in one pool pass.  Only the
 * schedule may change, so every report must equal its campaign run
 * alone, and what the process-wide caches count must be booked once
 * for the batch.
 */
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "obs/metrics.hh"

namespace
{

using namespace mbias;
using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::CampaignSpec;
using Kind = campaign::RepetitionPlan::Kind;

/** Three campaigns of different shapes: a link-order grid of single
 *  runs, a NoisePaired and an AslrRandomized one over env sizes. */
std::vector<CampaignSpec>
batchSpecs()
{
    std::vector<CampaignSpec> specs(3);
    specs[0]
        .withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSetups(core::SetupSpace().varyLinkOrder().grid(8));
    specs[1]
        .withExperiment(core::ExperimentSpec().withWorkload("sjeng"))
        .withSetups(core::SetupSpace().varyEnvSize().grid(3))
        .withPlan({Kind::NoisePaired, 3, 7919})
        .withSeed(5);
    specs[2]
        .withExperiment(core::ExperimentSpec().withWorkload("perl"))
        .withSetups(core::SetupSpace().varyEnvSize().grid(3))
        .withPlan({Kind::AslrRandomized, 3});
    return specs;
}

std::vector<CampaignEngine>
enginesFor(const std::vector<CampaignSpec> &specs, unsigned jobs)
{
    CampaignOptions opts;
    opts.jobs = jobs;
    std::vector<CampaignEngine> engines;
    for (const CampaignSpec &spec : specs)
        engines.emplace_back(spec, opts);
    return engines;
}

std::uint64_t
counter(const CampaignReport &report, const std::string &name)
{
    const auto it = report.metrics.counters.find(name);
    return it == report.metrics.counters.end() ? 0 : it->second;
}

TEST(CampaignBatch, EveryReportEqualsItsCampaignRunAlone)
{
    const auto specs = batchSpecs();
    for (const unsigned jobs : {1u, 3u, 4u}) {
        auto engines = enginesFor(specs, jobs);
        const auto batch = CampaignEngine::runBatch(engines);
        ASSERT_EQ(batch.size(), specs.size());
        for (std::size_t k = 0; k < specs.size(); ++k) {
            const std::string what = "jobs " + std::to_string(jobs) +
                                     ", campaign " + std::to_string(k);
            const CampaignReport solo = engines[k].run();
            const auto &a = batch[k].bias.outcomes;
            const auto &b = solo.bias.outcomes;
            ASSERT_EQ(a.size(), b.size()) << what;
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a[i].setup, b[i].setup) << what << ", task " << i;
                EXPECT_EQ(a[i].baseline, b[i].baseline)
                    << what << ", task " << i;
                EXPECT_EQ(a[i].treatment, b[i].treatment)
                    << what << ", task " << i;
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i].speedup),
                          std::bit_cast<std::uint64_t>(b[i].speedup))
                    << what << ", task " << i;
                EXPECT_EQ(a[i].repBaseline, b[i].repBaseline)
                    << what << ", task " << i;
                EXPECT_EQ(a[i].repTreatment, b[i].repTreatment)
                    << what << ", task " << i;
            }
            // The counters that count work are the campaign's own.
            for (const char *name :
                 {"engine.tasks", "engine.executed", "engine.lanes",
                  "engine.lane_units", "cache.hits", "cache.misses"})
                EXPECT_EQ(counter(batch[k], name), counter(solo, name))
                    << what << ", " << name;
            EXPECT_EQ(batch[k].stats.executed, solo.stats.executed) << what;
        }
    }
}

TEST(CampaignBatch, ProcessWideCountsAreBookedOncePerBatch)
{
    const auto specs = batchSpecs();
    for (const unsigned jobs : {1u, 3u, 4u}) {
        const std::string what = "jobs " + std::to_string(jobs);
        auto engines = enginesFor(specs, jobs);
        const obs::MetricsSnapshot before = campaign::cacheCounts();
        const auto batch = CampaignEngine::runBatch(engines);
        const obs::MetricsSnapshot after = campaign::cacheCounts();

        // Every report carries every cache row, and the rows summed
        // over the batch are the process-wide delta, booked on the
        // first report.
        for (const auto &[name, end] : after.counters) {
            const std::uint64_t delta = end - before.counters.at(name);
            std::uint64_t sum = 0;
            for (const CampaignReport &r : batch) {
                ASSERT_TRUE(r.metrics.counters.count(name))
                    << what << ", " << name;
                sum += r.metrics.counters.at(name);
            }
            EXPECT_EQ(sum, delta) << what << ", " << name;
            EXPECT_EQ(counter(batch[0], name), delta) << what << ", " << name;
        }
        // The pool is the batch's: its one pass ran every campaign's
        // units, booked once.
        std::uint64_t units = 0;
        for (const CampaignReport &r : batch)
            units += counter(r, "engine.lane_units");
        EXPECT_EQ(counter(batch[0], "pool.tasks"), units) << what;
        for (std::size_t k = 1; k < batch.size(); ++k) {
            EXPECT_EQ(counter(batch[k], "pool.tasks"), 0u) << what;
            EXPECT_EQ(batch[k].stats.wallSeconds, batch[0].stats.wallSeconds)
                << what;
        }
    }
}

} // namespace
