/**
 * @file
 * Setup-provenance tests: capture sanity, JSON round-trip, the store
 * header surviving resume, torn-line accounting, store summaries, and
 * the determinism contract that task/cache counters are identical
 * across --jobs 1 and --jobs 8.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/store.hh"
#include "obs/provenance.hh"
#include "toolchain/artifacts.hh"

namespace
{

using namespace mbias;
using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignSpec;

CampaignSpec
smallSpec(unsigned tasks = 12)
{
    CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(),
                   tasks)
        .withSeed(7);
    return spec;
}

TEST(Provenance, CaptureSanity)
{
    const auto prov = obs::Provenance::capture(8);
    EXPECT_EQ(prov.jobs, 8u);
    EXPECT_FALSE(prov.hostname.empty());
    EXPECT_FALSE(prov.compiler.empty());
    EXPECT_FALSE(prov.workdir.empty());
    EXPECT_EQ(prov.workdirLen, prov.workdir.size());
    // Any live process has at least PATH in its environment.
    EXPECT_GT(prov.envBlockBytes, 0u);
    EXPECT_GT(prov.pageSize, 0u);
}

TEST(Provenance, JsonRoundTrip)
{
    auto prov = obs::Provenance::capture(3);
    // Exercise escaping: quotes and backslashes in free-form fields.
    prov.compilerFlags = "-O2 \"quoted\" back\\slash";
    prov.cpuModel = "Weird \"CPU\"\n(tm)";
    obs::Provenance back;
    ASSERT_TRUE(obs::Provenance::fromJson(prov.toJson(), back));
    EXPECT_EQ(back, prov);
}

TEST(Provenance, FromJsonRejectsGarbage)
{
    obs::Provenance out;
    EXPECT_FALSE(obs::Provenance::fromJson("", out));
    EXPECT_FALSE(obs::Provenance::fromJson("{}", out));
    EXPECT_FALSE(obs::Provenance::fromJson("not json at all", out));

    // The header's integers take the flags' grammar (parseDecimal), as
    // the task records of the same store do: no sign, no blank, no
    // wrap past the field's width.
    const std::string good = obs::Provenance::capture(2).toJson();
    ASSERT_TRUE(obs::Provenance::fromJson(good, out));
    const auto with = [&](const std::string &field, const std::string &v) {
        const std::string key = "\"" + field + "\":";
        const auto at = good.find(key) + key.size();
        const auto end = good.find_first_of(",}", at);
        return good.substr(0, at) + v + good.substr(end);
    };
    EXPECT_FALSE(obs::Provenance::fromJson(with("jobs", "-1"), out));
    EXPECT_FALSE(obs::Provenance::fromJson(with("jobs", "4294967297"), out));
    EXPECT_FALSE(obs::Provenance::fromJson(with("env_bytes", "-2"), out));
    EXPECT_FALSE(obs::Provenance::fromJson(with("workdir_len", " 1"), out));
    EXPECT_TRUE(obs::Provenance::fromJson(with("jobs", "4294967295"), out));
    EXPECT_EQ(out.jobs, 4294967295u);
}

TEST(ProvenanceStore, HeaderSurvivesResume)
{
    const std::string path =
        testing::TempDir() + "/mbias_prov_store.jsonl";
    std::filesystem::remove(path);

    CampaignOptions opts;
    opts.jobs = 2;
    opts.outPath = path;
    auto first = CampaignEngine(smallSpec(), opts).run();
    EXPECT_EQ(first.provenance.jobs, 2u);
    EXPECT_FALSE(first.provenance.hostname.empty());

    // The header the store carries is the capture of the creating run.
    campaign::ResultStore store(path);
    store.load();
    obs::Provenance fromHeader;
    ASSERT_TRUE(store.headerProvenance(fromHeader));
    EXPECT_EQ(fromHeader, first.provenance);

    // A resumed run keeps the original header (the store records who
    // *created* it), even when resuming with a different job count.
    opts.resume = true;
    opts.jobs = 1;
    auto resumed = CampaignEngine(smallSpec(), opts).run();
    EXPECT_EQ(resumed.stats.executed, 0u);
    campaign::ResultStore store2(path);
    store2.load();
    obs::Provenance afterResume;
    ASSERT_TRUE(store2.headerProvenance(afterResume));
    EXPECT_EQ(afterResume, first.provenance);
    EXPECT_EQ(afterResume.jobs, 2u);
    std::filesystem::remove(path);
}

TEST(ProvenanceStore, TornLinesAreCountedNotSilent)
{
    const std::string path =
        testing::TempDir() + "/mbias_torn_store.jsonl";
    std::filesystem::remove(path);

    CampaignOptions opts;
    opts.jobs = 1;
    opts.outPath = path;
    CampaignEngine(smallSpec(), opts).run();

    // Corrupt the store: a torn (half) record line in the middle and
    // a torn tail, the two shapes a killed writer leaves behind.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 4u);
    {
        std::ofstream out(path, std::ios::trunc);
        for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
            if (i == 2)
                out << lines[i].substr(0, lines[i].size() / 3) << "\n";
            else
                out << lines[i] << "\n";
        }
        out << lines.back().substr(0, lines.back().size() / 2);
    }

    campaign::ResultStore store(path);
    store.load();
    EXPECT_EQ(store.tornLines(), 2u)
        << "one mid-file torn line + one torn tail";

    const auto summary = campaign::summarizeStore(path);
    EXPECT_EQ(summary.tornLines, 2u);
    std::filesystem::remove(path);
}

TEST(ProvenanceStore, SummaryDescribesFinishedStore)
{
    const std::string path =
        testing::TempDir() + "/mbias_summary_store.jsonl";
    std::filesystem::remove(path);

    CampaignOptions opts;
    opts.jobs = 2;
    opts.outPath = path;
    constexpr unsigned tasks = 12;
    CampaignEngine(smallSpec(tasks), opts).run();

    const auto summary = campaign::summarizeStore(path);
    EXPECT_EQ(summary.records, tasks);
    EXPECT_EQ(summary.tornLines, 0u);
    ASSERT_FALSE(summary.provenanceJson.empty());
    obs::Provenance prov;
    EXPECT_TRUE(obs::Provenance::fromJson(summary.provenanceJson, prov));
    ASSERT_FALSE(summary.metricsJson.empty());
    EXPECT_NE(summary.metricsJson.find("engine.tasks"),
              std::string::npos);
    const auto text = summary.str();
    EXPECT_NE(text.find(path), std::string::npos);
    EXPECT_NE(text.find("hostname"), std::string::npos);

    // Missing stores summarize as empty rather than throwing.
    const auto none = campaign::summarizeStore(path + ".does-not-exist");
    EXPECT_EQ(none.records, 0u);
    EXPECT_TRUE(none.provenanceJson.empty());
    std::filesystem::remove(path);
}

TEST(ObsDeterminism, WorkCountersMatchAcrossJobCounts)
{
    // The contract documented in obs/metrics.hh: counters that count
    // *work* are bitwise-identical across --jobs for a fixed spec;
    // schedule-dependent metrics (pool.steals, duration histograms)
    // are exempt.  Run the same campaign serial and with 8 workers
    // and compare the deterministic subset.
    auto runWith = [](unsigned jobs) {
        // The artifact cache is process-global; start each run cold
        // so the compile count below is about *this* campaign.
        toolchain::ArtifactCache::global().clear();
        CampaignOptions opts;
        opts.jobs = jobs;
        opts.outPath.clear(); // no store: pure compute
        return CampaignEngine(smallSpec(24), opts).run();
    };
    const auto serial = runWith(1);
    const auto parallel = runWith(8);

    // (runner.compiles is exempt, like pool.steals: workers racing
    // the same artifact-cache miss may both compile — the first
    // insert wins — so the count can exceed 2 under --jobs 8.)
    const std::vector<std::string> deterministic = {
        "engine.tasks", "engine.executed", "engine.store_hits",
        "cache.hits",   "cache.misses",    "pool.tasks",
    };
    for (const auto &name : deterministic) {
        const auto s = serial.metrics.counters.count(name)
                           ? serial.metrics.counters.at(name)
                           : 0;
        const auto p = parallel.metrics.counters.count(name)
                           ? parallel.metrics.counters.at(name)
                           : 0;
        EXPECT_EQ(s, p) << "counter " << name
                        << " must not depend on --jobs";
    }
    EXPECT_EQ(serial.metrics.counters.at("engine.tasks"), 24u);
    EXPECT_EQ(serial.metrics.counters.at("pool.tasks"), 24u);
    // With a cold artifact cache and one worker, baseline and
    // treatment compile exactly once each, campaign-wide.
    EXPECT_EQ(serial.metrics.counters.at("runner.compiles"), 2u);

    // The report itself is also bitwise-identical (the engine's core
    // determinism guarantee, restated here next to the metrics one).
    ASSERT_EQ(serial.bias.outcomes.size(), parallel.bias.outcomes.size());
    for (std::size_t i = 0; i < serial.bias.outcomes.size(); ++i)
        EXPECT_EQ(serial.bias.outcomes[i].speedup,
                  parallel.bias.outcomes[i].speedup);
}

} // namespace
