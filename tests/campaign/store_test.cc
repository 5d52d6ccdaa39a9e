/**
 * @file
 * Content addressing and persistence: task keys hash exactly the
 * inputs that determine an outcome, records survive a JSON round
 * trip bitwise, and the engine runs identical tasks once with exact
 * accounting.
 */
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "campaign/engine.hh"
#include "campaign/store.hh"

namespace
{

using namespace mbias;
using campaign::CampaignSpec;
using campaign::CampaignTask;
using campaign::RepetitionPlan;
using campaign::TaskRecord;
using campaign::taskKey;

CampaignTask
task(std::uint64_t env, std::uint64_t seed = 11,
     RepetitionPlan plan = {})
{
    CampaignTask t;
    t.setup.envBytes = env;
    t.taskSeed = seed;
    t.plan = plan;
    return t;
}

TEST(TaskKey, HashesOutcomeDeterminingInputsOnly)
{
    core::ExperimentSpec exp;
    const auto base = taskKey(exp, task(100));
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base, taskKey(exp, task(100)));

    // Setup factors and experiment knobs split the address...
    EXPECT_NE(base, taskKey(exp, task(101)));
    CampaignTask linked = task(100);
    linked.setup.linkOrder = toolchain::LinkOrder::shuffled(3);
    EXPECT_NE(base, taskKey(exp, linked));
    core::ExperimentSpec other;
    other.withWorkload("mcf");
    EXPECT_NE(base, taskKey(other, task(100)));
    other = core::ExperimentSpec{};
    other.withMachine(sim::MachineConfig::p4Like());
    EXPECT_NE(base, taskKey(other, task(100)));

    // ...but the task seed only matters when the plan consumes it:
    // Single-mode duplicates of one setup share a cached result.
    EXPECT_EQ(base, taskKey(exp, task(100, /*seed=*/999)));
    const RepetitionPlan aslr{RepetitionPlan::Kind::AslrRandomized, 7};
    EXPECT_NE(taskKey(exp, task(100, 11, aslr)),
              taskKey(exp, task(100, 999, aslr)));
    EXPECT_NE(base, taskKey(exp, task(100, 11, aslr)));
}

TEST(TaskRecord, JsonRoundTripIsBitwise)
{
    core::RunOutcome o;
    o.setup.envBytes = 300;
    o.setup.linkOrder = toolchain::LinkOrder::shuffled(17);
    o.baseline.halted = o.treatment.halted = true;
    o.baseline.counters.set(sim::Counter::Cycles, 109798);
    o.baseline.counters.set(sim::Counter::Instructions, 101405);
    o.baseline.result = 5730506297605046414ull;
    o.treatment.counters.set(sim::Counter::Cycles, 117022);
    o.treatment.counters.set(sim::Counter::Instructions, 99847);
    o.treatment.result = 5730506297605046414ull;
    o.speedup = 109798.0 / 117022.0;

    CampaignTask t = task(300);
    t.setup = o.setup;
    t.index = 42;
    const auto rec =
        TaskRecord::make("00deadbeef00f00d", t, o, 109798.0, 117022.0);
    TaskRecord back;
    ASSERT_TRUE(TaskRecord::fromJson(rec.toJson(), back));
    EXPECT_EQ(back.key, rec.key);
    EXPECT_EQ(back.taskIndex, 42u);

    const auto out = back.toOutcome();
    EXPECT_EQ(out.setup, o.setup);
    EXPECT_EQ(out.baseline.cycles(), o.baseline.cycles());
    EXPECT_EQ(out.baseline.instructions(), o.baseline.instructions());
    EXPECT_EQ(out.baseline.result, o.baseline.result);
    EXPECT_EQ(out.treatment.cycles(), o.treatment.cycles());
    EXPECT_TRUE(out.baseline.halted && out.treatment.halted);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.speedup),
              std::bit_cast<std::uint64_t>(o.speedup));
}

TEST(TaskRecord, RejectsTornLines)
{
    core::RunOutcome o;
    o.speedup = 1.25;
    const auto rec = TaskRecord::make("0123456789abcdef", task(0), o,
                                      4.0, 3.2);
    const std::string line = rec.toJson();
    TaskRecord back;
    EXPECT_TRUE(TaskRecord::fromJson(line, back));
    // A run killed mid-append leaves a prefix of the line behind.
    for (std::size_t cut : {line.size() - 1, line.size() / 2,
                            std::size_t(3), std::size_t(0)})
        EXPECT_FALSE(TaskRecord::fromJson(line.substr(0, cut), back))
            << "accepted torn prefix of length " << cut;
    EXPECT_FALSE(TaskRecord::fromJson("not json at all", back));
}

/** Rotates the record's first JSON field to the end of the line (the
 *  store's values never contain commas, so a flat split is safe). */
std::string
rotateFields(const std::string &line)
{
    const std::string body = line.substr(1, line.size() - 2);
    const auto comma = body.find(',');
    return "{" + body.substr(comma + 1) + "," + body.substr(0, comma) +
           "}";
}

// The single-pass parser dispatches on field names as it walks the
// line, so a record written with another field order (a hand-edited
// store, or a future writer) still parses to the same bits.
TEST(TaskRecord, ParserIsFieldOrderTolerant)
{
    core::RunOutcome o;
    o.setup.envBytes = 300;
    o.baseline.halted = o.treatment.halted = true;
    o.speedup = 1.0625;
    CampaignTask t = task(300);
    t.index = 7;
    const auto rec =
        TaskRecord::make("0123456789abcdef", t, o, 4.25, 4.0);
    std::string line = rec.toJson();
    TaskRecord expect;
    ASSERT_TRUE(TaskRecord::fromJson(line, expect));
    // Every rotation keeps all 16 fields; parse must be identical.
    for (int i = 0; i < 16; ++i) {
        line = rotateFields(line);
        TaskRecord back;
        ASSERT_TRUE(TaskRecord::fromJson(line, back)) << line;
        EXPECT_EQ(back.key, expect.key);
        EXPECT_EQ(back.taskIndex, expect.taskIndex);
        EXPECT_EQ(back.envBytes, expect.envBytes);
        EXPECT_EQ(back.speedupBits, expect.speedupBits);
        EXPECT_EQ(back.baseMetricBits, expect.baseMetricBits);
    }
}

TEST(TaskRecord, RejectsMissingAndDuplicateDamage)
{
    core::RunOutcome o;
    o.speedup = 2.0;
    const auto rec = TaskRecord::make("0123456789abcdef", task(52), o,
                                      2.0, 1.0);
    const std::string line = rec.toJson();
    TaskRecord back;
    // Deleting any one field leaves an incomplete record.
    const auto comma = line.find(',');
    const std::string missing =
        "{" + line.substr(comma + 1); // drops the first field
    EXPECT_FALSE(TaskRecord::fromJson(missing, back));
    // Unknown fields are skipped, not fatal (forward compatibility).
    std::string extended = line;
    extended.insert(extended.size() - 1, ",\"future_field\":123");
    EXPECT_TRUE(TaskRecord::fromJson(extended, back));
    EXPECT_EQ(back.key, rec.key);
}

TEST(StoreColumns, DedupsOrdersAndCountsTorn)
{
    const std::string path =
        testing::TempDir() + "/mbias_columns_test.jsonl";
    std::filesystem::remove(path);

    auto record = [](const std::string &key, std::uint64_t index,
                     double speedup) {
        core::RunOutcome o;
        o.baseline.halted = o.treatment.halted = true;
        o.speedup = speedup;
        CampaignTask t = task(index * 100);
        t.index = index;
        return TaskRecord::make(key, t, o, speedup, 1.0);
    };
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"mbias_store\":1,\"provenance\":{\"host\":\"x\"}}\n";
        // Appended out of task order, with one duplicate key (the
        // later record wins, as in ResultStore::load) and one torn
        // line.
        out << record("00000000000000bb", 2, 1.50).toJson() << "\n";
        out << record("00000000000000aa", 1, 1.10).toJson() << "\n";
        out << "{\"key\":\"torn" << "\n";
        out << record("00000000000000bb", 2, 1.75).toJson() << "\n";
        out << record("00000000000000cc", 3, 0.90).toJson() << "\n";
        out << "{\"mbias_metrics\":1,\"counters\":{}}\n";
    }

    const auto cols = campaign::readStoreColumns(path);
    ASSERT_EQ(cols.rows(), 3u);
    EXPECT_EQ(cols.tornLines, 1u);
    EXPECT_EQ(cols.provenanceJson, "{\"host\":\"x\"}");
    // Rows come back in ascending task order regardless of append
    // order, and the duplicate key kept its last speedup.
    EXPECT_EQ(cols.taskIndex, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(cols.speedup, (std::vector<double>{1.10, 1.75, 0.90}));
    EXPECT_EQ(cols.envBytes, (std::vector<std::uint64_t>{100, 200, 300}));
    std::filesystem::remove(path);
}

// Duplicate setups in a campaign share one content address: only the
// first occurrence of each runs the simulator and appends a store
// line, whatever the worker count and however the workers interleave.
TEST(CampaignCache, DuplicateSetupsExecuteOnce)
{
    std::vector<core::ExperimentSetup> setups;
    for (int round = 0; round < 3; ++round)
        for (std::uint64_t env : {0ull, 52ull, 300ull, 1024ull}) {
            core::ExperimentSetup s;
            s.envBytes = env;
            setups.push_back(s);
        }
    CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSetups(setups);
    const std::string path =
        testing::TempDir() + "/mbias_duplicate_setups.jsonl";
    for (unsigned jobs : {1u, 4u, 8u}) {
        for (int rep = 0; rep < 5; ++rep) {
            SCOPED_TRACE("jobs " + std::to_string(jobs) + ", rep " +
                         std::to_string(rep));
            campaign::CampaignOptions opts;
            opts.jobs = jobs;
            opts.outPath = path;
            auto report = campaign::CampaignEngine(spec, opts).run();
            EXPECT_EQ(report.stats.totalTasks, 12u);
            EXPECT_EQ(report.stats.executed, 4u);
            EXPECT_EQ(report.stats.cacheHits, 8u);
            EXPECT_EQ(report.stats.resumedFromStore, 0u);
            EXPECT_EQ(report.metrics.counters.at("cache.hits"), 8u);
            EXPECT_EQ(report.metrics.counters.at("cache.misses"), 4u);

            // One record line per distinct key, between the header
            // and the metrics trailer.
            std::ifstream in(path);
            std::size_t records = 0;
            for (std::string line; std::getline(in, line);)
                records += line.rfind("{\"mbias_", 0) != 0;
            EXPECT_EQ(records, 4u);

            // The duplicates' outcomes are the first occurrences',
            // bit for bit.
            const auto &o = report.bias.outcomes;
            ASSERT_EQ(o.size(), 12u);
            for (std::size_t i = 4; i < o.size(); ++i)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(o[i].speedup),
                          std::bit_cast<std::uint64_t>(o[i % 4].speedup));
        }
    }
    std::filesystem::remove(path);
}

} // namespace
