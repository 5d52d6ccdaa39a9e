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
    std::string out = "{";
    out.append(body, comma + 1);
    out += ',';
    out.append(body, 0, comma);
    out += '}';
    return out;
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
    std::string missing = "{";
    missing.append(line, comma + 1); // drops the first field
    EXPECT_FALSE(TaskRecord::fromJson(missing, back));
    // A second copy of a field fails the record: no reader can tell
    // which copy was meant.
    std::string duplicated = line;
    duplicated.insert(duplicated.size() - 1, ",\"env\":52");
    EXPECT_FALSE(TaskRecord::fromJson(duplicated, back));
    // Unknown fields are skipped, not fatal (forward compatibility).
    std::string extended = line;
    extended.insert(extended.size() - 1, ",\"future_field\":123");
    EXPECT_TRUE(TaskRecord::fromJson(extended, back));
    EXPECT_EQ(back.key, rec.key);
    extended.insert(extended.size() - 1, ",\"future_field\":124");
    EXPECT_FALSE(TaskRecord::fromJson(extended, back));
}

// Every integer field has its own maximum, and a value past it fails
// the record instead of wrapping; a link kind must be one a store can
// rebuild (Explicit, 3, has no stable address).
TEST(TaskRecord, RejectsValuesThatDoNotFitTheirField)
{
    core::RunOutcome o;
    o.speedup = 2.0;
    const std::string line =
        TaskRecord::make("0123456789abcdef", task(52), o, 2.0, 1.0)
            .toJson();
    const auto with = [&](const std::string &field, const std::string &v) {
        const std::string key = "\"" + field + "\":";
        const auto at = line.find(key) + key.size();
        const auto end = line.find_first_of(",}", at);
        return line.substr(0, at) + v + line.substr(end);
    };
    TaskRecord back;
    EXPECT_TRUE(TaskRecord::fromJson(with("link_kind", "2"), back));
    EXPECT_EQ(back.linkKind, 2);
    EXPECT_TRUE(TaskRecord::fromJson(with("reps", "4294967295"), back));
    EXPECT_EQ(back.reps, 4294967295u);
    for (const auto &[field, v] :
         std::vector<std::pair<std::string, std::string>>{
             {"link_kind", "3"},
             {"link_kind", "7"},
             {"reps", "4294967297"},
             {"plan", "2147483648"},
             {"env", "18446744073709551616"},
             {"task", "-1"},
             {"task", "\"5\""},
             {"speedup", "\"123456789abcdef01\""},
             {"speedup", "4611686018427387904"},
             {"key", "\"0123456789abcde\""}})
        EXPECT_FALSE(TaskRecord::fromJson(with(field, v), back))
            << field << " = " << v;
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

/** A hostile rewrite of a finished store: its lines (header, records,
 *  trailer, no newlines) in, the bytes of the damaged file out. */
struct HostileStore
{
    const char *name;
    std::size_t records; ///< lines every reader must count as records
    std::size_t torn;    ///< lines every reader must count as torn
    std::size_t kept;    ///< torn lines a resume leaves (mid-file ones)
    std::string (*damage)(const std::vector<std::string> &lines);
};

std::string
joined(const std::vector<std::string> &lines, std::size_t from,
       std::size_t to)
{
    std::string out;
    for (std::size_t i = from; i < to; ++i)
        out += lines[i] + "\n";
    return out;
}

std::string
half(const std::string &line)
{
    return line.substr(0, line.size() / 2);
}

/** The store with its third record's @p from rewritten to @p to. */
std::string
rewritten(const std::vector<std::string> &lines, const std::string &from,
          const std::string &to)
{
    std::string line = lines[3];
    const auto at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        line.replace(at, from.size(), to);
    return joined(lines, 0, 3) + line + "\n" +
           joined(lines, 4, lines.size());
}

// Every reader of a store applies one rule: a line counts only if it
// ends in a newline and parses, and anything else is exactly one torn
// line.  A resume after any damage leaves every task in the file once.
TEST(StoreScan, ReadersAgreeOnHostileStores)
{
    constexpr std::size_t tasks = 6;
    CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSetups(core::SetupSpace().varyEnvSize().grid(tasks));
    const std::string clean =
        testing::TempDir() + "/mbias_hostile_clean.jsonl";
    const std::string path = testing::TempDir() + "/mbias_hostile.jsonl";
    std::filesystem::remove(clean);
    campaign::CampaignOptions opts;
    opts.outPath = clean;
    campaign::CampaignEngine(spec, opts).run();

    std::vector<std::string> lines; // header, records, trailer
    {
        std::ifstream in(clean);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), tasks + 2);

    const std::vector<HostileStore> cases = {
        {"clean", tasks, 0, 0,
         [](const auto &l) { return joined(l, 0, l.size()); }},
        {"unterminated final record", tasks - 1, 1, 0,
         [](const auto &l) {
             return joined(l, 0, l.size() - 2) + l[l.size() - 2];
         }},
        {"record cut mid-field", tasks - 1, 1, 0,
         [](const auto &l) {
             return joined(l, 0, l.size() - 2) + half(l[l.size() - 2]);
         }},
        {"cut header", 0, 1, 0, [](const auto &l) { return half(l[0]); }},
        {"cut trailer", tasks, 1, 0,
         [](const auto &l) {
             return joined(l, 0, l.size() - 1) + half(l.back());
         }},
        {"garbage line", tasks, 1, 1,
         [](const auto &l) {
             return joined(l, 0, 3) + "garbage\n" + joined(l, 3, l.size());
         }},
        {"empty line", tasks, 1, 1,
         [](const auto &l) {
             return joined(l, 0, 3) + "\n" + joined(l, 3, l.size());
         }},
        // Records that parse as JSON but cannot be served: each is one
        // torn line, and the resume reruns its task.
        {"unknown link kind", tasks - 1, 1, 1,
         [](const auto &l) {
             return rewritten(l, "\"link_kind\":0", "\"link_kind\":7");
         }},
        {"explicit link kind", tasks - 1, 1, 1,
         [](const auto &l) {
             return rewritten(l, "\"link_kind\":0", "\"link_kind\":3");
         }},
        {"reps past 2^32", tasks - 1, 1, 1,
         [](const auto &l) {
             return rewritten(l, "\"reps\":1,", "\"reps\":4294967297,");
         }},
        {"duplicate field", tasks - 1, 1, 1,
         [](const auto &l) {
             return rewritten(l, "\"env\":", "\"env\":0,\"env\":");
         }},
    };
    for (const HostileStore &c : cases) {
        SCOPED_TRACE(c.name);
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out << c.damage(lines);
        }

        campaign::ResultStore store(path);
        EXPECT_EQ(store.load(), c.records);
        EXPECT_EQ(store.tornLines(), c.torn);
        const auto summary = campaign::summarizeStore(path);
        EXPECT_EQ(summary.records, c.records);
        EXPECT_EQ(summary.tornLines, c.torn);
        const auto cols = campaign::readStoreColumns(path);
        EXPECT_EQ(cols.rows(), c.records);
        EXPECT_EQ(cols.tornLines, c.torn);

        opts.outPath = path;
        opts.resume = true;
        const auto resumed = campaign::CampaignEngine(spec, opts).run();
        EXPECT_EQ(resumed.stats.resumedFromStore, c.records);
        EXPECT_EQ(resumed.stats.executed, tasks - c.records);

        // Every task is in the file exactly once, under a header.
        std::vector<unsigned> seen(tasks, 0);
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);) {
            TaskRecord rec;
            if (TaskRecord::fromJson(line, rec)) {
                ASSERT_LT(rec.taskIndex, tasks);
                ++seen[rec.taskIndex];
            }
        }
        EXPECT_EQ(seen, std::vector<unsigned>(tasks, 1u));
        const auto after = campaign::summarizeStore(path);
        EXPECT_EQ(after.records, tasks);
        EXPECT_FALSE(after.provenanceJson.empty());
        // Only a damaged line with its newline intact stays behind.
        EXPECT_EQ(after.tornLines, c.kept);
        EXPECT_EQ(campaign::CampaignEngine(spec, opts).run().stats.executed,
                  0u);
    }
    std::filesystem::remove(clean);
    std::filesystem::remove(path);
}

} // namespace
