/**
 * @file
 * Lane families across tasks: the engine lowers every task to per-side
 * lanes, groups the lanes of all tasks by (side, link order), and
 * times each family in chunks of at most 24 lanes.  Whatever the
 * grouping, chunking, job count or resume split, every outcome must
 * equal the per-task derivation bit for bit, with the replay tier on
 * or hatched off.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "base/seeding.hh"
#include "campaign/engine.hh"
#include "core/runner.hh"
#include "sim/replay.hh"

namespace
{

using namespace mbias;
using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignReport;
using campaign::CampaignSpec;
using Kind = campaign::RepetitionPlan::Kind;

/** Setups whose families span tasks: the given order, one shuffle
 *  shared by three setups, one-off shuffles, and a repeated setup. */
std::vector<core::ExperimentSetup>
mixedSetups()
{
    std::vector<core::ExperimentSetup> out;
    for (unsigned i = 0; i < 9; ++i) {
        core::ExperimentSetup s;
        s.envBytes = 37 + 411 * i;
        if (i % 3 == 1)
            s.linkOrder = toolchain::LinkOrder::shuffled(5);
        else if (i % 3 == 2)
            s.linkOrder = toolchain::LinkOrder::shuffled(100 + i);
        out.push_back(s);
    }
    out.push_back(out[4]);
    return out;
}

CampaignSpec
specFor(Kind kind, std::uint64_t sp_align = 0)
{
    CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSetups(mixedSetups())
        .withPlan({kind, kind == Kind::Single || kind == Kind::BaselineOnly
                             ? 1u
                             : 3u,
                   7919})
        .withSeed(17)
        .withSpAlign(sp_align);
    return spec;
}

CampaignReport
runCampaign(const CampaignSpec &spec, unsigned jobs,
            const std::string &store = {}, bool resume = false)
{
    CampaignOptions opts;
    opts.jobs = jobs;
    opts.outPath = store;
    opts.resume = resume;
    return CampaignEngine(spec, opts).run();
}

/** Sets MBIAS_SIM_REPLAY=0 for its lifetime, restoring the old value. */
class ReplayHatch
{
  public:
    ReplayHatch()
    {
        if (const char *v = std::getenv("MBIAS_SIM_REPLAY"))
            saved_ = v;
        ::setenv("MBIAS_SIM_REPLAY", "0", 1);
    }
    ~ReplayHatch()
    {
        if (saved_.empty())
            ::unsetenv("MBIAS_SIM_REPLAY");
        else
            ::setenv("MBIAS_SIM_REPLAY", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

void
expectSameOutcomes(const CampaignReport &a, const CampaignReport &b,
                   const std::string &what)
{
    ASSERT_EQ(a.bias.outcomes.size(), b.bias.outcomes.size()) << what;
    for (std::size_t i = 0; i < a.bias.outcomes.size(); ++i) {
        const auto &x = a.bias.outcomes[i];
        const auto &y = b.bias.outcomes[i];
        EXPECT_EQ(x.setup, y.setup) << what << ", task " << i;
        EXPECT_EQ(x.baseline, y.baseline) << what << ", task " << i;
        EXPECT_EQ(x.treatment, y.treatment) << what << ", task " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(x.speedup),
                  std::bit_cast<std::uint64_t>(y.speedup))
            << what << ", task " << i;
        EXPECT_EQ(x.repBaseline, y.repBaseline) << what << ", task " << i;
        EXPECT_EQ(x.repTreatment, y.repTreatment) << what << ", task " << i;
    }
}

/** The outcome each task had when it ran on its own: the runner's
 *  per-task entry points, in the plan's seed derivations. */
void
expectMatchesPerTask(const CampaignSpec &cspec, const CampaignReport &r,
                     const std::string &what)
{
    const auto &spec = cspec.experiment;
    core::ExperimentRunner runner(spec);
    if (cspec.spAlign)
        runner.setSpAlignOverride(cspec.spAlign);
    const auto tasks = cspec.expand();
    ASSERT_EQ(r.bias.outcomes.size(), tasks.size()) << what;
    const auto &plan = cspec.plan;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const auto &t = tasks[i];
        const auto &o = r.bias.outcomes[i];
        const std::string at = what + ", task " + std::to_string(i);
        switch (plan.kind) {
          case Kind::Single: {
              const auto ref = runner.run(t.setup);
              EXPECT_EQ(o.baseline, ref.baseline) << at;
              EXPECT_EQ(o.treatment, ref.treatment) << at;
              EXPECT_EQ(o.speedup, ref.speedup) << at;
              break;
          }
          case Kind::BaselineOnly:
            EXPECT_EQ(o.baseline, runner.runSide(spec.baseline, t.setup))
                << at;
            break;
          case Kind::AslrRandomized: {
              const auto b = runner.aslrRandomizedMetric(
                  spec.baseline, t.setup, plan.reps, mixSeed(t.taskSeed, 0));
              const auto tr = runner.aslrRandomizedMetric(
                  spec.treatment, t.setup, plan.reps, mixSeed(t.taskSeed, 1));
              EXPECT_EQ(o.speedup, b.mean() / tr.mean()) << at;
              break;
          }
          case Kind::NoiseRepeated:
            EXPECT_EQ(o.repBaseline,
                      runner
                          .repeatedMetric(spec.baseline, t.setup, plan.reps,
                                          t.taskSeed, plan.noiseTemplate)
                          .values())
                << at;
            break;
          case Kind::NoisePaired: {
              const auto b =
                  runner.repeatedMetric(spec.baseline, t.setup, plan.reps,
                                        t.taskSeed, plan.noiseTemplate);
              const auto tr = runner.repeatedMetric(
                  spec.treatment, t.setup, plan.reps,
                  t.taskSeed + plan.treatSeedOffset, plan.noiseTemplate);
              EXPECT_EQ(o.repBaseline, b.values()) << at;
              EXPECT_EQ(o.repTreatment, tr.values()) << at;
              EXPECT_EQ(o.speedup, b.mean() / tr.mean()) << at;
              break;
          }
        }
    }
}

TEST(LaneFamilies, EveryPlanKindIsBitIdenticalAcrossJobsAndHatch)
{
    for (const Kind kind :
         {Kind::Single, Kind::AslrRandomized, Kind::BaselineOnly,
          Kind::NoiseRepeated, Kind::NoisePaired}) {
        for (const std::uint64_t align : {0u, 64u}) {
            const auto spec = specFor(kind, align);
            const std::string what = "plan " + std::to_string(int(kind)) +
                                     " spAlign " + std::to_string(align);
            const auto serial = runCampaign(spec, 1);
            expectMatchesPerTask(spec, serial, what);
            for (const unsigned jobs : {4u, 7u})
                expectSameOutcomes(serial, runCampaign(spec, jobs),
                                   what + " at --jobs " +
                                       std::to_string(jobs));
            ReplayHatch hatch;
            expectSameOutcomes(serial, runCampaign(spec, 4),
                               what + " under MBIAS_SIM_REPLAY=0");
        }
    }
}

TEST(LaneFamilies, StoreResumeSplitKeepsOutcomes)
{
    // The persistable kinds, killed after half their records and
    // resumed on another job count: resumed and executed tasks must
    // both carry the uninterrupted run's numbers.
    for (const Kind kind : {Kind::Single, Kind::AslrRandomized}) {
        const auto spec = specFor(kind);
        const std::string path = testing::TempDir() + "/mbias_lanes_" +
                                 std::to_string(int(kind)) + ".jsonl";
        std::filesystem::remove(path);
        const auto full = runCampaign(spec, 4, path);
        const std::size_t distinct = full.stats.executed;
        // The repeated setup is one content address only when the plan
        // draws nothing from the task seed.
        ASSERT_EQ(distinct,
                  spec.taskCount() - (spec.plan.consumesSeed() ? 0 : 1));

        std::vector<std::string> lines;
        {
            std::ifstream in(path);
            for (std::string line; std::getline(in, line);)
                lines.push_back(line);
        }
        const std::size_t kept = distinct / 2;
        {
            std::ofstream out(path, std::ios::trunc);
            for (std::size_t i = 0; i <= kept; ++i) // header + records
                out << lines[i] << "\n";
        }
        const auto resumed = runCampaign(spec, 7, path, true);
        EXPECT_EQ(resumed.stats.executed, distinct - kept);
        ASSERT_EQ(resumed.bias.outcomes.size(), full.bias.outcomes.size());
        for (std::size_t i = 0; i < full.bias.outcomes.size(); ++i) {
            const auto &a = full.bias.outcomes[i];
            const auto &b = resumed.bias.outcomes[i];
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.speedup),
                      std::bit_cast<std::uint64_t>(b.speedup))
                << "plan " << int(kind) << ", task " << i;
            EXPECT_EQ(a.baseline.cycles(), b.baseline.cycles());
            EXPECT_EQ(a.treatment.result, b.treatment.result);
        }
        std::filesystem::remove(path);
    }
}

TEST(LaneFamilies, ChunksStayWithinTheCap)
{
    // One family of 6 x 10 = 60 lanes (every setup in the given
    // order), chunked near-equally at min(24, ceil(60 / jobs)) lanes:
    // 3 chunks serially, 4 at --jobs 4, 7 at --jobs 7.  With the tier
    // on, each chunk is one lane pass, and every lane is recorded or
    // replayed exactly once.
    CampaignSpec spec;
    spec.withExperiment(core::ExperimentSpec().withWorkload("milc"))
        .withSetups(core::SetupSpace().varyEnvSize().grid(6))
        .withPlan({Kind::NoiseRepeated, 10})
        .withSeed(3);
    for (const auto &[jobs, units] :
         {std::pair{1u, 3u}, std::pair{4u, 4u}, std::pair{7u, 7u}}) {
        const auto r = runCampaign(spec, jobs);
        const auto &c = r.metrics.counters;
        EXPECT_EQ(c.at("engine.lanes"), 60u) << "--jobs " << jobs;
        EXPECT_EQ(c.at("engine.lane_units"), units) << "--jobs " << jobs;
        if (!sim::replayTierUsable(
                sim::Machine(core::ExperimentSpec().machine)))
            continue;
        EXPECT_EQ(c.at("sim.replay.lane_passes"), units);
        EXPECT_EQ(c.at("sim.replay.replays") + c.at("sim.replay.records"),
                  60u);
    }
}

} // namespace
