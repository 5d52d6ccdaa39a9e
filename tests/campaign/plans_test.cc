/**
 * @file
 * The repetition-plan kinds added for the pipeline lowering
 * (BaselineOnly, NoiseRepeated, NoisePaired): each must reproduce the
 * corresponding serial ExperimentRunner derivation bit for bit, at
 * any job count.  A result store cannot hold their outcomes, so an
 * engine given one fails by name instead of running.
 */
#include <gtest/gtest.h>

#include "campaign/engine.hh"
#include "core/runner.hh"
#include "core/setup.hh"

namespace
{

using namespace mbias;
using Kind = campaign::RepetitionPlan::Kind;

campaign::CampaignReport
run(const campaign::CampaignSpec &cspec, unsigned jobs)
{
    campaign::CampaignOptions opts;
    opts.jobs = jobs;
    return campaign::CampaignEngine(cspec, opts).run();
}

TEST(RepetitionPlans, BaselineOnlyMatchesRunSide)
{
    core::ExperimentSpec spec;
    const auto setups = core::SetupSpace().varyEnvSize().grid(6);
    campaign::CampaignSpec cspec;
    cspec.withExperiment(spec)
        .withSetups(setups)
        .withPlan({Kind::BaselineOnly, 1});
    const auto report = run(cspec, 1);

    core::ExperimentRunner runner(spec);
    ASSERT_EQ(report.bias.outcomes.size(), setups.size());
    for (std::size_t i = 0; i < setups.size(); ++i) {
        const auto &o = report.bias.outcomes[i];
        const auto ref = runner.runSide(spec.baseline, setups[i]);
        EXPECT_EQ(o.baseline.cycles(), ref.cycles());
        EXPECT_EQ(o.baseline.instructions(), ref.instructions());
        EXPECT_DOUBLE_EQ(o.speedup, 1.0);
        EXPECT_TRUE(o.treatment.halted);
    }
}

TEST(RepetitionPlans, NoiseRepeatedMatchesRepeatedMetric)
{
    core::ExperimentSpec spec;
    core::ExperimentSetup s;
    s.envBytes = 36;
    campaign::CampaignSpec cspec;
    cspec.withExperiment(spec)
        .withSeededSetups({{s, 1000}, {s, 1010}})
        .withPlan({Kind::NoiseRepeated, 3});
    const auto report = run(cspec, 1);

    core::ExperimentRunner runner(spec);
    ASSERT_EQ(report.bias.outcomes.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const auto ref = runner.repeatedMetric(spec.baseline, s, 3,
                                               1000 + 10 * i);
        EXPECT_EQ(report.bias.outcomes[i].repBaseline, ref.values());
    }
}

TEST(RepetitionPlans, NoisePairedMatchesBothSides)
{
    core::ExperimentSpec spec;
    core::ExperimentSetup s;
    s.envBytes = 300;
    campaign::CampaignSpec cspec;
    cspec.withExperiment(spec)
        .withSeededSetups({{s, 0xfeed}})
        .withPlan({Kind::NoisePaired, 4, 7919});
    const auto report = run(cspec, 1);

    core::ExperimentRunner runner(spec);
    const auto base = runner.repeatedMetric(spec.baseline, s, 4, 0xfeed);
    const auto treat =
        runner.repeatedMetric(spec.treatment, s, 4, 0xfeed + 7919);
    ASSERT_EQ(report.bias.outcomes.size(), 1u);
    const auto &o = report.bias.outcomes[0];
    EXPECT_EQ(o.repBaseline, base.values());
    EXPECT_EQ(o.repTreatment, treat.values());
    EXPECT_DOUBLE_EQ(o.speedup, base.mean() / treat.mean());
}

TEST(RepetitionPlans, ParallelExecutionIsBitIdentical)
{
    core::ExperimentSpec spec;
    std::vector<campaign::SeededSetup> seeded;
    for (unsigned i = 0; i < 8; ++i) {
        core::ExperimentSetup s;
        s.envBytes = 36 + i * 511;
        seeded.push_back({s, 1000 + 10 * i});
    }
    campaign::CampaignSpec cspec;
    cspec.withExperiment(spec)
        .withSeededSetups(seeded)
        .withPlan({Kind::NoisePaired, 3, 7919});
    const auto serial = run(cspec, 1);
    const auto parallel = run(cspec, 8);

    ASSERT_EQ(serial.bias.outcomes.size(), parallel.bias.outcomes.size());
    for (std::size_t i = 0; i < serial.bias.outcomes.size(); ++i) {
        const auto &a = serial.bias.outcomes[i];
        const auto &b = parallel.bias.outcomes[i];
        EXPECT_EQ(a.repBaseline, b.repBaseline);
        EXPECT_EQ(a.repTreatment, b.repTreatment);
        EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    }
}

TEST(RepetitionPlans, SpAlignOverrideMatchesRunnerOverride)
{
    core::ExperimentSpec spec;
    const auto setups = core::SetupSpace().varyEnvSize().grid(5);
    campaign::CampaignSpec cspec;
    cspec.withExperiment(spec)
        .withSetups(setups)
        .withPlan({Kind::BaselineOnly, 1})
        .withSpAlign(64);
    const auto report = run(cspec, 2);

    core::ExperimentRunner runner(spec);
    runner.setSpAlignOverride(64);
    for (std::size_t i = 0; i < setups.size(); ++i) {
        const auto ref = runner.runSide(spec.baseline, setups[i]);
        EXPECT_EQ(report.bias.outcomes[i].baseline.cycles(),
                  ref.cycles());
    }
}

TEST(RepetitionPlans, UnstorablePlansRefuseAStorePath)
{
    // Per-rep samples, a baseline-only RunResult and an sp-alignment
    // override have no place in the store's flat, content-addressed
    // record: handing the engine a store path for one of them is a
    // fatal error that names the plan kind and the reason.
    const auto setups = core::SetupSpace().varyEnvSize().grid(2);
    const auto engine = [&](Kind kind, std::uint64_t sp_align) {
        campaign::CampaignSpec cspec;
        cspec.withExperiment(core::ExperimentSpec())
            .withSetups(setups)
            .withPlan({kind, 3})
            .withSpAlign(sp_align);
        campaign::CampaignOptions opts;
        opts.outPath = "unwritten.jsonl";
        campaign::CampaignEngine e(cspec, opts);
    };
    EXPECT_EXIT(engine(Kind::NoisePaired, 0), ::testing::ExitedWithCode(1),
                "fatal: a NoisePaired campaign cannot persist a result "
                "store to unwritten.jsonl: .*per-rep samples");
    EXPECT_EXIT(engine(Kind::NoiseRepeated, 0),
                ::testing::ExitedWithCode(1),
                "a NoiseRepeated campaign cannot persist");
    EXPECT_EXIT(engine(Kind::BaselineOnly, 0), ::testing::ExitedWithCode(1),
                "a BaselineOnly campaign cannot persist.*baseline RunResult");
    EXPECT_EXIT(engine(Kind::Single, 64), ::testing::ExitedWithCode(1),
                "a Single campaign with sp alignment 64 cannot persist.*sp "
                "alignment");
}

} // namespace
