/** @file Tests for stack ASLR and per-run layout randomization. */
#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/setup.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;

/** One side's metric over @p reps stack-ASLR draws (seeds base,
 *  base+1, ...): one lane family whose lanes differ only in the draw,
 *  the Stabilizer-style remedy of re-randomizing the layout per run. */
stats::Sample
aslrSample(core::ExperimentRunner &runner,
           const toolchain::ToolchainSpec &tc,
           const core::ExperimentSetup &setup, unsigned reps,
           std::uint64_t aslr_seed_base)
{
    std::vector<core::Lane> lanes(
        reps, {setup.envBytes, 0, sim::NoiseModel::none(), setup.linkOrder});
    for (unsigned r = 0; r < reps; ++r)
        lanes[r].aslrSeed = aslr_seed_base + r;
    stats::Sample out;
    for (const auto &rr : runner.runFamily(tc, false, lanes))
        out.add(runner.metricOf(rr));
    return out;
}

TEST(Aslr, SeedMovesTheStack)
{
    const auto &w = workloads::findWorkload("perl");
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    const auto objs = cc.compile(w.build(cfg));
    auto load = [&](std::uint64_t seed) {
        toolchain::LoaderConfig lc;
        lc.aslrSeed = seed;
        return toolchain::Loader::load(toolchain::Linker().link(objs),
                                       lc);
    };
    const auto base = load(0);
    EXPECT_EQ(base.stackTop, toolchain::LoaderConfig{}.stackTop);
    const auto a = load(1), b = load(2), a2 = load(1);
    EXPECT_LT(a.stackTop, base.stackTop);
    EXPECT_NE(a.initialSp, b.initialSp);
    EXPECT_EQ(a.initialSp, a2.initialSp); // deterministic per seed
    // Offsets stay within the documented ~16 KiB window.
    EXPECT_LE(base.stackTop - a.stackTop, 16384u);
}

TEST(Aslr, ResamplesAlignmentClasses)
{
    // The 4-byte granularity must produce both 8-aligned and
    // 4-misaligned stacks across seeds (else line splits could hide).
    const auto &w = workloads::findWorkload("perl");
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    const auto objs = cc.compile(w.build(cfg));
    bool saw_aligned = false, saw_misaligned = false;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        toolchain::LoaderConfig lc;
        lc.aslrSeed = seed;
        auto img = toolchain::Loader::load(
            toolchain::Linker().link(objs), lc);
        (img.initialSp % 8 == 0 ? saw_aligned : saw_misaligned) = true;
    }
    EXPECT_TRUE(saw_aligned);
    EXPECT_TRUE(saw_misaligned);
}

TEST(Aslr, RandomizedRunsVaryButComputeTheSameResult)
{
    core::ExperimentSpec spec;
    core::ExperimentRunner runner(spec);
    core::ExperimentSetup setup;
    auto sample = aslrSample(runner, spec.baseline, setup, 8, 7);
    EXPECT_EQ(sample.count(), 8u);
    EXPECT_GT(sample.range(), 0.0) << "layouts must differ";
}

TEST(Aslr, RemedyRecoversTruthFromHostileSetup)
{
    core::ExperimentSpec spec; // perl
    core::ExperimentRunner runner(spec);

    // Hostile setup: single-run estimate far from 1.0.
    core::ExperimentSetup hostile;
    hostile.envBytes = 300;
    const double single = runner.run(hostile).speedup;
    ASSERT_LT(single, 0.96);

    auto base = aslrSample(runner, spec.baseline, hostile, 21, 1000);
    auto treat = aslrSample(runner, spec.treatment, hostile, 21, 5000);
    const double randomized = base.mean() / treat.mean();
    EXPECT_NEAR(randomized, 1.0, 0.02)
        << "per-run randomization should de-bias the estimate";
}

} // namespace
