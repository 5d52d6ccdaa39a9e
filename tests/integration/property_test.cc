/**
 * @file
 * Cross-cutting property tests: invariants that must hold over swept
 * parameter spaces rather than hand-picked cases.
 */
#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "sim/machine.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using toolchain::CompilerVendor;
using toolchain::OptLevel;

// ---------------------------------------------------------------------
// Removing a penalty source never makes a run slower.
// ---------------------------------------------------------------------

struct AblationCase
{
    const char *name;
    void (*apply)(sim::MachineConfig &);
};

class PenaltyMonotonicity
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    static const AblationCase &ablation(int i)
    {
        static const AblationCase cases[] = {
            {"splits",
             [](sim::MachineConfig &m) { m.enableLineSplitPenalty = false; }},
            {"alias",
             [](sim::MachineConfig &m) {
                 m.enableStoreBufferAliasing = false;
             }},
            {"prediction",
             [](sim::MachineConfig &m) { m.enableBranchPrediction = false; }},
            {"btb", [](sim::MachineConfig &m) { m.enableBtb = false; }},
            {"tlbs", [](sim::MachineConfig &m) { m.enableTlbs = false; }},
            {"caches",
             [](sim::MachineConfig &m) { m.enableCaches = false; }},
        };
        return cases[i];
    }
};

TEST_P(PenaltyMonotonicity, DisablingNeverSlowsDown)
{
    const auto [workload, which] = GetParam();
    const auto &ab = ablation(which);

    core::ExperimentSpec spec;
    spec.withWorkload(workload);
    core::ExperimentSetup setup;
    setup.envBytes = 292; // a misaligned-stack pocket

    core::ExperimentRunner base_runner(spec);
    const auto base = base_runner.runSide(spec.baseline, setup);

    core::ExperimentSpec ablated = spec;
    ab.apply(ablated.machine);
    core::ExperimentRunner ablated_runner(ablated);
    const auto fast = ablated_runner.runSide(spec.baseline, setup);

    EXPECT_LE(fast.cycles(), base.cycles()) << ab.name;
    EXPECT_EQ(fast.result, base.result) << ab.name;
    EXPECT_EQ(fast.instructions(), base.instructions()) << ab.name;
}

std::string
penaltyCaseName(
    const ::testing::TestParamInfo<std::tuple<std::string, int>> &info)
{
    static const char *names[] = {"splits", "alias",  "prediction",
                                  "btb",    "tlbs",   "caches"};
    return std::get<0>(info.param) + std::string("_") +
           names[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PenaltyMonotonicity,
    ::testing::Combine(::testing::Values("perl", "hmmer", "gobmk"),
                       ::testing::Range(0, 6)),
    penaltyCaseName);

// ---------------------------------------------------------------------
// Linker layout invariants over many permutations.
// ---------------------------------------------------------------------

class LinkerLayoutProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LinkerLayoutProperty, LayoutIsSane)
{
    const auto &w = workloads::findWorkload("gobmk");
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(CompilerVendor::GccLike, OptLevel::O3);
    const auto objs = cc.compile(w.build(cfg));
    auto prog = toolchain::Linker().link(
        objs, toolchain::LinkOrder::shuffled(GetParam()));

    // Functions are disjoint and sorted by base address.
    for (std::size_t i = 1; i < prog.functions.size(); ++i)
        EXPECT_GE(prog.functions[i].base,
                  prog.functions[i - 1].base + prog.functions[i - 1].bytes);

    // Every control-flow target index is in range, and every branch's
    // resolved target address matches the indexed instruction.
    for (const auto &pi : prog.code) {
        switch (isa::opClass(pi.inst().op)) {
          case isa::OpClass::CondBranch:
          case isa::OpClass::Jump:
          case isa::OpClass::Call:
            ASSERT_LT(pi.target, prog.code.size());
            break;
          default:
            break;
        }
    }

    // The address lookup inverts instruction placement.
    for (std::uint32_t i = 0; i < prog.code.size(); ++i)
        ASSERT_EQ(prog.indexAt(prog.code[i].pc), i);

    // Globals are disjoint and inside the data segment.
    for (std::size_t i = 0; i < prog.globals.size(); ++i) {
        EXPECT_GE(prog.globals[i].addr, prog.dataBase);
        EXPECT_LE(prog.globals[i].addr + prog.globals[i].size(),
                  prog.dataEnd);
        if (i > 0) {
            EXPECT_GE(prog.globals[i].addr,
                      prog.globals[i - 1].addr + prog.globals[i - 1].size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkerLayoutProperty,
                         ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Loader invariants over the env range.
// ---------------------------------------------------------------------

class LoaderProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LoaderProperty, SpDropsMonotonicallyWithEnv)
{
    const auto &w = workloads::findWorkload("perl");
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(CompilerVendor::GccLike, OptLevel::O2);
    const auto objs = cc.compile(w.build(cfg));

    const std::uint64_t env = std::uint64_t(GetParam()) * 97;
    auto imgA = toolchain::Loader::load(
        toolchain::Linker().link(objs), {env, 4});
    auto imgB = toolchain::Loader::load(
        toolchain::Linker().link(objs), {env + 64, 4});
    EXPECT_EQ(imgA.initialSp % 4, 0u);
    EXPECT_GT(imgA.initialSp, imgB.initialSp);
    EXPECT_EQ(imgA.initialSp - imgB.initialSp, 64u);
    // The stack never collides with code/data/heap.
    EXPECT_GT(imgB.initialSp, imgA.heapBase + (1 << 20));
}

INSTANTIATE_TEST_SUITE_P(EnvSteps, LoaderProperty, ::testing::Range(0, 16));

// ---------------------------------------------------------------------
// Correctness holds at O1 and at scale 2 (spot checks beyond the main
// correctness suite's O0/O2/O3 x scale-1 coverage).
// ---------------------------------------------------------------------

TEST(CorrectnessSpotChecks, O1MatchesReference)
{
    for (const char *name : {"perl", "milc", "libquantum"}) {
        const auto &w = workloads::findWorkload(name);
        workloads::WorkloadConfig cfg;
        core::ExperimentSpec spec;
        spec.withWorkload(name);
        spec.baseline = {CompilerVendor::GccLike, OptLevel::O1};
        core::ExperimentRunner runner(spec);
        auto rr = runner.runSide(spec.baseline, core::ExperimentSetup{});
        EXPECT_EQ(rr.result, w.referenceResult(cfg)) << name;
    }
}

TEST(CorrectnessSpotChecks, Scale2MatchesReference)
{
    for (const char *name : {"bzip", "sjeng", "lbm"}) {
        const auto &w = workloads::findWorkload(name);
        core::ExperimentSpec spec;
        spec.withWorkload(name).withScale(2);
        core::ExperimentRunner runner(spec);
        core::ExperimentSetup setup;
        setup.envBytes = 52;
        setup.linkOrder = toolchain::LinkOrder::shuffled(4);
        auto rr = runner.runSide(spec.treatment, setup);
        EXPECT_EQ(rr.result, w.referenceResult(spec.workloadConfig))
            << name;
    }
}

TEST(CorrectnessSpotChecks, AlternateSeedMatchesReference)
{
    for (const char *name : {"perl", "h264", "mcf"}) {
        const auto &w = workloads::findWorkload(name);
        core::ExperimentSpec spec;
        spec.withWorkload(name);
        spec.workloadConfig.seed = 999;
        core::ExperimentRunner runner(spec);
        auto rr = runner.runSide(spec.treatment, core::ExperimentSetup{});
        EXPECT_EQ(rr.result, w.referenceResult(spec.workloadConfig))
            << name;
    }
}

} // namespace
