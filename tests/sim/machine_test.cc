/** @file Functional and timing tests for the Machine. */
#include <gtest/gtest.h>

#include <functional>

#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/registry.hh"
#include "sim/replay.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"

namespace
{

using namespace mbias;
using namespace mbias::isa;
using namespace mbias::isa::reg;
using sim::Counter;
using sim::Machine;
using sim::MachineConfig;
using toolchain::Linker;
using toolchain::Loader;
using toolchain::LoaderConfig;

/** Builds, links, and runs a single-function program. */
sim::RunResult
run(const std::function<void(ProgramBuilder &)> &body,
    MachineConfig config = MachineConfig::core2Like(),
    LoaderConfig lc = {})
{
    ProgramBuilder b("t");
    b.func("main");
    body(b);
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = Linker().link(mods);
    auto image = Loader::load(std::move(prog), lc);
    Machine m(config);
    return m.run(image);
}

TEST(MachineFunctional, ArithmeticBasics)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(t0, 6);
        b.li(t1, 7);
        b.mul(a0, t0, t1);
        b.halt();
    });
    EXPECT_TRUE(rr.halted);
    EXPECT_EQ(rr.result, 42u);
}

TEST(MachineFunctional, ZeroRegisterIsImmutable)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(zero, 99);
        b.addi(a0, zero, 5);
        b.halt();
    });
    EXPECT_EQ(rr.result, 5u);
}

TEST(MachineFunctional, DivisionByZeroRiscvSemantics)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(t0, 17);
        b.li(t1, 0);
        b.divu(a0, t0, t1);
        b.halt();
    });
    EXPECT_EQ(rr.result, ~std::uint64_t(0));

    rr = run([](ProgramBuilder &b) {
        b.li(t0, 17);
        b.li(t1, 0);
        b.remu(a0, t0, t1);
        b.halt();
    });
    EXPECT_EQ(rr.result, 17u);
}

TEST(MachineFunctional, ShiftAndCompare)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(t0, -8);
        b.srai(t1, t0, 1);    // -4
        b.li(t2, 3);
        b.slt(t3, t1, t2);    // -4 < 3 -> 1
        b.sltu(t4, t1, t2);   // huge unsigned < 3 -> 0
        b.slli(t5, t2, 4);    // 48
        b.add(a0, t3, t4);
        b.add(a0, a0, t5);    // 49
        b.halt();
    });
    EXPECT_EQ(rr.result, 49u);
}

TEST(MachineFunctional, LoadStoreRoundTrip)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(t0, 0x11223344aabbccddLL);
        b.st8(t0, sp, -8);
        b.ld4(t1, sp, -8);  // low word, zero-extended
        b.ld1(t2, sp, -5);  // byte 3 = 0x44... little endian: -5 => 0x11?
        b.mv(a0, t1);
        b.halt();
    });
    EXPECT_EQ(rr.result, 0xaabbccddu);
}

TEST(MachineFunctional, StackDisciplineThroughCalls)
{
    ProgramBuilder b("t");
    b.func("main");
    b.li(a0, 5);
    b.call("twice");
    b.call("twice");
    b.halt();
    b.endFunc();
    b.func("twice");
    b.add(a0, a0, a0);
    b.ret();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto image = Loader::load(Linker().link(mods), {});
    Machine m(MachineConfig::core2Like());
    auto rr = m.run(image);
    EXPECT_EQ(rr.result, 20u);
    EXPECT_EQ(rr.counters.get(Counter::Calls), 2u);
}

TEST(MachineFunctional, RecursionComputesFactorial)
{
    ProgramBuilder b("t");
    b.func("main");
    b.li(a0, 5);
    b.call("fact");
    b.halt();
    b.endFunc();
    b.func("fact");
    b.li(t0, 1);
    b.bgeu(t0, a0, "base");   // a0 <= 1
    b.addi(sp, sp, -8);
    b.st8(a0, sp, 0);
    b.addi(a0, a0, -1);
    b.call("fact");
    b.ld8(t1, sp, 0);
    b.addi(sp, sp, 8);
    b.mul(a0, a0, t1);
    b.ret();
    b.label("base");
    b.li(a0, 1);
    b.ret();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto image = Loader::load(Linker().link(mods), {});
    Machine m(MachineConfig::core2Like());
    EXPECT_EQ(m.run(image).result, 120u);
}

TEST(MachineFunctional, GlobalDataVisible)
{
    ProgramBuilder b("t");
    b.globalWords("vals", {11, 22, 33});
    b.func("main");
    b.la(t0, "vals");
    b.ld8(t1, t0, 8);
    b.ld8(t2, t0, 16);
    b.add(a0, t1, t2);
    b.halt();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto image = Loader::load(Linker().link(mods), {});
    Machine m(MachineConfig::core2Like());
    EXPECT_EQ(m.run(image).result, 55u);
}

TEST(MachineFunctional, MaxInstsStopsRunaway)
{
    ProgramBuilder b("t");
    b.func("main");
    b.label("spin");
    b.jmp("spin");
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto image = Loader::load(Linker().link(mods), {});
    Machine m(MachineConfig::core2Like());
    auto rr2 = m.run(image, 1000);
    EXPECT_FALSE(rr2.halted);
    EXPECT_EQ(rr2.instructions(), 1000u);
}

// --------------------------------------------------------------- timing

TEST(MachineTiming, Deterministic)
{
    auto once = run([](ProgramBuilder &b) {
        b.li(t0, 500);
        b.label("loop");
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    });
    auto twice = run([](ProgramBuilder &b) {
        b.li(t0, 500);
        b.label("loop");
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    });
    EXPECT_EQ(once.cycles(), twice.cycles());
    for (auto c : sim::allCounters())
        EXPECT_EQ(once.counters.get(c), twice.counters.get(c));
}

TEST(MachineTiming, CyclesBoundedBelowByWidth)
{
    auto rr = run([](ProgramBuilder &b) {
        for (int i = 0; i < 64; ++i)
            b.addi(t0, t0, 1);
        b.halt();
    });
    const auto width = MachineConfig::core2Like().fetchWidth;
    EXPECT_GE(rr.cycles(), rr.instructions() / width);
}

TEST(MachineTiming, TakenBranchesCostFetchGroups)
{
    auto straight = run([](ProgramBuilder &b) {
        for (int i = 0; i < 40; ++i)
            b.addi(t0, t0, 1);
        b.halt();
    });
    auto loopy = run([](ProgramBuilder &b) {
        b.li(t1, 10);
        b.label("loop");
        b.addi(t0, t0, 1);
        b.addi(t0, t0, 1);
        b.addi(t0, t0, 1);
        b.addi(t1, t1, -1);
        b.bne(t1, zero, "loop");
        b.halt();
    });
    // Comparable instruction counts, but every taken branch restarts
    // an issue group (cold cache misses dominate raw cycles at this
    // size, so compare fetch-group rates, which isolate the front end).
    const double straight_rate =
        double(straight.counters.get(Counter::FetchGroups)) /
        double(straight.instructions());
    const double loopy_rate =
        double(loopy.counters.get(Counter::FetchGroups)) /
        double(loopy.instructions());
    EXPECT_GT(loopy_rate, straight_rate);
}

TEST(MachineTiming, DcacheMissesCharged)
{
    auto rr = run([](ProgramBuilder &b) {
        b.global("arr", 1 << 20, 64); // 1 MiB, exceeds 32 KiB L1
        b.la(t0, "arr");
        b.li(t1, 0);
        b.li(t2, 1 << 14); // touch 16K lines
        b.label("loop");
        b.slli(t3, t1, 6);
        b.add(t3, t0, t3);
        b.ld8(t4, t3, 0);
        b.add(a0, a0, t4);
        b.addi(t1, t1, 1);
        b.bne(t1, t2, "loop");
        b.halt();
    });
    EXPECT_GT(rr.counters.get(Counter::DcacheMisses), 10000u);
    EXPECT_GT(rr.counters.get(Counter::StallCycles), 1000u);
}

TEST(MachineTiming, MispredictsOnDataDependentBranch)
{
    auto rr = run([](ProgramBuilder &b) {
        // Branch on a pseudo-random bit: ~50% mispredicts expected.
        b.li(t0, 400);
        b.li(t1, 12345);
        b.label("loop");
        b.li(t3, 6364136223846793005LL);
        b.mul(t1, t1, t3);
        b.addi(t1, t1, 1442695040888963407LL);
        b.srli(t2, t1, 33);
        b.andi(t2, t2, 1);
        b.beq(t2, zero, "skip");
        b.addi(a0, a0, 1);
        b.label("skip");
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    });
    const auto mp = rr.counters.get(Counter::BranchMispredicts);
    EXPECT_GT(mp, 100u); // the random branch defeats the predictor
}

TEST(MachineTiming, MisalignedStackCausesSplits)
{
    auto body = [](ProgramBuilder &b) {
        b.li(t0, 200);
        b.label("loop");
        b.st8(t0, sp, -8);
        b.st8(t0, sp, -16);
        b.st8(t0, sp, -24);
        b.st8(t0, sp, -32);
        b.st8(t0, sp, -40);
        b.st8(t0, sp, -48);
        b.st8(t0, sp, -56);
        b.st8(t0, sp, -64);
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    };
    LoaderConfig aligned;
    aligned.envBytes = 0; // sp stays 8-aligned
    auto a = run(body, MachineConfig::core2Like(), aligned);
    LoaderConfig misaligned;
    misaligned.envBytes = 4; // sp ends up 4 mod 8
    auto b2 = run(body, MachineConfig::core2Like(), misaligned);
    EXPECT_EQ(a.counters.get(Counter::LineSplits), 0u);
    EXPECT_GT(b2.counters.get(Counter::LineSplits), 100u);
    EXPECT_GT(b2.cycles(), a.cycles());
}

TEST(MachineTiming, AliasStallsOn4KCollision)
{
    auto rr = run([](ProgramBuilder &b) {
        b.global("g", 8192, 4096);
        b.li(t0, 200);
        b.la(t1, "g");
        b.label("loop");
        b.st8(t0, t1, 0);     // store to g
        b.ld8(t2, t1, 4096);  // load 4 KiB away: false alias
        b.add(a0, a0, t2);
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    });
    EXPECT_GT(rr.counters.get(Counter::AliasStalls), 150u);
}

TEST(MachineTiming, CounterConsistency)
{
    auto rr = run([](ProgramBuilder &b) {
        b.li(t0, 100);
        b.label("loop");
        b.st8(t0, sp, -8);
        b.ld8(t1, sp, -8);
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    });
    const auto &c = rr.counters;
    EXPECT_GE(c.get(Counter::BranchesExecuted),
              c.get(Counter::TakenBranches));
    EXPECT_GE(c.get(Counter::BranchesExecuted),
              c.get(Counter::BranchMispredicts));
    EXPECT_GE(c.get(Counter::Cycles), c.get(Counter::FetchGroups));
    EXPECT_EQ(c.get(Counter::Loads), 100u);
    EXPECT_EQ(c.get(Counter::Stores), 100u);
    EXPECT_GE(rr.cycles(), rr.instructions() / 4);
}

TEST(MachineTiming, AblationFlagsRemoveTheirEvents)
{
    auto body = [](ProgramBuilder &b) {
        b.li(t0, 100);
        b.label("loop");
        b.st8(t0, sp, -4); // 4-byte offset: splits at some alignments
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    };
    LoaderConfig lc;
    lc.envBytes = 4;

    auto cfg = MachineConfig::core2Like();
    auto with = run(body, cfg, lc);
    cfg.enableLineSplitPenalty = false;
    auto without = run(body, cfg, lc);
    // Splits still counted, but no longer charged.
    EXPECT_EQ(with.counters.get(Counter::LineSplits),
              without.counters.get(Counter::LineSplits));
    EXPECT_GE(with.cycles(), without.cycles());

    cfg = MachineConfig::core2Like();
    cfg.enableBranchPrediction = false;
    auto perfect = run(body, cfg, lc);
    EXPECT_EQ(perfect.counters.get(Counter::BranchMispredicts), 0u);
}

TEST(MachineTiming, PresetMachinesRankSensibly)
{
    auto body = [](ProgramBuilder &b) {
        b.li(t0, 300);
        b.li(t1, 999);
        b.label("loop");
        b.li(t3, 6364136223846793005LL);
        b.mul(t1, t1, t3);
        b.srli(t2, t1, 40);
        b.andi(t2, t2, 1);
        b.beq(t2, zero, "even");
        b.addi(a0, a0, 3);
        b.label("even");
        b.addi(t0, t0, -1);
        b.bne(t0, zero, "loop");
        b.halt();
    };
    auto core2 = run(body, MachineConfig::core2Like());
    auto p4 = run(body, MachineConfig::p4Like());
    auto o3 = run(body, MachineConfig::o3Like());
    // Same dynamic instruction stream everywhere.
    EXPECT_EQ(core2.instructions(), p4.instructions());
    EXPECT_EQ(core2.instructions(), o3.instructions());
    // The deep-pipeline machine suffers most on mispredict-heavy code;
    // the wide o3 machine does best.
    EXPECT_GT(p4.cycles(), core2.cycles());
    EXPECT_GT(core2.cycles(), o3.cycles());
}

TEST(MachineConfigBound, EveryPresetIsAccepted)
{
    // Every registered backend (the paper presets and the non-paper
    // cores) and the all-defaults config construct, so the bound never
    // reaches a preset.
    for (const auto &backend : sim::MachineRegistry::global().backends())
        Machine m(backend.config);
    Machine m(MachineConfig{});
    SUCCEED();
}

TEST(MachineConfigBound, HostileLatencyIsRefused)
{
    // A lane pass keeps its clocks as int32 offsets; a latency past
    // Machine::kMaxLatency could carry one op past 2^31, so the
    // machine refuses the config and names the field.
    MachineConfig mc = MachineConfig::core2Like();
    mc.l2.missPenalty = Machine::kMaxLatency + 1;
    EXPECT_EXIT(Machine m(mc), ::testing::ExitedWithCode(1),
                "l2.missPenalty = 1048577 cycles exceeds the bound");
    mc = MachineConfig::inorderLike();
    mc.intDivLatency = Cycles(1) << 40;
    EXPECT_EXIT(Machine m(mc), ::testing::ExitedWithCode(1),
                "intDivLatency");
    mc = MachineConfig::core2Like();
    mc.branchMispredictPenalty = Machine::kMaxLatency;
    Machine at_bound(mc); // the bound itself is allowed
}

TEST(MachineConfigBound, HostileStoreBufferIsRefused)
{
    // Every walk's store buffer keeps its slots in one 32-bit bitmap
    // and indexes them by masked address in a table of 2^16 entries, so
    // the machine refuses a larger buffer and names the field.
    MachineConfig mc = MachineConfig::core2Like();
    mc.storeBufferEntries = Machine::kMaxStoreBufferEntries + 1;
    EXPECT_EXIT(Machine m(mc), ::testing::ExitedWithCode(1),
                "storeBufferEntries = 33 exceeds the bound");
    mc = MachineConfig::core2Like();
    mc.aliasWindowBits = Machine::kMaxAliasWindowBits + 1;
    EXPECT_EXIT(Machine m(mc), ::testing::ExitedWithCode(1),
                "aliasWindowBits = 17 exceeds the bound");

    // The bounds themselves construct, and time exactly: each global
    // store 64K-aliases the global load after it, and in lane 1's
    // layout the stack load after that too.
    mc = MachineConfig::core2Like();
    mc.storeBufferEntries = Machine::kMaxStoreBufferEntries;
    mc.aliasWindowBits = Machine::kMaxAliasWindowBits;
    ProgramBuilder b("window");
    b.global("buf", 2 * 65536 + 4096);
    b.func("main");
    b.la(s3, "buf");
    b.li(t0, 60);
    b.label("loop");
    b.addi(sp, sp, -512);
    for (std::int64_t i = 0; i < 40; ++i) {
        b.st8(t0, s3, i * 8);
        b.st8(t0, sp, i * 8);
        b.ld8(t1, s3, 65536 + i * 8);
        b.add(a0, a0, t1);
        b.ld8(t1, sp, i * 8);
        b.add(a0, a0, t1);
    }
    b.addi(sp, sp, 512);
    b.addi(t0, t0, -1);
    b.bne(t0, zero, "loop");
    b.halt();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = std::make_shared<const toolchain::LinkedProgram>(
        Linker().link(mods));
    const Addr buf = prog->globalAddr("buf");
    std::vector<toolchain::ProcessImage> images;
    for (std::uint64_t env = 0; images.size() < 2 && env < 65536; env += 8) {
        LoaderConfig lc;
        lc.envBytes = env;
        auto image = Loader::load(prog, lc);
        // Lane 1's stack slots 64K-alias the global stores.
        const Addr sp = image.initialSp - 512;
        if (images.empty() || ((sp ^ (buf + 65536)) & 0xffff) == 0)
            images.push_back(std::move(image));
    }
    ASSERT_EQ(images.size(), 2u);

    const std::uint64_t budget = Machine::kDefaultRunBudget;
    Machine oracle(mc);
    oracle.setUseFastPath(false);
    std::vector<sim::RunResult> want;
    for (const auto &image : images)
        want.push_back(oracle.run(image, budget));
    EXPECT_GT(want[0].counters.get(Counter::AliasStalls), 0u);
    EXPECT_NE(want[0].counters.get(Counter::AliasStalls),
              want[1].counters.get(Counter::AliasStalls));

    Machine live(mc);
    EXPECT_EQ(live.run(images[0], budget), want[0]);

    Machine m(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    m.runRecord(images[0], budget, sim::NoiseModel::none(), &trace);
    const sim::FunctionalTrace unused; // the hatched-off fallback's
    const std::vector<sim::ReplayLane> lanes = {
        {&images[0], sim::NoiseModel::none()},
        {&images[1], sim::NoiseModel::none()}};
    const auto got = m.runReplayLanes(trace ? *trace : unused, budget, lanes);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[1], want[1]);
}

} // namespace
