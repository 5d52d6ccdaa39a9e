/**
 * @file
 * The record/replay tier's contract, held the fast path's strong way:
 * for every workload of the suite, across setups, machine presets,
 * noise seeds, ASLR draws, and truncating budgets, a replayed run must
 * produce a RunResult — cycles AND every performance counter —
 * bitwise identical to executing the same (image, budget, noise)
 * afresh through the reference-selected path.  On top of the
 * differential this file pins the single-recording-many-consumers
 * property (one stream serves every seed, preset, and ASLR draw), the
 * ReplayCache's hit/miss/negative accounting, the precondition
 * fallback (a machine with the tier toggled off), and the
 * MBIAS_SIM_REPLAY=0 escape hatch; a dedicated ctest leg reruns the
 * whole file under that hatch so the fallback path keeps the same
 * bits.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/replay.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;

toolchain::ProcessImage
imageFor(const std::string &workload, const toolchain::LinkOrder &order,
         std::uint64_t env_bytes, std::uint64_t aslr_seed = 0)
{
    const auto &w = workloads::findWorkload(workload);
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto mods = cc.compile(w.build({}));
    toolchain::Linker linker;
    auto prog = std::make_shared<const toolchain::LinkedProgram>(
        linker.link(mods, order));
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    lc.aslrSeed = aslr_seed;
    return toolchain::Loader::load(std::move(prog), lc);
}

/** Whether runRecord/runReplay actually reach the replay tier right
 *  now — false under the MBIAS_SIM_REPLAY=0 ctest leg and the
 *  MBIAS_SIM_REFERENCE=1 run, where both fall back to run() and the
 *  recorded trace stays null.  The differential below holds either
 *  way; only the trace-presence assertions are gated on this. */
bool
replayTierActive()
{
    if (sim::replayDisabledByEnv())
        return false;
    const char *r = std::getenv("MBIAS_SIM_REFERENCE");
    return !(r && *r && !(r[0] == '0' && r[1] == '\0'));
}

/** The ground truth for one (image, budget, noise): the default-tier
 *  run an un-instrumented repetition would have executed. */
sim::RunResult
plainRun(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
         std::uint64_t budget, const sim::NoiseModel &noise)
{
    sim::Machine machine(mc);
    return machine.run(image, budget, noise);
}

/**
 * Records once under seed `seed_base` (= rep 0, exactly as
 * ExperimentRunner::repeatedMetric does), then replays seeds
 * seed_base+1 .. seed_base+extra_seeds, holding every RunResult
 * bitwise identical to the per-rep execution of the same seed.  When
 * the tier is hatched off, runRecord/runReplay must degrade to plain
 * runs with the same bits.
 */
void
expectRecordReplayIdentical(const sim::MachineConfig &mc,
                            const toolchain::ProcessImage &image,
                            const std::string &what,
                            std::uint64_t budget = 500'000'000,
                            std::uint64_t seed_base = 0x9e1ce,
                            unsigned extra_seeds = 3)
{
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto noise0 = sim::NoiseModel::withSeed(seed_base);
    const auto rec = machine.runRecord(image, budget, noise0, &trace);
    EXPECT_EQ(rec, plainRun(mc, image, budget, noise0))
        << what << ": recording run diverged from plain execution";
    if (!replayTierActive()) {
        EXPECT_EQ(trace, nullptr)
            << what << ": hatched-off runRecord must not produce a trace";
        return;
    }
    ASSERT_NE(trace, nullptr) << what << ": recording unexpectedly aborted";
    EXPECT_EQ(trace->icount, rec.instructions());
    for (unsigned s = 1; s <= extra_seeds; ++s) {
        const auto noise = sim::NoiseModel::withSeed(seed_base + s);
        const auto rep = machine.runReplay(image, budget, noise, *trace);
        const auto ref = plainRun(mc, image, budget, noise);
        EXPECT_EQ(rep, ref)
            << what << ": replay diverged under seed " << seed_base + s
            << " (cycles " << rep.cycles() << " vs " << ref.cycles() << ")";
    }
    // Noise-free replay too: replay must degrade to the deterministic
    // run when the noise model is off.
    const auto quiet =
        machine.runReplay(image, budget, sim::NoiseModel::none(), *trace);
    EXPECT_EQ(quiet, plainRun(mc, image, budget, sim::NoiseModel::none()))
        << what << ": noise-free replay diverged";
}

/** A hot kernel with loads/stores/calls so every stream (branch bits,
 *  memory addresses, return targets) is exercised under truncation.
 *  Built once: replay preconditions key on program identity, so the
 *  ASLR test must re-load the SAME program, exactly as
 *  ExperimentRunner::aslrRandomizedMetric does. */
std::shared_ptr<const toolchain::LinkedProgram>
kernelProgram()
{
    using namespace isa;
    ProgramBuilder b("replay_kernel");
    b.func("main");
    b.li(reg::t0, 300);
    b.li(reg::s0, 0);
    b.label("loop");
    b.call("body");
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    b.func("body");
    b.addi(reg::sp, reg::sp, -32);
    b.st8(reg::s1, reg::sp, 0);
    b.st8(reg::s2, reg::sp, 8);
    b.addi(reg::s1, reg::s0, 17);
    b.xori(reg::s2, reg::s1, 0x2a2a);
    b.add(reg::s0, reg::s0, reg::s2);
    b.ld8(reg::s2, reg::sp, 8);
    b.ld8(reg::s1, reg::sp, 0);
    b.addi(reg::sp, reg::sp, 32);
    b.ret();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

toolchain::ProcessImage
kernelImage(const std::shared_ptr<const toolchain::LinkedProgram> &prog,
            std::uint64_t aslr_seed = 0)
{
    toolchain::LoaderConfig lc;
    lc.envBytes = 512;
    lc.aslrSeed = aslr_seed;
    return toolchain::Loader::load(prog, lc);
}

TEST(ReplayDifferential, WholeSuiteAcrossSetupsAndSeeds)
{
    // Every workload of the suite, each in its own setup (yet another
    // env/link-order stride than the fast-path and trace
    // differentials, so the three tests pin three layout families),
    // recorded once and replayed under several noise seeds.
    const auto &suite = workloads::suite();
    ASSERT_GE(suite.size(), 12u);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string name = suite[i]->name();
        const std::uint64_t env = (397 * i * i) % 4096;
        const auto order =
            i % 4 == 2 ? toolchain::LinkOrder::asGiven()
                       : toolchain::LinkOrder::shuffled(0xab1e + i);
        expectRecordReplayIdentical(mc, imageFor(name, order, env),
                                    name + " env=" + std::to_string(env),
                                    500'000'000, 0x9e1ce + 7 * i, 2);
    }
}

TEST(ReplayDifferential, OneRecordingServesEveryPreset)
{
    // The stream is machine-geometry independent: record on ONE
    // machine, replay the same stream on every preset, and each
    // replay must match a fresh per-rep run of that preset.
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::shuffled(29), 1728);
    const std::uint64_t budget = 500'000'000;
    sim::Machine recorder(sim::MachineConfig::core2Like());
    std::shared_ptr<const sim::FunctionalTrace> trace;
    recorder.runRecord(image, budget, sim::NoiseModel::withSeed(11),
                       &trace);
    if (!replayTierActive()) {
        EXPECT_EQ(trace, nullptr);
        return;
    }
    ASSERT_NE(trace, nullptr);
    for (const auto &mc : sim::MachineConfig::allPresets()) {
        sim::Machine machine(mc);
        for (std::uint64_t seed : {3ull, 12ull}) {
            const auto noise = sim::NoiseModel::withSeed(seed);
            EXPECT_EQ(machine.runReplay(image, budget, noise, *trace),
                      plainRun(mc, image, budget, noise))
                << "bzip replay on " << mc.name << " seed " << seed;
        }
    }
}

TEST(ReplayDifferential, AslrRebaseAcrossDraws)
{
    // One recording serves every ASLR draw of the same program: the
    // loader moves only the stack base, and replay rebases recorded
    // stack addresses by the sp delta.  Each rebased replay must match
    // a per-draw run bitwise, noise-free and under noise.
    const std::uint64_t budget = 500'000'000;
    const auto mc = sim::MachineConfig::core2Like();
    sim::Machine machine(mc);
    const auto prog = kernelProgram();
    const auto image0 = kernelImage(prog, 1);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    machine.runRecord(image0, budget, sim::NoiseModel::none(), &trace);
    if (!replayTierActive()) {
        EXPECT_EQ(trace, nullptr);
        return;
    }
    ASSERT_NE(trace, nullptr);
    bool sp_moved = false;
    for (std::uint64_t draw = 2; draw <= 6; ++draw) {
        const auto image = kernelImage(prog, draw);
        sp_moved |= image.initialSp != image0.initialSp;
        ASSERT_TRUE(trace->matches(image, budget))
            << "ASLR must not disturb the replay key";
        EXPECT_EQ(machine.runReplay(image, budget, sim::NoiseModel::none(),
                                    *trace),
                  plainRun(mc, image, budget, sim::NoiseModel::none()))
            << "noise-free replay, ASLR draw " << draw;
        const auto noise = sim::NoiseModel::withSeed(77 + draw);
        EXPECT_EQ(machine.runReplay(image, budget, noise, *trace),
                  plainRun(mc, image, budget, noise))
            << "noisy replay, ASLR draw " << draw;
    }
    // The property is vacuous unless the draws actually moved the
    // stack.
    EXPECT_TRUE(sp_moved);
}

TEST(ReplayDifferential, InstructionBudgetTruncation)
{
    // Budgets landing mid-loop, mid-call, mid-superblock: the recorded
    // stream is cut at the same instruction the per-rep run truncates
    // at, and replaying it reproduces the same partial counters.
    const auto image = kernelImage(kernelProgram());
    const auto mc = sim::MachineConfig::core2Like();
    for (std::uint64_t budget : {1ull, 9ull, 113ull, 1000ull, 2'500ull})
        expectRecordReplayIdentical(mc, image,
                                    "truncated at " +
                                        std::to_string(budget),
                                    budget, 0x7a0b, 2);
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto rec =
        machine.runRecord(image, 100, sim::NoiseModel::none(), &trace);
    EXPECT_FALSE(rec.halted);
    if (replayTierActive()) {
        ASSERT_NE(trace, nullptr);
        EXPECT_FALSE(trace->halted);
        EXPECT_FALSE(machine
                         .runReplay(image, 100, sim::NoiseModel::none(),
                                    *trace)
                         .halted);
    }
}

TEST(ReplayDifferential, PreconditionViolationFallsBack)
{
    // A machine whose replay (or fast-path) toggle is off must not
    // record: runRecord degrades to a plain run with identical bits, a
    // null trace, and untouched tier statistics.
    const auto image =
        imageFor("gcclike", toolchain::LinkOrder::asGiven(), 768);
    const std::uint64_t budget = 500'000'000;
    const auto mc = sim::MachineConfig::core2Like();
    for (const bool fast_off : {false, true}) {
        sim::Machine machine(mc);
        if (fast_off)
            machine.setUseFastPath(false);
        else
            machine.setUseReplayPath(false);
        EXPECT_FALSE(sim::replayTierUsable(machine));
        const auto before = sim::ReplayCache::global().stats();
        std::shared_ptr<const sim::FunctionalTrace> trace;
        const auto noise = sim::NoiseModel::withSeed(5);
        const auto rec = machine.runRecord(image, budget, noise, &trace);
        EXPECT_EQ(trace, nullptr);
        EXPECT_EQ(rec, plainRun(mc, image, budget, noise));
        const auto after = sim::ReplayCache::global().stats();
        EXPECT_EQ(after.records, before.records);
        EXPECT_EQ(after.replays, before.replays);
    }
}

TEST(ReplayDifferential, CacheAccounting)
{
    // The LRU mechanics on a private cache: miss → insert → hit,
    // negative entries report unrecordable, capacity evicts in LRU
    // order, and byte accounting follows the live entries.
    const auto a = imageFor("mcf", toolchain::LinkOrder::asGiven(), 256);
    const auto b = imageFor("mcf", toolchain::LinkOrder::shuffled(3), 256);
    const auto c = imageFor("milc", toolchain::LinkOrder::asGiven(), 256);
    const std::uint64_t budget = 500'000'000;

    sim::ReplayCache cache(2);
    bool unrecordable = false;
    EXPECT_EQ(cache.find(a, budget, &unrecordable), nullptr);
    EXPECT_FALSE(unrecordable);
    EXPECT_EQ(cache.stats().misses, 1u);

    sim::Machine machine(sim::MachineConfig::core2Like());
    std::shared_ptr<const sim::FunctionalTrace> ta;
    machine.runRecord(a, budget, sim::NoiseModel::none(), &ta);
    if (!replayTierActive())
        return; // recording hatched off; nothing to insert
    ASSERT_NE(ta, nullptr);
    cache.insert(a, budget, ta);
    EXPECT_EQ(cache.find(a, budget, &unrecordable), ta);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_GT(cache.stats().bytes, 0u);

    // Same program, different budget: a distinct key.
    EXPECT_EQ(cache.find(a, budget - 1, &unrecordable), nullptr);

    // A negative entry answers "unrecordable" without a trace.
    cache.insert(b, budget, nullptr);
    unrecordable = false;
    EXPECT_EQ(cache.find(b, budget, &unrecordable), nullptr);
    EXPECT_TRUE(unrecordable);

    // Capacity 2 and three keys: inserting c evicts the LRU entry
    // (key a's budget-1 probe missed, so order is b, a from the last
    // touches; a was found most recently... touch b to make a LRU).
    EXPECT_EQ(cache.find(a, budget, &unrecordable), ta);
    unrecordable = false;
    cache.find(b, budget, &unrecordable); // b now MRU, a next
    cache.insert(c, budget, nullptr);     // evicts a
    EXPECT_EQ(cache.stats().evictions, 1u);
    unrecordable = false;
    EXPECT_EQ(cache.find(a, budget, &unrecordable), nullptr);
    EXPECT_FALSE(unrecordable);

    cache.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.find(b, budget, &unrecordable), nullptr);
}

TEST(ReplayDifferential, EnvHatchAndTierReporting)
{
    // replayTierUsable composes the env hatch and the per-machine
    // toggles; the active-tier description advertises the same verdict
    // (the CLI prints it as provenance).  MBIAS_SIM_REFERENCE takes
    // precedence over the replay hatch, so it is unset for the
    // duration of the test.
    const char *oldRef = std::getenv("MBIAS_SIM_REFERENCE");
    const std::string savedRef = oldRef ? oldRef : "";
    ::unsetenv("MBIAS_SIM_REFERENCE");

    sim::Machine machine(sim::MachineConfig::core2Like());
    EXPECT_EQ(sim::replayTierUsable(machine), replayTierActive());
    machine.setUseReplayPath(false);
    EXPECT_FALSE(sim::replayTierUsable(machine));
    machine.setUseReplayPath(true);
    EXPECT_EQ(sim::replayTierUsable(machine), replayTierActive());

    const std::string desc = sim::activeSimTierDescription();
    if (sim::replayDisabledByEnv()) {
        EXPECT_NE(desc.find("MBIAS_SIM_REPLAY=0"), std::string::npos)
            << desc;
    } else if (replayTierActive()) {
        EXPECT_NE(desc.find("+ replay"), std::string::npos) << desc;
    }

    if (oldRef)
        ::setenv("MBIAS_SIM_REFERENCE", savedRef.c_str(), 1);
}

} // namespace
