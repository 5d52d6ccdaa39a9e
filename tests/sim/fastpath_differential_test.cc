/**
 * @file
 * The fast interpreter's contract, held the strong way: for every
 * workload of the suite, across setups (environment sizes, link
 * orders), machine presets, and every ablation switch, the plan-based
 * fast path must produce a RunResult — cycles AND every performance
 * counter — bitwise identical to the reference interpreter's.  Any
 * divergence is a bug in the fast path, never acceptable noise: the
 * whole point of the toolkit is that measurement infrastructure must
 * not perturb measured numbers.  Under every ablation switch the lane
 * pass (Machine::runReplayLanes) is held to the oracle too, on both
 * core models, and tiny cache and DTLB geometries drive every walk
 * through its eviction paths on every backend.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/setup.hh"
#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/registry.hh"
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
         std::uint64_t env_bytes)
{
    const auto &w = workloads::findWorkload(workload);
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto mods = cc.compile(w.build({}));
    toolchain::Linker linker;
    auto prog = linker.link(mods, order);
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    return toolchain::Loader::load(std::move(prog), lc);
}

sim::RunResult
runWith(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
        bool fast, std::uint64_t max_insts = 500'000'000,
        const sim::NoiseModel &noise = sim::NoiseModel::none())
{
    sim::Machine machine(mc);
    machine.setUseFastPath(fast);
    return machine.run(image, max_insts, noise);
}

void
expectIdentical(const sim::MachineConfig &mc,
                const toolchain::ProcessImage &image,
                const std::string &what,
                std::uint64_t max_insts = 500'000'000)
{
    const auto ref = runWith(mc, image, false, max_insts);
    const auto fast = runWith(mc, image, true, max_insts);
    EXPECT_EQ(fast, ref) << what << ": fast path diverged (cycles "
                         << fast.cycles() << " vs " << ref.cycles()
                         << ")";
}

/**
 * Records @p image once under interrupt noise, then times three lanes
 * in one pass: two more interrupt-noise seeds on @p image and a
 * noise-free lane on @p aslr, another ASLR draw of the same program.
 * The two lanes on @p image also run as a pass of their own, whose
 * one stack delta lets them share the DTLB and store buffer.  Every
 * lane must equal the oracle's run of its image and noise.  A
 * hatched-off replay tier records nothing, and then there is no pass.
 */
void
expectLanesMatchOracle(const sim::MachineConfig &mc,
                       const toolchain::ProcessImage &image,
                       const toolchain::ProcessImage &aslr,
                       const std::string &what)
{
    const std::uint64_t budget = 500'000'000;
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    machine.runRecord(image, budget, sim::NoiseModel::withSeed(0xab1a),
                      &trace);
    if (!trace)
        return;
    ASSERT_TRUE(trace->matches(aslr, budget)) << what;
    const sim::ReplayLane lanes[] = {
        {&image, sim::NoiseModel::withSeed(0xab1b)},
        {&image, sim::NoiseModel::withSeed(0xab1c)},
        {&aslr, sim::NoiseModel::none()},
    };
    const auto got = machine.runReplayLanes(*trace, budget, lanes);
    const auto oneDelta =
        machine.runReplayLanes(*trace, budget, {lanes, 2});
    ASSERT_EQ(got.size(), 3u) << what;
    ASSERT_EQ(oneDelta.size(), 2u) << what;
    for (std::size_t k = 0; k < got.size(); ++k) {
        const auto ref =
            runWith(mc, *lanes[k].image, false, budget, lanes[k].noise);
        EXPECT_EQ(got[k], ref)
            << what << ": lane " << k << " diverged (cycles "
            << got[k].cycles() << " vs " << ref.cycles() << ")";
        if (k < oneDelta.size()) {
            EXPECT_EQ(oneDelta[k], ref)
                << what << ": lane " << k << " of the one-delta pass";
        }
    }
}

TEST(FastPathDifferential, WholeSuiteAcrossSetups)
{
    // Every workload, each in its own setup (env size and link order
    // rotate with the suite index, so the set of exercised layouts is
    // diverse without running the full cross product every build).
    const auto &suite = workloads::suite();
    ASSERT_GE(suite.size(), 12u);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string name = suite[i]->name();
        const std::uint64_t env = (317 * i * i) % 4096;
        const auto order =
            i % 3 == 0 ? toolchain::LinkOrder::asGiven()
                       : toolchain::LinkOrder::shuffled(0x9e37 + i);
        expectIdentical(mc, imageFor(name, order, env),
                        name + " env=" + std::to_string(env));
    }
}

TEST(FastPathDifferential, AllMachinePresets)
{
    const auto image =
        imageFor("perl", toolchain::LinkOrder::shuffled(7), 1234);
    for (const auto &mc : sim::MachineConfig::allPresets())
        expectIdentical(mc, image, "perl on " + mc.name);
}

TEST(FastPathDifferential, EveryAblationSwitch)
{
    // Flip each ablation flag off (and the prefetcher on) one at a
    // time: each switch steers a different branch of the fast loop,
    // live and in a lane pass, on the out-of-order and in-order core
    // models (in-order realignment reads enableFetchBlockModel).
    const auto image =
        imageFor("sjeng", toolchain::LinkOrder::shuffled(3), 2048);
    toolchain::LoaderConfig lc;
    lc.envBytes = 2048;
    lc.aslrSeed = 5;
    const auto aslr = toolchain::Loader::load(image.program, lc);
    ASSERT_NE(aslr.initialSp, image.initialSp);
    using Mutator = void (*)(sim::MachineConfig &);
    const std::pair<const char *, Mutator> variants[] = {
        {"noFetchBlocks",
         [](sim::MachineConfig &m) { m.enableFetchBlockModel = false; }},
        {"noBtb", [](sim::MachineConfig &m) { m.enableBtb = false; }},
        {"noStoreBuffer",
         [](sim::MachineConfig &m) {
             m.enableStoreBufferAliasing = false;
         }},
        {"noLineSplit",
         [](sim::MachineConfig &m) { m.enableLineSplitPenalty = false; }},
        {"noCaches",
         [](sim::MachineConfig &m) { m.enableCaches = false; }},
        {"noTlbs", [](sim::MachineConfig &m) { m.enableTlbs = false; }},
        {"noBranchPrediction",
         [](sim::MachineConfig &m) {
             m.enableBranchPrediction = false;
         }},
        {"withPrefetch",
         [](sim::MachineConfig &m) {
             m.enableNextLinePrefetch = true;
         }},
        {"bimodal",
         [](sim::MachineConfig &m) {
             m.predictor = sim::PredictorKind::Bimodal;
         }},
    };
    for (const auto &base : {sim::MachineConfig::core2Like(),
                             sim::MachineConfig::inorderLike()}) {
        for (const auto &[label, mutate] : variants) {
            auto mc = base;
            mutate(mc);
            const std::string what =
                std::string("sjeng ") + label + " on " + base.name;
            expectIdentical(mc, image, what);
            expectLanesMatchOracle(mc, image, aslr, what);
        }
    }
}

/**
 * A kernel of line- and page-crossing accesses: each trip walks a
 * window of three global pages and of its stack frame in 7-byte steps
 * with 8-byte loads and stores, so most of them cross a 64-byte line
 * and some a page, on the stack and off it.
 */
std::shared_ptr<const toolchain::LinkedProgram>
crossingProgram()
{
    using namespace isa;
    ProgramBuilder b("crossing");
    b.global("buf", 3 * 4096);
    b.func("main");
    b.la(reg::s3, "buf");
    b.li(reg::t0, 3);
    b.li(reg::s0, 0);
    b.label("trip");
    b.addi(reg::sp, reg::sp, -8192);
    b.li(reg::t4, 0);
    b.label("step");
    b.add(reg::t5, reg::s3, reg::t4);
    b.ld8(reg::t1, reg::t5, 0);
    b.add(reg::s0, reg::s0, reg::t1);
    b.st8(reg::s0, reg::t5, 4099);
    b.add(reg::t6, reg::sp, reg::t4);
    b.st8(reg::t1, reg::t6, 3);
    b.ld8(reg::t2, reg::t6, 1);
    b.add(reg::s0, reg::s0, reg::t2);
    b.addi(reg::t4, reg::t4, 7);
    b.slti(reg::t3, reg::t4, 4200);
    b.bne(reg::t3, reg::zero, "step");
    b.addi(reg::sp, reg::sp, 8192);
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "trip");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

/**
 * Times @p image on @p mc every way a run can be timed — the live walk,
 * the trace tier, a recording, a one-lane pass and a pass of three
 * lanes (two on @p image, one on @p aslr, another stack draw of it) —
 * with tight interrupts or none, and holds each to the oracle.  A
 * hatched-off replay tier records nothing, and then there is no pass.
 */
void
expectEveryWalkMatchesOracle(const sim::MachineConfig &mc,
                             const toolchain::ProcessImage &image,
                             const toolchain::ProcessImage &aslr,
                             bool interrupts, const std::string &what)
{
    const std::uint64_t budget = 150'000;
    const auto noise = [&](std::uint64_t seed) {
        if (!interrupts)
            return sim::NoiseModel::none();
        auto m = sim::NoiseModel::withSeed(seed);
        m.meanIntervalCycles = 3000;
        return m;
    };
    const auto oracle = [&](const toolchain::ProcessImage &img,
                            const sim::NoiseModel &n) {
        return runWith(mc, img, false, budget, n);
    };
    const auto ref = oracle(image, noise(1));
    sim::Machine live(mc);
    live.setUseTracePath(false);
    EXPECT_EQ(live.run(image, budget, noise(1)), ref) << what << ": live walk";
    sim::Machine traced(mc);
    EXPECT_EQ(traced.run(image, budget, noise(1)), ref)
        << what << ": trace tier";
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    EXPECT_EQ(machine.runRecord(image, budget, noise(1), &trace), ref)
        << what << ": recording";
    if (!trace)
        return;
    const sim::ReplayLane lanes[] = {
        {&image, noise(2)}, {&image, noise(3)}, {&aslr, noise(4)}};
    EXPECT_EQ(machine.runReplayLanes(*trace, budget, {lanes, 1}).front(),
              oracle(image, lanes[0].noise))
        << what << ": one-lane pass";
    const auto got = machine.runReplayLanes(*trace, budget, lanes);
    ASSERT_EQ(got.size(), 3u) << what;
    for (std::size_t k = 0; k < got.size(); ++k)
        EXPECT_EQ(got[k], oracle(*lanes[k].image, lanes[k].noise))
            << what << ": lane " << k << " of a three-lane pass";
}

TEST(FastPathDifferential, TinyGeometriesOnEveryBackend)
{
    // A DTLB of one or two entries thrashes on every page change (the
    // live walk's LaneTlb::touchDataAnywhere), 1-way caches and a
    // 4-set L2 conflict on most lines, and the prefetcher adds a fill
    // after every dcache miss; the crossing kernel splits lines and
    // pages, and mcf chases pointers.
    using Mutator = void (*)(sim::MachineConfig &);
    const std::pair<const char *, Mutator> geometries[] = {
        {"dtlb1", [](sim::MachineConfig &m) { m.dtlb.entries = 1; }},
        {"dtlb2", [](sim::MachineConfig &m) { m.dtlb.entries = 2; }},
        {"direct-mapped",
         [](sim::MachineConfig &m) {
             m.icache.ways = m.dcache.ways = m.l2.ways = 1;
             m.l2.sets = 4;
         }},
        {"prefetch",
         [](sim::MachineConfig &m) { m.enableNextLinePrefetch = true; }},
    };
    toolchain::LoaderConfig lc;
    lc.envBytes = 4;
    const auto crossing = toolchain::Loader::load(crossingProgram(), lc);
    const auto mcf =
        imageFor("mcf", toolchain::LinkOrder::shuffled(5), lc.envBytes);
    lc.aslrSeed = 9;
    const std::pair<std::string, const toolchain::ProcessImage *> programs[] = {
        {"crossing", &crossing}, {"mcf", &mcf}};
    for (const auto &[name, image] : programs) {
        const auto aslr = toolchain::Loader::load(image->program, lc);
        ASSERT_NE(aslr.initialSp, image->initialSp) << name;
        for (const auto &backend : sim::MachineRegistry::global().backends()) {
            for (const auto &[label, mutate] : geometries) {
                auto mc = backend.config;
                mutate(mc);
                for (const bool interrupts : {false, true})
                    expectEveryWalkMatchesOracle(
                        mc, *image, aslr, interrupts,
                        name + " " + label + " on " + mc.name +
                            (interrupts ? " with interrupts" : ""));
            }
        }
    }
}

TEST(FastPathDifferential, InstructionBudgetTruncation)
{
    // A run cut off by max_insts (halted = false) must truncate at
    // the same instruction with the same partial counters.
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::asGiven(), 512);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::uint64_t budget : {1ull, 100ull, 7777ull, 50'000ull}) {
        const auto ref = runWith(mc, image, false, budget);
        const auto fast = runWith(mc, image, true, budget);
        EXPECT_EQ(fast, ref)
            << "bzip truncated at " << budget << " insts";
    }
    EXPECT_FALSE(runWith(mc, image, true, 100).halted);
}

TEST(FastPathDifferential, PlanStructureInvariants)
{
    // The plan is structural metadata for the fast loop: every block
    // leader in range and sorted, the return-address table inverse to
    // the placed pcs, and runLen consistent with op classes.
    const auto image =
        imageFor("hmmer", toolchain::LinkOrder::shuffled(11), 0);
    const auto plan = sim::ExecutionPlan::build(image.program);
    const auto &ops = plan->ops;
    ASSERT_FALSE(ops.empty());
    ASSERT_FALSE(plan->blockStarts.empty());
    EXPECT_EQ(plan->blockStarts.front(), 0u);
    for (std::size_t i = 1; i < plan->blockStarts.size(); ++i) {
        EXPECT_LT(plan->blockStarts[i - 1], plan->blockStarts[i]);
        EXPECT_LT(plan->blockStarts[i], ops.size());
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto &d = ops[i];
        EXPECT_EQ(plan->idxByOffset.at(std::size_t(d.pc - plan->codeBase)),
                  std::uint32_t(i));
        if (d.runLen > 0 && i + 1 < ops.size()) {
            EXPECT_EQ(std::uint32_t(d.runLen) - 1,
                      std::uint32_t(ops[i + 1].runLen))
                << "runLen must decrease by 1 inside a simple run";
        }
    }
}

} // namespace
