/**
 * @file
 * Link lanes: one recording times every link order of a module set
 * that keeps its data layout, each order a code class of one lane pass
 * with its own front end (Src = Relinked in Machine::runPlanImpl).
 * Every lane must equal the reference oracle bitwise.  Two exact
 * checks guard the sharing, and each has a hostile program here: a
 * recording that reads a pushed return address (a plain load of the
 * slot, or a Ret whose slot a store rewrote) is code-visible and
 * serves only its own program; a link that moves a global is refused
 * by the data-layout check.  Every refusal runs the lane on its own and
 * counts as a sim.replay.layout_fallbacks.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/registry.hh"
#include "sim/replay.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"
#include "workloads/workload.hh"

namespace
{

using namespace mbias;

constexpr std::uint64_t kBudget = 500'000'000;

/** Whether the replay tier runs at all (not under MBIAS_SIM_REPLAY=0
 *  or MBIAS_SIM_REFERENCE=1, where every lane is a plain run). */
bool
replayTierActive()
{
    return sim::replayTierUsable(sim::Machine(sim::MachineConfig::core2Like()));
}

sim::RunResult
oracle(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
       const sim::NoiseModel &noise)
{
    sim::Machine machine(mc);
    machine.setUseFastPath(false);
    return machine.run(image, kBudget, noise);
}

/** @p sources compiled as the runner compiles a baseline side. */
toolchain::ModuleSetPtr
compiled(const std::vector<isa::Module> &sources)
{
    const toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                                 toolchain::OptLevel::O2);
    return std::make_shared<const std::vector<isa::Module>>(
        cc.compile(sources));
}

std::shared_ptr<const toolchain::LinkedProgram>
linked(const toolchain::ModuleSetPtr &mods, const toolchain::LinkOrder &order)
{
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link(mods, order));
}

toolchain::ProcessImage
loaded(const std::shared_ptr<const toolchain::LinkedProgram> &prog,
       std::uint64_t env_bytes)
{
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    return toolchain::Loader::load(prog, lc);
}

/**
 * Records @p lanes[0] on @p mc, times every lane in one pass and holds
 * each one bitwise equal to the oracle.  Returns the recording (null
 * with the tier hatched off, when the pass is plain runs).
 */
std::shared_ptr<const sim::FunctionalTrace>
expectPassMatchesOracle(const sim::MachineConfig &mc,
                        const std::vector<sim::ReplayLane> &lanes,
                        const std::string &what)
{
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    machine.runRecord(*lanes[0].image, kBudget, lanes[0].noise, &trace);
    const sim::FunctionalTrace unused; // the fallback never reads it
    const auto got =
        machine.runReplayLanes(trace ? *trace : unused, kBudget, lanes);
    for (std::size_t k = 0; k < lanes.size(); ++k)
        EXPECT_EQ(got[k], oracle(mc, *lanes[k].image, lanes[k].noise))
            << what << ": lane " << k << " of " << lanes.size();
    return trace;
}

TEST(LinkLanes, EverySuiteKernelAtEightOrdersAndTwoEnvSizes)
{
    // Every suite kernel, 8 seeded link orders x 2 env sizes as one
    // family of 16 lanes, on every backend, quiet and under interrupt
    // plus DVFS noise: the recording is the first order's, and every
    // other order is a code class of the pass.
    auto noise = sim::NoiseModel::withDvfs(0);
    noise.meanIntervalCycles = 20000;
    noise.dvfsMeanIntervalCycles = 50000;
    noise.dvfsMeanResidencyCycles = 5000;
    for (const auto &w : workloads::suite()) {
        const auto mods = compiled(w->build({}));
        std::vector<toolchain::ProcessImage> images;
        for (unsigned o = 0; o < 8; ++o) {
            const auto prog =
                linked(mods, toolchain::LinkOrder::shuffled(0x5eed + o));
            for (const std::uint64_t env : {100u, 2900u})
                images.push_back(loaded(prog, env));
        }
        for (const auto &backend :
             sim::MachineRegistry::global().backends()) {
            const auto &mc = backend.config;
            for (const bool noisy : {false, true}) {
                std::vector<sim::ReplayLane> lanes;
                for (std::size_t k = 0; k < images.size(); ++k) {
                    sim::NoiseModel m =
                        noisy ? noise : sim::NoiseModel::none();
                    m.seed = 0x11e + k;
                    lanes.push_back({&images[k], m});
                }
                const std::string what = w->name() + " on " + mc.name +
                                         (noisy ? ", noisy" : ", quiet");
                const auto before = sim::ReplayCache::global().stats();
                const auto trace = expectPassMatchesOracle(mc, lanes, what);
                if (!replayTierActive())
                    continue;
                ASSERT_NE(trace, nullptr) << what;
                EXPECT_FALSE(trace->codeVisible) << what;
                for (const auto &image : images)
                    EXPECT_TRUE(trace->matches(image, kBudget))
                        << what << ": a link moved the data layout";
                const auto after = sim::ReplayCache::global().stats();
                EXPECT_EQ(after.codeClasses - before.codeClasses, 8u)
                    << what;
            }
        }
    }
}

TEST(LinkLanes, NarrowPassesTimeOnlyTheRecordedLink)
{
    // Machine::kMinLinkPass decides, in the pass: below it a lane at
    // another link runs alone (a replay fallback), at it every link is
    // a code class of the pass.  Either way each lane equals the oracle.
    const auto mods = compiled(workloads::findWorkload("perl").build({}));
    std::vector<toolchain::ProcessImage> images;
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
        const auto prog = linked(mods, toolchain::LinkOrder::shuffled(seed));
        for (const std::uint64_t env : {100u, 700u})
            images.push_back(loaded(prog, env));
    }
    const auto mc = sim::MachineConfig::core2Like();
    for (const std::size_t n : {sim::Machine::kMinLinkPass - 1,
                                sim::Machine::kMinLinkPass}) {
        const std::string what = std::to_string(n) + " lanes";
        std::vector<sim::ReplayLane> lanes;
        for (std::size_t k = 0; k < n; ++k)
            lanes.push_back({&images[k], sim::NoiseModel::none()});
        const auto before = sim::ReplayCache::global().stats();
        expectPassMatchesOracle(mc, lanes, what);
        const auto after = sim::ReplayCache::global().stats();
        if (!replayTierActive())
            continue;
        const bool narrow = n < sim::Machine::kMinLinkPass;
        // The lanes past the first two sit at other links.
        EXPECT_EQ(after.fallbacks - before.fallbacks, narrow ? n - 2 : 0u)
            << what;
        EXPECT_EQ(after.codeClasses - before.codeClasses,
                  narrow ? 1u : (n + 1) / 2)
            << what;
    }
}

TEST(LinkLanes, NarrowFamilyRecordsItsOwnLink)
{
    // The module set's recording, made at one link order, must not
    // swallow a narrow family at another: a pass that narrow does not
    // time other links (Machine::kMinLinkPass), so the family records
    // its own link and its lanes ride that, and the next such family
    // finds it.
    const auto spec = core::ExperimentSpec().withWorkload("perl");
    core::ExperimentRunner runner(spec);
    const auto lanesAt = [](const toolchain::LinkOrder &order,
                            std::size_t n) {
        std::vector<core::Lane> lanes;
        for (std::size_t k = 0; k < n; ++k)
            lanes.push_back(
                {100 + 64 * k, 0, sim::NoiseModel::none(), order});
        return lanes;
    };
    const auto expectPlainRuns = [&](const std::vector<core::Lane> &lanes,
                                     const std::string &what) {
        const auto got = runner.runFamily(spec.baseline, false, lanes);
        for (std::size_t k = 0; k < lanes.size(); ++k)
            EXPECT_EQ(got[k], runner.runSide(spec.baseline,
                                             {lanes[k].envBytes,
                                              lanes[k].linkOrder}))
                << what << ": lane " << k;
    };
    sim::ReplayCache::global().clear();
    expectPlainRuns(lanesAt(toolchain::LinkOrder::shuffled(3),
                            sim::Machine::kMinLinkPass + 1),
                    "the module set's recording");
    for (const bool again : {false, true}) {
        const std::string what = again ? "the second narrow family"
                                       : "the first narrow family";
        const auto before = sim::ReplayCache::global().stats();
        expectPlainRuns(lanesAt(toolchain::LinkOrder::shuffled(17), 3),
                        what);
        const auto after = sim::ReplayCache::global().stats();
        if (!replayTierActive())
            continue;
        EXPECT_EQ(after.records - before.records, again ? 0u : 1u) << what;
        EXPECT_EQ(after.replays - before.replays, again ? 3u : 2u) << what;
        EXPECT_EQ(after.fallbacks - before.fallbacks, 0u) << what;
        EXPECT_EQ(after.codeClasses - before.codeClasses, 1u) << what;
    }
}

/** A registered workload built by a function, so the runner's lane
 *  families can run a hand-written program. */
class Handmade : public workloads::Workload
{
  public:
    Handmade(std::string name, std::function<std::vector<isa::Module>()> f)
        : name_(std::move(name)), build_(std::move(f))
    {
    }
    std::string name() const override { return name_; }
    std::string archetype() const override { return "none"; }
    std::string description() const override { return "hostile"; }
    std::vector<isa::Module>
    build(const workloads::WorkloadConfig &) const override
    {
        return build_();
    }
    std::uint64_t
    referenceResult(const workloads::WorkloadConfig &) const override
    {
        return 0; // layout-dependent on purpose
    }

  private:
    std::string name_;
    std::function<std::vector<isa::Module>()> build_;
};

/** A module of @p bytes of dead code: it moves what follows it. */
isa::Module
padding(const std::string &name, int nops)
{
    isa::ProgramBuilder b(name);
    b.func(name + "_f");
    for (int i = 0; i < nops; ++i)
        b.nop();
    b.ret();
    b.endFunc();
    return b.build();
}

/** main calls `callee` (module "callee") 60 times and returns s0; two
 *  padding modules make every link order a different code layout. */
std::vector<isa::Module>
callerAround(isa::Module callee)
{
    using namespace isa;
    ProgramBuilder b("main");
    b.func("main");
    b.li(reg::t0, 60);
    b.li(reg::s0, 0);
    b.label("loop");
    b.call("callee");
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    return {b.build(), padding("pad_a", 37), std::move(callee),
            padding("pad_b", 91)};
}

/** A callee that loads its return address and branches on it. */
std::vector<isa::Module>
slotReader()
{
    using namespace isa;
    ProgramBuilder b("callee");
    b.func("callee");
    b.ld8(reg::t1, reg::sp, 0);
    b.andi(reg::t2, reg::t1, 0x1f0);
    b.beq(reg::t2, reg::zero, "skip");
    b.add(reg::s0, reg::s0, reg::t2);
    b.label("skip");
    b.addi(reg::s0, reg::s0, 3);
    b.ret();
    b.endFunc();
    return callerAround(b.build());
}

/** A callee that rewrites the upper half of its return slot before
 *  Ret: with zeros, which every link's return address holds there, so
 *  every layout still returns home, but not through one push's bytes. */
std::vector<isa::Module>
slotWriter()
{
    using namespace isa;
    ProgramBuilder b("callee");
    b.func("callee");
    b.addi(reg::s0, reg::s0, 5);
    b.st4(reg::zero, reg::sp, 4);
    b.ret();
    b.endFunc();
    return callerAround(b.build());
}

/** Two modules that each own a global, and a main that works on both:
 *  a link order that swaps the two modules moves both globals. */
std::vector<isa::Module>
movingGlobals()
{
    using namespace isa;
    const auto holder = [](const std::string &g) {
        ProgramBuilder b("mod_" + g);
        b.global(g, 256);
        b.func("bump_" + g);
        b.la(reg::t1, g);
        b.ld8(reg::t2, reg::t1, 8);
        b.addi(reg::t2, reg::t2, 7);
        b.st8(reg::t2, reg::t1, 8);
        b.add(reg::s0, reg::s0, reg::t2);
        b.ret();
        b.endFunc();
        return b.build();
    };
    ProgramBuilder b("main");
    b.func("main");
    b.li(reg::t0, 80);
    b.li(reg::s0, 0);
    b.label("loop");
    b.call("bump_ga");
    b.call("bump_gb");
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    return {b.build(), holder("ga"), padding("pad_a", 23), holder("gb")};
}

constexpr std::uint64_t kOrderSeeds[] = {3, 17, 29, 44};
constexpr std::uint64_t kEnvSizes[] = {256, 1024};

/** Lanes of a hostile family at other link orders than the first. */
constexpr std::size_t kOtherOrderLanes =
    (std::size(kOrderSeeds) - 1) * std::size(kEnvSizes);

/**
 * @p modules as one family at the four seeded link orders x two env
 * sizes on every backend, twice: at the machine (the recording of the
 * first lane and one pass of every lane that it matches(), the rest
 * run alone), and through ExperimentRunner::runFamily, whose refusals
 * must each count as a layout fallback.  Every lane equals the oracle
 * bitwise.  Returns how many lanes the first one's recording refused.
 */
std::size_t
expectFamilyExact(const std::string &name,
                  std::function<std::vector<isa::Module>()> modules,
                  bool code_visible)
{
    workloads::Registry::instance().tryAdd(
        std::make_unique<Handmade>(name, modules), "test");
    const auto mods = compiled(modules());
    std::vector<toolchain::ProcessImage> images;
    for (const std::uint64_t seed : kOrderSeeds) {
        const auto prog = linked(mods, toolchain::LinkOrder::shuffled(seed));
        for (const std::uint64_t env : kEnvSizes)
            images.push_back(loaded(prog, env));
    }
    std::set<Addr> mains;
    for (const auto &image : images)
        mains.insert(image.prog().function("main").base);
    EXPECT_GT(mains.size(), 1u) << name << ": the orders share one layout";

    std::size_t refused = 0;
    for (const auto &backend : sim::MachineRegistry::global().backends()) {
        const auto &mc = backend.config;
        const std::string what = name + " on " + mc.name;
        sim::Machine machine(mc);
        std::shared_ptr<const sim::FunctionalTrace> trace;
        const auto none = sim::NoiseModel::none();
        std::vector<sim::RunResult> got(images.size());
        got[0] = machine.runRecord(images[0], kBudget, none, &trace);
        std::vector<sim::ReplayLane> pass;
        std::vector<std::size_t> slots;
        refused = 0;
        for (std::size_t k = 1; k < images.size(); ++k) {
            if (trace && trace->matches(images[k], kBudget)) {
                pass.push_back({&images[k], none});
                slots.push_back(k);
            } else {
                ++refused;
                got[k] = machine.run(images[k], kBudget, none);
            }
        }
        if (!pass.empty()) {
            const auto timed = machine.runReplayLanes(*trace, kBudget, pass);
            for (std::size_t i = 0; i < slots.size(); ++i)
                got[slots[i]] = timed[i];
        }
        for (std::size_t k = 0; k < images.size(); ++k)
            EXPECT_EQ(got[k], oracle(mc, images[k], none))
                << what << ": lane " << k;
        if (trace) {
            EXPECT_EQ(trace->codeVisible, code_visible) << what;
            for (std::size_t k = 1; k < images.size(); ++k)
                EXPECT_EQ(trace->matches(images[k], kBudget),
                          images[k].program == images[0].program ||
                              (!code_visible &&
                               sim::sameDataLayout(images[0].prog(),
                                                   images[k].prog())))
                    << what << ": lane " << k;
        }

        // The runner: the same lanes as one family.
        const auto spec =
            core::ExperimentSpec().withWorkload(name).withMachine(mc);
        core::ExperimentRunner runner(spec);
        std::vector<core::Lane> lanes;
        for (const std::uint64_t seed : kOrderSeeds)
            for (const std::uint64_t env : kEnvSizes)
                lanes.push_back(
                    {env, 0, none, toolchain::LinkOrder::shuffled(seed)});
        sim::ReplayCache::global().clear(); // so the first order records
        const auto before = sim::ReplayCache::global().stats();
        const auto ran = runner.runFamily(spec.baseline, false, lanes);
        const auto after = sim::ReplayCache::global().stats();
        EXPECT_EQ(ran, got) << what << " through the runner";
        if (replayTierActive()) {
            EXPECT_EQ(after.layoutFallbacks - before.layoutFallbacks,
                      refused)
                << what << " through the runner";
        }
    }
    return refused;
}

TEST(LinkLanes, ReturnSlotLoadIsCodeVisible)
{
    const std::size_t refused =
        expectFamilyExact("link_slot_reader", slotReader, true);
    if (replayTierActive()) {
        EXPECT_EQ(refused, kOtherOrderLanes);
    }
}

TEST(LinkLanes, RewrittenReturnSlotIsCodeVisible)
{
    const std::size_t refused =
        expectFamilyExact("link_slot_writer", slotWriter, true);
    if (replayTierActive()) {
        EXPECT_EQ(refused, kOtherOrderLanes);
    }
}

TEST(LinkLanes, MovedGlobalsAreRefused)
{
    // Orders that keep mod_ga before mod_gb keep the data layout and
    // ride the pass; the others move both globals and run alone.
    const std::size_t refused =
        expectFamilyExact("link_moving_globals", movingGlobals, false);
    if (replayTierActive()) {
        EXPECT_GE(refused, 1u);
        EXPECT_LT(refused, kOtherOrderLanes);
    }
}

TEST(LinkLanes, OpaqueCallsStayShareable)
{
    // The control: calls, returns and stack traffic that never read a
    // pushed return address leave the recording opaque, so every order
    // rides the pass.
    const auto opaque = [] {
        using namespace isa;
        ProgramBuilder b("callee");
        b.func("callee");
        b.addi(reg::sp, reg::sp, -16);
        b.st8(reg::s0, reg::sp, 0);
        b.ld8(reg::t1, reg::sp, 0);
        b.addi(reg::s0, reg::t1, 9);
        b.addi(reg::sp, reg::sp, 16);
        b.ret();
        b.endFunc();
        return callerAround(b.build());
    };
    const std::size_t refused =
        expectFamilyExact("link_opaque", opaque, false);
    if (replayTierActive()) {
        EXPECT_EQ(refused, 0u);
    }
}

} // namespace
