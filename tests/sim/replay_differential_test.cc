/**
 * @file
 * The record/replay tier's contract, held the fast path's strong way:
 * for every workload of the suite, across setups, machine presets,
 * noise seeds, ASLR draws, and truncating budgets, a replayed run must
 * produce a RunResult — cycles AND every performance counter —
 * bitwise identical to executing the same (image, budget, noise)
 * afresh through the reference oracle.  On top of the
 * differential this file pins the single-recording-many-consumers
 * property (one stream serves every seed, preset, and ASLR draw), the
 * ReplayCache's hit/miss/negative accounting, the precondition
 * fallback (a machine with the tier toggled off), and the
 * MBIAS_SIM_REPLAY=0 escape hatch; a dedicated ctest leg reruns the
 * whole file under that hatch so the fallback path keeps the same
 * bits.  Lane passes (Machine::runReplayLanes) are held to the same
 * contract lane by lane: every lane equals a one-lane runReplay and
 * the oracle, on every backend, under every noise shape and ASLR.
 * The architectural result is held too: a replay at another stack base
 * returns the recorded a0, and a recording whose a0 may be a stack
 * address serves no other stack base.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "isa/builder.hh"
#include "obs/trace.hh"
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

/** The ground truth for one (image, budget, noise): the reference
 *  oracle, selected explicitly — a plain noisy run() takes the plan
 *  loop, which would compare the replay tier's loop with itself. */
sim::RunResult
plainRun(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
         std::uint64_t budget, const sim::NoiseModel &noise)
{
    sim::Machine machine(mc);
    machine.setUseFastPath(false);
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
    std::vector<sim::ReplayLane> lanes;
    std::vector<sim::RunResult> per_rep;
    for (unsigned s = 1; s <= extra_seeds; ++s) {
        const auto noise = sim::NoiseModel::withSeed(seed_base + s);
        const auto rep = machine.runReplay(image, budget, noise, *trace);
        const auto ref = plainRun(mc, image, budget, noise);
        EXPECT_EQ(rep, ref)
            << what << ": replay diverged under seed " << seed_base + s
            << " (cycles " << rep.cycles() << " vs " << ref.cycles() << ")";
        lanes.push_back({&image, noise});
        per_rep.push_back(rep);
    }
    // Noise-free replay too: replay must degrade to the deterministic
    // run when the noise model is off.
    const auto quiet =
        machine.runReplay(image, budget, sim::NoiseModel::none(), *trace);
    EXPECT_EQ(quiet, plainRun(mc, image, budget, sim::NoiseModel::none()))
        << what << ": noise-free replay diverged";
    // The same repetitions as one lane pass, the noise-free one last.
    lanes.push_back({&image, sim::NoiseModel::none()});
    per_rep.push_back(quiet);
    EXPECT_EQ(machine.runReplayLanes(*trace, budget, lanes), per_rep)
        << what << ": lane pass diverged from per-rep replays";
}

/** A hot kernel with loads/stores/calls so every stream (branch bits,
 *  memory addresses, return targets) is exercised under truncation.
 *  Built once: replay preconditions key on program identity, so the
 *  ASLR test must re-load the SAME program, exactly as
 *  ExperimentRunner::runFamily does for a family of ASLR draws. */
std::shared_ptr<const toolchain::LinkedProgram>
kernelProgram(std::int64_t trips = 300)
{
    using namespace isa;
    ProgramBuilder b("replay_kernel");
    b.func("main");
    b.li(reg::t0, trips);
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
    // A machine whose fast-path toggle is off must not record:
    // runRecord degrades to a plain run with identical bits, a null
    // trace, and untouched tier statistics.
    const auto image =
        imageFor("gcclike", toolchain::LinkOrder::asGiven(), 768);
    const std::uint64_t budget = 500'000'000;
    const auto mc = sim::MachineConfig::core2Like();
    sim::Machine machine(mc);
    machine.setUseFastPath(false);
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
    // replayTierUsable follows the env hatches; the active-tier
    // description advertises the same verdict
    // (the CLI prints it as provenance).  MBIAS_SIM_REFERENCE takes
    // precedence over the replay hatch, so it is unset for the
    // duration of the test.
    const char *oldRef = std::getenv("MBIAS_SIM_REFERENCE");
    const std::string savedRef = oldRef ? oldRef : "";
    ::unsetenv("MBIAS_SIM_REFERENCE");

    sim::Machine machine(sim::MachineConfig::core2Like());
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

/** Interrupt-only, DVFS-only and combined noise, tightened so every
 *  shape fires several times inside the lane kernel; lane k draws
 *  seed + k. */
std::vector<std::pair<std::string, sim::NoiseModel>>
laneNoiseShapes()
{
    auto both = sim::NoiseModel::withDvfs(0);
    both.meanIntervalCycles = 3000;
    both.dvfsMeanIntervalCycles = 9000;
    both.dvfsMeanResidencyCycles = 2000;
    auto interrupts = both;
    interrupts.dvfsEnabled = false;
    auto dvfs = both;
    dvfs.enabled = false;
    return {{"interrupts", interrupts}, {"dvfs", dvfs}, {"both", both}};
}

/** One repetition family: lane k runs images[k] under noises[k]. */
struct Family
{
    std::vector<toolchain::ProcessImage> images;
    std::vector<sim::NoiseModel> noises;

    std::vector<sim::ReplayLane> lanes() const
    {
        std::vector<sim::ReplayLane> out;
        for (std::size_t k = 0; k < images.size(); ++k)
            out.push_back({&images[k], noises[k]});
        return out;
    }
};

/** @p n lanes of @p prog: ASLR draw k when @p aslr (else one fixed
 *  layout), noise @p noise with seed 0x1a4e + k when @p noisy. */
Family
makeFamily(const std::shared_ptr<const toolchain::LinkedProgram> &prog,
           unsigned n, bool aslr, bool noisy, const sim::NoiseModel &noise)
{
    Family f;
    for (unsigned k = 0; k < n; ++k) {
        f.images.push_back(kernelImage(prog, aslr ? 0x5e + k : 0));
        sim::NoiseModel m = noisy ? noise : sim::NoiseModel::none();
        m.seed = 0x1a4e + k;
        f.noises.push_back(m);
    }
    return f;
}

/**
 * Records @p family's first image on @p mc, then times every lane in
 * one pass and holds each lane bitwise equal to a one-lane runReplay
 * on a fresh machine and to the oracle.  With the tier hatched off
 * there is no recording: the pass must then fall back to plain runs,
 * with the same bits.
 */
void
expectLanesIdentical(const sim::MachineConfig &mc, const Family &family,
                     const std::string &what)
{
    const std::uint64_t budget = 500'000'000;
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    machine.runRecord(family.images[0], budget, sim::NoiseModel::none(),
                      &trace);
    if (replayTierActive())
        ASSERT_NE(trace, nullptr) << what;
    else
        ASSERT_EQ(trace, nullptr) << what;
    const sim::FunctionalTrace unused; // the fallback never reads it
    const sim::FunctionalTrace &stream = trace ? *trace : unused;
    const auto lanes = family.lanes();
    const auto got = machine.runReplayLanes(stream, budget, lanes);
    ASSERT_EQ(got.size(), lanes.size()) << what;
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        const auto &lane = lanes[k];
        sim::Machine single(mc);
        const auto one =
            single.runReplay(*lane.image, budget, lane.noise, stream);
        const auto ref = plainRun(mc, *lane.image, budget, lane.noise);
        EXPECT_EQ(got[k], one)
            << what << ": lane " << k << " of " << lanes.size()
            << " diverged from a one-lane replay (cycles "
            << got[k].cycles() << " vs " << one.cycles() << ")";
        EXPECT_EQ(got[k], ref)
            << what << ": lane " << k << " of " << lanes.size()
            << " diverged from the oracle (cycles " << got[k].cycles()
            << " vs " << ref.cycles() << ")";
    }
}

TEST(ReplayDifferential, LanesMatchOneLaneAndOracleEveryBackend)
{
    // Every registered backend x {interrupts, DVFS, both, ASLR draws
    // without noise, ASLR plus both} x lane counts 1, 2 and 23 (the
    // runner's AslrRandomized and NoisePaired families are 20-24
    // wide).  40 lanes, past any family the runner builds, cross the
    // 32-lane mask width of a pass, so the combined shape also covers
    // runLanes' walk of a wide pass in chunks.
    const auto prog = kernelProgram(2000);
    auto shapes = laneNoiseShapes();
    const sim::NoiseModel both = shapes.back().second;
    for (const auto &backend : sim::MachineRegistry::global().backends()) {
        const auto &mc = backend.config;
        const auto quiet = plainRun(mc, kernelImage(prog), 500'000'000,
                                    sim::NoiseModel::none());
        for (const auto &[label, noise] : shapes) {
            // The shape must actually fire inside the run.
            EXPECT_GT(plainRun(mc, kernelImage(prog), 500'000'000, noise)
                          .cycles(),
                      quiet.cycles())
                << label << " on " << mc.name << ": no noise event landed";
            for (unsigned n : {1u, 2u, 23u})
                expectLanesIdentical(
                    mc, makeFamily(prog, n, false, true, noise),
                    label + " x" + std::to_string(n) + " on " + mc.name);
        }
        for (unsigned n : {1u, 2u, 23u})
            expectLanesIdentical(mc, makeFamily(prog, n, true, false, both),
                                 "aslr x" + std::to_string(n) + " on " +
                                     mc.name);
        for (unsigned n : {1u, 2u, 23u, 40u})
            expectLanesIdentical(mc, makeFamily(prog, n, true, true, both),
                                 "aslr+noise x" + std::to_string(n) +
                                     " on " + mc.name);
    }
}

TEST(ReplayDifferential, MixedNoiseLanes)
{
    // One lane with noise off among noisy lanes: the quiet lane's
    // deadline never fires while its neighbours' do, so any noise
    // state shared across lanes shows in one of them.  Run on the
    // lane kernel and on a suite workload, on every backend.
    const auto both = laneNoiseShapes().back().second;
    const auto prog = kernelProgram(2000);
    const auto perl = imageFor("perl", toolchain::LinkOrder::asGiven(), 96);
    for (const auto &backend : sim::MachineRegistry::global().backends()) {
        const auto &mc = backend.config;
        for (unsigned quiet_lane : {0u, 3u}) {
            Family f = makeFamily(prog, 6, quiet_lane == 3, true, both);
            f.noises[quiet_lane] = sim::NoiseModel::none();
            expectLanesIdentical(mc, f,
                                 "kernel, quiet lane " +
                                     std::to_string(quiet_lane) + " on " +
                                     mc.name);
        }
        Family f;
        for (unsigned k = 0; k < 4; ++k) {
            f.images.push_back(perl);
            sim::NoiseModel m = both;
            m.seed = 0x9e71 + k;
            f.noises.push_back(k == 1 ? sim::NoiseModel::none() : m);
        }
        expectLanesIdentical(mc, f, "perl, quiet lane 1 on " + mc.name);
    }
}

/** @p mc with every latency and penalty at Machine::kMaxLatency: the
 *  largest charges a config may carry into one op. */
sim::MachineConfig
atLatencyBound(sim::MachineConfig mc)
{
    const Cycles b = sim::Machine::kMaxLatency;
    for (auto *cache : {&mc.icache, &mc.dcache, &mc.l2}) {
        cache->hitLatency = b;
        cache->missPenalty = b;
    }
    mc.itlb.missPenalty = mc.dtlb.missPenalty = b;
    mc.branchMispredictPenalty = mc.btbMissPenalty = b;
    mc.aliasPenalty = mc.lineSplitPenalty = mc.fetchRealignPenalty = b;
    mc.intMulLatency = mc.intDivLatency = b;
    return mc;
}

TEST(ReplayDifferential, LaneClocksCrossTheEpochFold)
{
    // A lane pass keeps each lane's clock as an int32 offset from a
    // 64-bit epoch and folds it there at every noise event and at
    // least every 2^30 cycles.  Here every lane's clock passes 2^31
    // several times: interrupts or DVFS steps that each cost 2^28
    // cycles, and a noise-free machine whose every latency sits at the
    // config bound (no noise event, so only the 2^30 deadline folds).
    // 3- and 5-lane passes leave one vector group part padding; every
    // lane must still equal the oracle bitwise, on both core models.
    const auto perl = imageFor("perl", toolchain::LinkOrder::asGiven(), 96);
    auto interrupts = sim::NoiseModel::withSeed(0);
    interrupts.costCycles = Cycles(1) << 28;
    interrupts.meanIntervalCycles = 5000;
    auto dvfs = sim::NoiseModel::none();
    dvfs.dvfsEnabled = true;
    dvfs.dvfsTransitionCycles = Cycles(1) << 28;
    dvfs.dvfsMeanIntervalCycles = 3000;
    dvfs.dvfsMeanResidencyCycles = 2000;
    const std::vector<std::pair<std::string, sim::NoiseModel>> shapes = {
        {"interrupts", interrupts}, {"dvfs", dvfs}};
    const Cycles past = Cycles(1) << 32;
    for (const auto &base :
         {sim::MachineConfig::core2Like(), sim::MachineConfig::inorderLike()}) {
        for (const auto &[label, noise] : shapes) {
            for (unsigned n : {3u, 5u}) {
                Family f;
                for (unsigned k = 0; k < n; ++k) {
                    f.images.push_back(perl);
                    sim::NoiseModel m = noise;
                    m.seed = 0xf01d + 7 * n + k;
                    f.noises.push_back(m);
                }
                EXPECT_GT(plainRun(base, perl, 500'000'000, f.noises[0])
                              .cycles(),
                          past)
                    << label << " on " << base.name;
                expectLanesIdentical(base, f,
                                     label + " x" + std::to_string(n) +
                                         " on " + base.name);
            }
        }
        const auto bound = atLatencyBound(base);
        EXPECT_GT(plainRun(bound, perl, 500'000'000, sim::NoiseModel::none())
                      .cycles(),
                  past)
            << base.name << " at the latency bound";
        for (unsigned n : {3u, 5u}) {
            Family f;
            for (unsigned k = 0; k < n; ++k) {
                f.images.push_back(perl);
                // Quiet lanes fold on the 2^30 deadline alone.
                sim::NoiseModel m = k % 2 ? sim::NoiseModel::withSeed(0)
                                          : sim::NoiseModel::none();
                m.seed = 0xb0d + k;
                f.noises.push_back(m);
            }
            expectLanesIdentical(bound, f,
                                 "latency bound x" + std::to_string(n) +
                                     " on " + base.name);
        }
    }
}

TEST(ReplayDifferential, LanePassServesEachRepetitionOnce)
{
    // runReplay hands out each lane of the latest pass exactly once,
    // and the tier's statistics count one replay per lane and one
    // pass per walk: replays / lane_passes is the mean lane width.
    if (!replayTierActive())
        return; // nothing is recorded, so no pass is served
    const std::uint64_t budget = 500'000'000;
    const auto mc = sim::MachineConfig::core2Like();
    const auto prog = kernelProgram();
    const Family f =
        makeFamily(prog, 5, true, true, laneNoiseShapes().back().second);
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    machine.runRecord(f.images[0], budget, sim::NoiseModel::none(), &trace);
    ASSERT_NE(trace, nullptr);
    const auto lanes = f.lanes();

    const auto s0 = sim::ReplayCache::global().stats();
    const auto got = machine.runReplayLanes(*trace, budget, lanes);
    const auto s1 = sim::ReplayCache::global().stats();
    EXPECT_EQ(s1.lanePasses - s0.lanePasses, 1u);
    EXPECT_EQ(s1.replays - s0.replays, lanes.size());

    for (std::size_t k = lanes.size(); k-- > 0;) // any order is served
        EXPECT_EQ(machine.runReplay(*lanes[k].image, budget, lanes[k].noise,
                                    *trace),
                  got[k])
            << "served lane " << k;
    const auto s2 = sim::ReplayCache::global().stats();
    EXPECT_EQ(s2.lanePasses, s1.lanePasses) << "serving walked the stream";
    EXPECT_EQ(s2.replays, s1.replays);

    // A lane already handed out is timed afresh, as a pass of one.
    EXPECT_EQ(machine.runReplay(*lanes[2].image, budget, lanes[2].noise,
                                *trace),
              got[2]);
    const auto s3 = sim::ReplayCache::global().stats();
    EXPECT_EQ(s3.lanePasses - s2.lanePasses, 1u);
    EXPECT_EQ(s3.replays - s2.replays, 1u);
}

/** One lane pass's results and what it booked in the replay stats. */
struct SharingPass
{
    std::vector<sim::RunResult> results;
    std::uint64_t laneAccesses = 0;
    std::uint64_t divergedAccesses = 0;
};

SharingPass
sharingPass(sim::Machine &machine, const sim::FunctionalTrace &stream,
            std::uint64_t budget, std::span<const sim::ReplayLane> lanes)
{
    const auto s0 = sim::ReplayCache::global().stats();
    SharingPass p;
    p.results = machine.runReplayLanes(stream, budget, lanes);
    const auto s1 = sim::ReplayCache::global().stats();
    p.laneAccesses = s1.laneAccesses - s0.laneAccesses;
    p.divergedAccesses = s1.divergedAccesses - s0.divergedAccesses;
    return p;
}

TEST(ReplayDifferential, LanesDivergeAndConverge)
{
    // A lane pass keeps one canonical memory hierarchy and, per lane,
    // copies of only the cache sets where that lane differs; a copy is
    // dropped once it equals the canonical set again.  Interrupts are
    // tightened here until every lane of every pass diverges, on
    // perl, hmmer and mcf, on every backend, in passes of 2, 5 and 24
    // lanes, plus a DVFS-only pass (no eviction: nothing may diverge)
    // and a pass of ASLR draws under noise, whose stack deltas differ.
    // Every lane must equal the oracle bitwise.  Sharing is per lane,
    // so a pass whose lanes share one stack delta books exactly what
    // its lanes book as one-lane passes.  Each lane must diverge (some
    // accesses on its own copies) and, on perl and hmmer, converge
    // again: most of its accesses are shared, where a lane that kept
    // every evicted set would own them all after a few dozen
    // interrupts.  mcf's pointer chase cycles more lines through each
    // dcache and L2 set than a run refills, so its lanes stay apart
    // for much longer; it is held to the oracle.
    const std::uint64_t budget = 500'000'000;
    const bool tier = replayTierActive();
    auto tight = sim::NoiseModel::withSeed(0);
    tight.meanIntervalCycles = 5000;
    auto dvfs = sim::NoiseModel::none();
    dvfs.dvfsEnabled = true;
    dvfs.dvfsMeanIntervalCycles = 3000;
    dvfs.dvfsMeanResidencyCycles = 2000;
    for (const std::string name : {"perl", "hmmer", "mcf"}) {
        const auto home = imageFor(name, toolchain::LinkOrder::asGiven(), 96);
        const auto draw = [&](std::uint64_t aslr) {
            toolchain::LoaderConfig lc;
            lc.envBytes = 96;
            lc.aslrSeed = aslr;
            return toolchain::Loader::load(home.program, lc);
        };
        for (const auto &backend : sim::MachineRegistry::global().backends()) {
            const auto &mc = backend.config;
            sim::Machine machine(mc);
            std::shared_ptr<const sim::FunctionalTrace> trace;
            machine.runRecord(home, budget, sim::NoiseModel::none(), &trace);
            if (tier) {
                ASSERT_NE(trace, nullptr) << name;
            }
            const sim::FunctionalTrace unused; // the fallback never reads it
            const sim::FunctionalTrace &stream = trace ? *trace : unused;

            struct Case
            {
                std::string label;
                Family family;
                bool diverges;
                bool sharedDelta = true;
            };
            std::vector<Case> cases;
            for (unsigned n : {2u, 5u, 24u}) {
                Family f;
                for (unsigned k = 0; k < n; ++k) {
                    f.images.push_back(home);
                    sim::NoiseModel m = tight;
                    m.seed = 0xd17e + 31 * n + k;
                    f.noises.push_back(m);
                }
                cases.push_back({"interrupts x" + std::to_string(n), f, true});
            }
            Family quiet;
            Family mixed;
            for (unsigned k = 0; k < 5; ++k) {
                quiet.images.push_back(home);
                sim::NoiseModel m = dvfs;
                m.seed = 0xdf5 + k;
                quiet.noises.push_back(m);
                mixed.images.push_back(draw(0xa5 + k));
                m = tight;
                m.seed = 0x313 + k;
                mixed.noises.push_back(m);
            }
            mixed.images.push_back(draw(0xa5)); // a delta shared once
            mixed.noises.push_back(tight);
            cases.push_back({"dvfs x5", quiet, false});
            cases.push_back({"aslr+interrupts x6", mixed, true, false});

            for (const Case &c : cases) {
                const std::string what =
                    name + " " + c.label + " on " + mc.name;
                const auto lanes = c.family.lanes();
                const SharingPass pass =
                    sharingPass(machine, stream, budget, lanes);
                ASSERT_EQ(pass.results.size(), lanes.size()) << what;
                std::uint64_t accesses = 0, diverged = 0;
                for (std::size_t k = 0; k < lanes.size(); ++k) {
                    const auto &lane = lanes[k];
                    EXPECT_EQ(pass.results[k],
                              plainRun(mc, *lane.image, budget, lane.noise))
                        << what << ": lane " << k
                        << " diverged from the oracle";
                    sim::Machine single(mc);
                    const SharingPass one =
                        sharingPass(single, stream, budget, {&lane, 1});
                    EXPECT_EQ(one.results.front(), pass.results[k])
                        << what << ": lane " << k;
                    accesses += one.laneAccesses;
                    diverged += one.divergedAccesses;
                    if (!tier || c.family.images[k].initialSp !=
                                     home.initialSp)
                        continue;
                    if (c.diverges) {
                        EXPECT_GT(one.divergedAccesses, 0u)
                            << what << ": lane " << k << " never diverged";
                        if (name != "mcf") {
                            EXPECT_LT(2 * one.divergedAccesses,
                                      one.laneAccesses)
                                << what << ": lane " << k
                                << " never converged";
                        }
                    } else {
                        EXPECT_EQ(one.divergedAccesses, 0u)
                            << what << ": lane " << k
                            << " diverged without an eviction";
                    }
                }
                // A one-lane pass shares its own stack delta; in a pass
                // whose deltas differ, every stack access is a lane's
                // own.
                EXPECT_EQ(pass.laneAccesses, accesses) << what;
                if (c.sharedDelta)
                    EXPECT_EQ(pass.divergedAccesses, diverged) << what;
                else
                    EXPECT_GE(pass.divergedAccesses, diverged) << what;
                if (tier) {
                    EXPECT_GT(pass.laneAccesses, 0u) << what;
                    if (c.diverges) {
                        EXPECT_GT(pass.divergedAccesses, 0u) << what;
                    }
                }
            }
        }
    }
}

/** Where the delta-class kernel puts its accesses: page-loop stack
 *  stores at sp + kStackOff + p * 4096, a stack load at sp + kLoadSlot
 *  after a global store at pages + kStoreOff, a stack store at sp +
 *  kStoreSlot before a global load at pages + kLoadOff. */
constexpr std::int64_t kStackPages = 12;
constexpr std::int64_t kFrame = (kStackPages + 1) * 4096;
constexpr std::int64_t kStackOff = 0x104; // 4 mod 8: may cross a page
constexpr std::int64_t kLoadSlot = kStackOff + 12;
constexpr std::int64_t kStoreSlot = kStackOff + 28;
constexpr std::int64_t kStoreOff = 0x300;
constexpr std::int64_t kLoadOff = 0x500;

/**
 * A kernel whose DTLB and store-buffer outcomes hang on where its stack
 * sits.  It first reads the low half of @p data_pages global pages;
 * then each trip touches kStackPages stack pages and the @p data_pages
 * global pages, interleaved, then a global store before a stack load
 * and a stack store before a global load (4K-aliasing pairs).  With
 * kStackPages + data_pages equal to the DTLB's entries, a layout whose
 * page-loop stores cross a page touches one page too many and misses on
 * every access.
 */
std::shared_ptr<const toolchain::LinkedProgram>
deltaClassProgram(std::int64_t data_pages, std::int64_t trips = 40)
{
    using namespace isa;
    ProgramBuilder b("delta_classes");
    b.global("pages", std::uint64_t(data_pages + 1) * 4096);
    b.func("main");
    b.la(reg::s3, "pages");
    for (std::int64_t i = 0; i <= data_pages / 2; ++i)
        b.ld8(reg::t3, reg::s3, i * 4096);
    b.li(reg::t0, trips);
    b.li(reg::s0, 0);
    b.label("loop");
    b.addi(reg::sp, reg::sp, -kFrame);
    for (std::int64_t i = 0; i < std::max(kStackPages, data_pages); ++i) {
        if (i < kStackPages)
            b.st8(reg::t0, reg::sp, kStackOff + i * 4096);
        if (i < data_pages) {
            b.ld8(reg::t1, reg::s3, i * 4096);
            b.add(reg::s0, reg::s0, reg::t1);
        }
    }
    b.st8(reg::t0, reg::s3, kStoreOff);
    b.addi(reg::t2, reg::t0, 1);
    b.ld8(reg::t1, reg::sp, kLoadSlot);
    b.add(reg::s0, reg::s0, reg::t1);
    b.st8(reg::t2, reg::sp, kStoreSlot);
    b.ld8(reg::t1, reg::s3, kLoadOff);
    b.add(reg::s0, reg::s0, reg::t1);
    b.addi(reg::sp, reg::sp, kFrame);
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

/**
 * A kernel whose stack page stays live in the DTLB while half its
 * @p entries of global pages pass it.  It first reads entries + 4
 * global pages, so the non-stack pages fill the DTLB; then each trip
 * stores to stack page A, reads entries / 2 + 2 global pages, and
 * stores to stack page B and to A again, which hits.
 */
std::shared_ptr<const toolchain::LinkedProgram>
liveStackPageProgram(std::int64_t entries, std::int64_t trips = 20)
{
    using namespace isa;
    ProgramBuilder b("live_stack_page");
    b.global("pages", std::uint64_t(entries + 5) * 4096);
    b.func("main");
    b.la(reg::s3, "pages");
    for (std::int64_t i = 0; i < entries + 4; ++i)
        b.ld8(reg::t3, reg::s3, i * 4096);
    b.li(reg::t0, trips);
    b.li(reg::s0, 0);
    b.label("loop");
    b.addi(reg::sp, reg::sp, -3 * 4096);
    b.st8(reg::t0, reg::sp, 0x100);
    for (std::int64_t i = 0; i < entries / 2 + 2; ++i) {
        b.ld8(reg::t1, reg::s3, i * 4096);
        b.add(reg::s0, reg::s0, reg::t1);
    }
    b.st8(reg::t0, reg::sp, 4096 + 0x100);
    b.st8(reg::t0, reg::sp, 0x100);
    b.addi(reg::sp, reg::sp, 3 * 4096);
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

TEST(ReplayDifferential, DeltaClassesShareTlbAndStoreBuffer)
{
    // A lane pass keeps one DTLB and one store buffer for all its
    // lanes, in the recording's coordinates, and decides per delta
    // class (the lanes of one stack delta) only what a delta changes.
    // The lanes here are chosen so that a delta changes each outcome:
    // the page-loop stores cross a page in one class only, which
    // overflows the DTLB there; a stack load 4K-aliases the global
    // store before it in one class (two lanes), and the global load
    // after a stack store in another.  Three more lanes put the stack
    // below the globals, and inside their pages: among the pages read
    // before the loop, and above them, where the loop's global pages
    // reach it later.  There a lane's stack pages meet the non-stack
    // pages, which the pass's one DTLB cannot time, so the pass runs
    // each of them alone, as a replay fallback: three in the pass and
    // three in their one-lane passes.  On every backend, quiet and
    // under noise, each lane must equal the oracle and its own
    // one-lane pass, and DtlbMisses and AliasStalls must differ across
    // lanes.
    const std::uint64_t budget = 500'000'000;
    const bool tier = replayTierActive();
    auto noisy = laneNoiseShapes().back().second;
    for (const auto &backend : sim::MachineRegistry::global().backends()) {
        const auto &mc = backend.config;
        const std::int64_t dataPages =
            std::int64_t(mc.dtlb.entries) - kStackPages;
        const auto prog = deltaClassProgram(dataPages);
        const Addr pages = prog->globalAddr("pages");
        const auto load = [&](std::uint64_t env, Addr stack_top = 0) {
            toolchain::LoaderConfig lc;
            lc.envBytes = env;
            if (stack_top)
                lc.stackTop = stack_top;
            return toolchain::Loader::load(prog, lc);
        };
        // The in-page residues each condition needs, at sp = initialSp
        // - kFrame inside the loop.
        const auto residue = [](Addr a) { return a & 4095; };
        const auto crosses = [&](Addr sp) {
            return residue(sp + kStackOff) == 4092;
        };
        const auto loadAliases = [&](Addr sp) {
            return residue(sp + kLoadSlot) == residue(pages + kStoreOff);
        };
        const auto storeAliases = [&](Addr sp) {
            return residue(sp + kStoreSlot) == residue(pages + kLoadOff);
        };
        // The page-loop stores against the global loads: kept out.
        const auto stray = [&](Addr sp) {
            return residue(sp + kStackOff) == residue(pages + kLoadOff) ||
                   residue(sp + kStackOff) == residue(pages);
        };
        const auto envWhere = [&](auto want) {
            for (std::uint64_t env = 0; env < 8192; env += 4) {
                const Addr sp = load(env).initialSp - kFrame;
                const int hits = int(crosses(sp)) + int(loadAliases(sp)) +
                                 int(storeAliases(sp));
                if (want(sp) && hits <= 1 && !stray(sp))
                    return env;
            }
            ADD_FAILURE() << "no env size has the wanted layout";
            return std::uint64_t(0);
        };
        const std::uint64_t home = envWhere([&](Addr sp) {
            return !crosses(sp) && !loadAliases(sp) && !storeAliases(sp);
        });
        const std::uint64_t cross = envWhere(crosses);
        const std::uint64_t aliasLoad = envWhere(loadAliases);
        const std::uint64_t aliasStore = envWhere(storeAliases);
        // Below the code, and in the global pages from page 3 and from
        // just above the ones read first (sp at 0x800 into a page: the
        // stack bytes miss every global byte the kernel touches).
        const Addr below = 0x300000;
        const auto inside = [&](std::int64_t page) {
            return alignDown(pages, 4096) +
                   Addr(page + kStackPages + 1) * 4096 + 0x840;
        };

        Family f;
        f.images = {load(home),      load(cross),     load(aliasLoad),
                    load(aliasStore), load(aliasLoad), load(0, below),
                    load(0, inside(3)), load(0, inside(dataPages / 2 + 1))};
        for (const auto &variant : {sim::NoiseModel::none(), noisy}) {
            f.noises.clear();
            for (std::size_t k = 0; k < f.images.size(); ++k) {
                sim::NoiseModel m = variant;
                m.seed = 0xc1a55 + k;
                f.noises.push_back(m);
            }
            const std::string what =
                mc.name + (variant.enabled ? " under noise" : " quiet");
            const auto before = sim::ReplayCache::global().stats();
            expectLanesIdentical(mc, f, what);
            const auto after = sim::ReplayCache::global().stats();
            if (tier) {
                EXPECT_GT(after.classDecisions, before.classDecisions)
                    << what;
                EXPECT_EQ(after.fallbacks - before.fallbacks, 6u) << what;
            }
        }

        // The layouts move only timing, and move it where intended.
        std::set<std::uint64_t> dtlb, alias;
        const auto ref = plainRun(mc, f.images[0], budget,
                                  sim::NoiseModel::none());
        for (const auto &image : f.images) {
            const auto r = plainRun(mc, image, budget, sim::NoiseModel::none());
            EXPECT_EQ(r.result, ref.result) << mc.name;
            EXPECT_EQ(r.instructions(), ref.instructions()) << mc.name;
            dtlb.insert(r.counters.get(sim::Counter::DtlbMisses));
            alias.insert(r.counters.get(sim::Counter::AliasStalls));
        }
        EXPECT_GT(dtlb.size(), 1u) << mc.name << ": DtlbMisses all equal";
        if (mc.enableStoreBufferAliasing) {
            EXPECT_GT(alias.size(), 1u)
                << mc.name << ": AliasStalls all equal";
        }

        // A class's stack page stays in the DTLB until n newer pages
        // pass it, whatever their kind: one that only half the
        // entries' worth of non-stack pages passed must still hit.
        const auto live =
            liveStackPageProgram(std::int64_t(mc.dtlb.entries));
        Family g;
        for (const std::uint64_t env : {0u, 1000u, 5000u}) {
            toolchain::LoaderConfig lc;
            lc.envBytes = env;
            g.images.push_back(toolchain::Loader::load(live, lc));
            g.noises.push_back(sim::NoiseModel::none());
        }
        expectLanesIdentical(mc, g, mc.name + ": a live stack page");
    }
}

/** µRISC of a kernel that works on its stack and returns its stack
 *  pointer: its a0 moves with the stack. */
std::vector<isa::Module>
spReturningModules()
{
    using namespace isa;
    ProgramBuilder b("sp_return");
    b.func("main");
    b.li(reg::t0, 200);
    b.label("loop");
    b.addi(reg::sp, reg::sp, -16);
    b.st8(reg::t0, reg::sp, 0);
    b.ld8(reg::t1, reg::sp, 0);
    b.addi(reg::sp, reg::sp, 16);
    b.addi(reg::t0, reg::t1, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::sp);
    b.halt();
    b.endFunc();
    return {b.build()};
}

/** spReturningModules as a registered workload, so the runner's lane
 *  families can run it. */
class SpReturning : public workloads::Workload
{
  public:
    std::string name() const override { return "sp_return"; }
    std::string archetype() const override { return "none"; }
    std::string description() const override { return "returns sp"; }
    std::vector<isa::Module>
    build(const workloads::WorkloadConfig &) const override
    {
        return spReturningModules();
    }
    std::uint64_t
    referenceResult(const workloads::WorkloadConfig &) const override
    {
        return 0; // the result is the stack pointer: layout-dependent
    }
};

TEST(ReplayDifferential, ResultSurvivesStackMoves)
{
    // a0 is a value, not an access: replay must return the recorded
    // result at any stack base, never one shifted by the sp delta.
    // Every suite kernel is recorded at env 100, then replayed at other
    // env sizes and ASLR draws, one lane at a time and as one lane
    // pass; each whole RunResult, result included, must equal the
    // oracle's.
    const std::uint64_t budget = 500'000'000;
    const auto mc = sim::MachineConfig::core2Like();
    const auto none = sim::NoiseModel::none();
    auto noisy = laneNoiseShapes().back().second;
    noisy.seed = 3;
    for (const auto *w : workloads::suite()) {
        const std::string name = w->name();
        const auto home = imageFor(name, toolchain::LinkOrder::asGiven(), 100);
        const auto load = [&](std::uint64_t env, std::uint64_t aslr) {
            toolchain::LoaderConfig lc;
            lc.envBytes = env;
            lc.aslrSeed = aslr;
            return toolchain::Loader::load(home.program, lc);
        };
        Family f;
        f.images = {load(1000, 0), load(2900, 0), load(100, 7),
                    load(1000, 8)};
        f.noises = {none, noisy, none, none};
        sim::Machine machine(mc);
        std::shared_ptr<const sim::FunctionalTrace> trace;
        machine.runRecord(home, budget, none, &trace);
        if (replayTierActive()) {
            ASSERT_NE(trace, nullptr) << name;
        }
        const sim::FunctionalTrace unused; // the fallback never reads it
        const sim::FunctionalTrace &stream = trace ? *trace : unused;
        const auto lanes = f.lanes();
        const auto pass = machine.runReplayLanes(stream, budget, lanes);
        ASSERT_EQ(pass.size(), lanes.size()) << name;
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            const auto &lane = lanes[k];
            ASSERT_NE(lane.image->initialSp, home.initialSp) << name;
            const auto ref = plainRun(mc, *lane.image, budget, lane.noise);
            sim::Machine single(mc);
            const auto one =
                single.runReplay(*lane.image, budget, lane.noise, stream);
            EXPECT_EQ(one, ref)
                << name << " lane " << k << ": one-lane replay diverged"
                << " (result " << one.result << " vs " << ref.result << ")";
            EXPECT_EQ(pass[k], ref)
                << name << " lane " << k << ": lane pass diverged"
                << " (result " << pass[k].result << " vs " << ref.result
                << ")";
        }
    }

    // A kernel returning its stack pointer: its a0 moves with the
    // stack, which nothing in a recording can tell from a checksum, so
    // the recording is flagged and serves only its own stack base.
    const auto prog = std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link(spReturningModules()));
    const auto spHome = kernelImage(prog);
    const auto spMoved = kernelImage(prog, 5);
    ASSERT_NE(spHome.initialSp, spMoved.initialSp);
    sim::Machine machine(mc);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto rec = machine.runRecord(spHome, budget, none, &trace);
    EXPECT_EQ(rec.result, spHome.initialSp);
    EXPECT_EQ(plainRun(mc, spMoved, budget, none).result, spMoved.initialSp);
    if (replayTierActive()) {
        ASSERT_NE(trace, nullptr);
        EXPECT_TRUE(trace->resultOnStack);
        EXPECT_TRUE(trace->matches(spHome, budget));
        EXPECT_FALSE(trace->matches(spMoved, budget))
            << "a stack-valued result must not replay at another sp";
        EXPECT_EQ(machine.runReplay(spHome, budget, noisy, *trace),
                  plainRun(mc, spHome, budget, noisy));
    }

    // Through the runner: lanes at the recorded stack base still share
    // the recording, and the moved lane falls back to a run of its own.
    workloads::Registry::instance().tryAdd(std::make_unique<SpReturning>(),
                                           "test");
    const auto spec = core::ExperimentSpec().withWorkload("sp_return");
    core::ExperimentRunner runner(spec);
    const std::vector<core::Lane> lanes = {
        {100, 0, none}, {100, 0, noisy}, {1000, 0, none}};
    const auto before = sim::ReplayCache::global().stats();
    const auto got = runner.runFamily(spec.baseline, false, lanes);
    const auto after = sim::ReplayCache::global().stats();
    ASSERT_EQ(got.size(), lanes.size());
    core::ExperimentSetup at100, at1000;
    at100.envBytes = 100;
    at1000.envBytes = 1000;
    EXPECT_EQ(got[0], runner.runSide(spec.baseline, at100));
    EXPECT_EQ(got[2], runner.runSide(spec.baseline, at1000));
    EXPECT_NE(got[0].result, got[2].result);
    EXPECT_EQ(got[1].result, got[0].result);
    EXPECT_EQ(runner.metricOf(got[1]),
              runner.repeatedMetric(spec.baseline, at100, 1, noisy.seed, noisy)
                  .mean());
    if (replayTierActive()) {
        EXPECT_EQ(after.records - before.records, 1u);
        EXPECT_EQ(after.replays - before.replays, 1u);
        EXPECT_EQ(after.fallbacks - before.fallbacks, 1u);
    }
}

TEST(ReplayDifferential, SimSpansBookEveryInstructionOnce)
{
    // A traced lane family that records lane 0, times two lanes in one
    // pass (each then handed out by a served runReplay call) and runs
    // the lane at a moved stack base on its own, since sp_return's a0
    // is its stack pointer: every simulated instruction is booked on
    // exactly one sim.* span, so their insts add up to the results'.
    // Under the hatches every lane is a plain run and the sum holds
    // the same way.
    workloads::Registry::instance().tryAdd(std::make_unique<SpReturning>(),
                                           "test");
    const auto none = sim::NoiseModel::none();
    auto noisy = laneNoiseShapes().back().second;
    noisy.seed = 3;
    for (const auto &mc : {sim::MachineConfig::core2Like(),
                           sim::MachineConfig::inorderLike()}) {
        const auto spec =
            core::ExperimentSpec().withWorkload("sp_return").withMachine(mc);
        core::ExperimentRunner runner(spec);
        std::vector<core::Lane> lanes = {
            {100, 0, none}, {100, 0, noisy}, {1000, 0, none}, {100, 0, noisy}};
        lanes[3].noise.seed = 4;
        sim::ReplayCache::global().clear(); // so lane 0 is recorded
        const auto before = sim::ReplayCache::global().stats();
        auto &tracer = obs::Tracer::global();
        tracer.start();
        const auto got = runner.runFamily(spec.baseline, false, lanes);
        tracer.stop();
        const auto after = sim::ReplayCache::global().stats();
        ASSERT_EQ(got.size(), lanes.size());
        std::uint64_t retired = 0;
        for (const sim::RunResult &rr : got)
            retired += rr.instructions();

        std::istringstream events(tracer.chromeJson());
        std::uint64_t booked = 0;
        std::size_t simSpans = 0;
        for (std::string line; std::getline(events, line);) {
            if (line.find("\"name\":\"sim.") == std::string::npos)
                continue;
            ++simSpans;
            const auto at = line.find("\"insts\":");
            ASSERT_NE(at, std::string::npos) << "no insts: " << line;
            booked += std::stoull(line.substr(at + 8));
        }
        EXPECT_EQ(booked, retired) << mc.name;
        EXPECT_GE(simSpans, 3u) << mc.name << ": record, pass, fallback";
        if (replayTierActive()) {
            EXPECT_EQ(after.records - before.records, 1u) << mc.name;
            EXPECT_EQ(after.lanePasses - before.lanePasses, 1u) << mc.name;
            EXPECT_EQ(after.replays - before.replays, 2u) << mc.name;
            EXPECT_EQ(after.fallbacks - before.fallbacks, 1u) << mc.name;
        }
    }
}

TEST(ReplayDifferential, LiveWalksLeaveReplayStatsAlone)
{
    // A live walk times its one lane on the lane pass's memory type,
    // but it is no lane pass: run() and runRecord(), on the trace tier
    // and off it, quiet or noisy, in a trace session or outside one,
    // book nothing into the lane-pass stats.
    const auto image =
        imageFor("perl", toolchain::LinkOrder::shuffled(2), 300);
    const std::uint64_t budget = 200'000;
    for (const bool tier : {true, false}) {
        for (const bool session : {true, false}) {
            const std::string what =
                std::string(tier ? "trace tier" : "fast tier") +
                (session ? ", traced" : ", untraced");
            sim::Machine machine(sim::MachineConfig::core2Like());
            machine.setUseTracePath(tier);
            auto &tracer = obs::Tracer::global();
            if (session)
                tracer.start();
            const auto before = sim::ReplayCache::global().stats();
            machine.run(image, budget);
            machine.run(image, budget, sim::NoiseModel::withSeed(7));
            std::shared_ptr<const sim::FunctionalTrace> trace;
            machine.runRecord(image, budget, sim::NoiseModel::withSeed(8),
                              &trace);
            const auto after = sim::ReplayCache::global().stats();
            tracer.stop();
            EXPECT_EQ(after.lanePasses, before.lanePasses) << what;
            EXPECT_EQ(after.laneAccesses, before.laneAccesses) << what;
            EXPECT_EQ(after.divergedAccesses, before.divergedAccesses)
                << what;
        }
    }
}

} // namespace
