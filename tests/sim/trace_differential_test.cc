/**
 * @file
 * The trace tier's contract, held the same strong way as the fast
 * path's: for every workload of the suite, across setups, machine
 * presets, and every ablation switch, the superblock-batched
 * interpreter must produce a RunResult — cycles AND every performance
 * counter — bitwise identical to BOTH the reference interpreter and
 * the plan-based fast path.  On top of the three-tier differential,
 * this file pins the TracePlan's structural invariants, the
 * geometry-keyed TraceCache, the MBIAS_SIM_TRACE=0 escape hatch, the
 * guard-fallback path (a machine whose OoO window rejects every
 * batch), and that attribution output is unaffected by the tier's
 * existence.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "isa/builder.hh"
#include "sim/attribution.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"
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

enum class Tier { Reference, Fast, Trace };

/** The replay-tier provenance suffix activeSimTierDescription appends
 *  to the fast/trace descriptions (sim/replay.hh hatches). */
const char *const kReplaySuffix = sim::replayDisabledByEnv()
                                      ? " (replay: MBIAS_SIM_REPLAY=0)"
                                      : " + replay";

/** Whether a Tier::Trace run actually reaches the trace tier right
 *  now — false under the MBIAS_SIM_TRACE=0 and MBIAS_SIM_REFERENCE=1
 *  ctest runs, where stats cannot grow. */
bool
traceTierActive()
{
    const char *e = std::getenv("MBIAS_SIM_TRACE");
    if (e && e[0] == '0' && e[1] == '\0')
        return false;
    const char *r = std::getenv("MBIAS_SIM_REFERENCE");
    return !(r && *r && !(r[0] == '0' && r[1] == '\0'));
}

sim::RunResult
runTier(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
        Tier tier, std::uint64_t max_insts = 500'000'000)
{
    sim::Machine machine(mc);
    machine.setUseFastPath(tier != Tier::Reference);
    machine.setUseTracePath(tier == Tier::Trace);
    return machine.run(image, max_insts);
}

void
expectAllTiersIdentical(const sim::MachineConfig &mc,
                        const toolchain::ProcessImage &image,
                        const std::string &what,
                        std::uint64_t max_insts = 500'000'000)
{
    const auto ref = runTier(mc, image, Tier::Reference, max_insts);
    const auto fast = runTier(mc, image, Tier::Fast, max_insts);
    const auto trace = runTier(mc, image, Tier::Trace, max_insts);
    EXPECT_EQ(fast, ref) << what << ": fast path diverged (cycles "
                         << fast.cycles() << " vs " << ref.cycles()
                         << ")";
    EXPECT_EQ(trace, ref) << what << ": trace tier diverged (cycles "
                          << trace.cycles() << " vs " << ref.cycles()
                          << ")";
}

/** A hot straight-line kernel: long simple runs, so the trace tier
 *  actually forms and commits superblocks (the stats tests assert it
 *  does). */
toolchain::ProcessImage
straightLineImage()
{
    using namespace isa;
    ProgramBuilder b("sb_kernel");
    b.func("main");
    b.li(reg::t0, 500);
    b.li(reg::s0, 0x1234);
    b.label("loop");
    for (int g = 0; g < 24; ++g) {
        b.addi(reg::s0, reg::s0, g + 1);
        b.xori(reg::s1, reg::s1, 0x5a5a);
        b.add(reg::s2, reg::s2, reg::s0);
        b.addi(reg::s3, reg::s3, 7);
    }
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.add(reg::s1, reg::s1, reg::s2);
    b.add(reg::s1, reg::s1, reg::s3);
    b.add(reg::s1, reg::s1, reg::s0);
    b.mv(reg::a0, reg::s1);
    b.halt();
    b.endFunc();
    auto prog = toolchain::Linker().link({b.build()});
    toolchain::LoaderConfig lc;
    lc.envBytes = 1024;
    return toolchain::Loader::load(std::move(prog), lc);
}

TEST(TraceDifferential, WholeSuiteAcrossSetups)
{
    // Every workload, each in its own setup (env size and link order
    // rotate with the suite index; a different stride than the
    // fast-path differential so the two tests pin different layouts).
    const auto &suite = workloads::suite();
    ASSERT_GE(suite.size(), 12u);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string name = suite[i]->name();
        const std::uint64_t env = (271 * i * i) % 4096;
        const auto order =
            i % 3 == 1 ? toolchain::LinkOrder::asGiven()
                       : toolchain::LinkOrder::shuffled(0x51ed + i);
        expectAllTiersIdentical(mc, imageFor(name, order, env),
                                name + " env=" + std::to_string(env));
    }
}

TEST(TraceDifferential, AllMachinePresets)
{
    // Each preset has its own geometry (fetch width, line size, page
    // size), so each gets its own TracePlan out of the cache.
    const auto image =
        imageFor("perl", toolchain::LinkOrder::shuffled(13), 2222);
    for (const auto &mc : sim::MachineConfig::allPresets())
        expectAllTiersIdentical(mc, image, "perl on " + mc.name);
}

TEST(TraceDifferential, EveryAblationSwitch)
{
    // Each ablation flips a branch of the batch math: noCaches drops
    // the line replay (geometry canonicalizes ilineBytes to 0),
    // noTlbs the page replay, noFetchBlocks the block-end term of the
    // fetch rows.  All must stay bitwise identical.
    const auto image =
        imageFor("sjeng", toolchain::LinkOrder::shuffled(5), 1536);
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
    for (const auto &[label, mutate] : variants) {
        auto mc = sim::MachineConfig::core2Like();
        mutate(mc);
        expectAllTiersIdentical(mc, image, std::string("sjeng ") + label);
    }
}

TEST(TraceDifferential, InstructionBudgetTruncation)
{
    // Budgets chosen to land *inside* superblocks: the batch guard
    // must refuse any batch that would overrun max_insts and fall
    // back to the per-op walk, truncating at the same instruction
    // with the same partial counters as the other tiers.
    const auto image = straightLineImage();
    const auto mc = sim::MachineConfig::core2Like();
    for (std::uint64_t budget :
         {1ull, 7ull, 97ull, 1000ull, 12'345ull}) {
        const auto ref = runTier(mc, image, Tier::Reference, budget);
        const auto fast = runTier(mc, image, Tier::Fast, budget);
        const auto trace = runTier(mc, image, Tier::Trace, budget);
        EXPECT_EQ(fast, ref) << "truncated at " << budget << " insts";
        EXPECT_EQ(trace, ref) << "truncated at " << budget << " insts";
    }
    EXPECT_FALSE(runTier(mc, image, Tier::Trace, 100).halted);
}

TEST(TraceDifferential, GuardFallbackStaysIdentical)
{
    // A machine whose OoO window cannot absorb even a unit-latency
    // chain rejects every batch at the guard; the per-op fallback
    // must still be bitwise identical (and the stats must show the
    // fallbacks happened, proving this path was actually taken).
    const auto image = straightLineImage();
    auto mc = sim::MachineConfig::core2Like();
    mc.oooWindowCycles = 0;
    const auto before = sim::TraceCache::global().stats();
    expectAllTiersIdentical(mc, image, "oooWindow=0 fallback");
    const auto after = sim::TraceCache::global().stats();
    if (traceTierActive())
        EXPECT_GT(after.fallbacks, before.fallbacks)
            << "guard never fired; the test exercised nothing";
    else
        EXPECT_EQ(after.fallbacks, before.fallbacks);
}

TEST(TraceDifferential, BatchesActuallyCommit)
{
    // The inverse check: on a straight-line-heavy kernel with a sane
    // machine, superblocks must form and commit (ops batched grows).
    // Without this, every differential above could pass vacuously.
    const auto image = straightLineImage();
    const auto before = sim::TraceCache::global().stats();
    const auto rr = runTier(sim::MachineConfig::core2Like(), image,
                            Tier::Trace);
    ASSERT_TRUE(rr.halted);
    const auto after = sim::TraceCache::global().stats();
    if (traceTierActive()) {
        EXPECT_GT(after.superblocks, before.superblocks);
        EXPECT_GT(after.opsBatched, before.opsBatched);
        EXPECT_GT(after.opsBatched - before.opsBatched,
                  rr.instructions() / 2)
            << "a straight-line kernel should batch most of its ops";
    } else {
        EXPECT_EQ(after.opsBatched, before.opsBatched);
    }
}

TEST(TraceDifferential, TracePlanStructureInvariants)
{
    // The plan is the fast plan with heads rewritten: every
    // kBatchOpcode points at its block, every block is long enough to
    // pay for itself, non-head ops are untouched, and the per-block
    // tables have the advertised shapes.
    const auto image =
        imageFor("hmmer", toolchain::LinkOrder::shuffled(17), 640);
    const auto mc = sim::MachineConfig::core2Like();
    const auto base = sim::ExecutionPlan::build(image.program);
    const auto g = sim::TraceGeometry::of(mc);
    const auto tp = sim::TracePlan::build(base, g);
    ASSERT_NE(tp, nullptr);
    ASSERT_EQ(tp->ops.size(), base->ops.size());
    EXPECT_EQ(tp->base.get(), base.get());
    EXPECT_TRUE(tp->geometry == g);
    ASSERT_FALSE(tp->blocks.empty()) << "hmmer has hot simple runs";

    std::size_t heads = 0;
    for (std::size_t i = 0; i < tp->ops.size(); ++i) {
        const auto &d = tp->ops[i];
        if (d.op == sim::kBatchOpcode) {
            ++heads;
            ASSERT_LT(d.targetIdx, tp->blocks.size());
            const auto &tb = tp->blocks[d.targetIdx];
            EXPECT_EQ(tb.headIdx, std::uint32_t(i));
            // The stashed head is the base op, for fallback dispatch.
            EXPECT_EQ(tb.headOp.op, base->ops[i].op);
            EXPECT_EQ(tb.headOp.pc, base->ops[i].pc);
        } else {
            EXPECT_EQ(d.op, base->ops[i].op) << "op " << i;
            EXPECT_EQ(d.imm, base->ops[i].imm) << "op " << i;
        }
    }
    EXPECT_EQ(heads, tp->blocks.size())
        << "every block has exactly one head";

    for (const auto &tb : tp->blocks) {
        EXPECT_GE(tb.len, sim::TracePlan::kMinRunLen);
        EXPECT_LE(tb.headIdx + tb.len, tp->ops.size());
        ASSERT_EQ(tb.rows.size(), std::size_t(mc.fetchWidth));
        EXPECT_EQ(tb.writeGroups.size(),
                  tb.writes.size() * mc.fetchWidth);
        for (std::size_t w = 1; w < tb.writes.size(); ++w)
            EXPECT_LT(tb.writes[w - 1].pos, tb.writes[w].pos)
                << "writes must ascend by position";
        for (const auto &f : tb.fnOps) {
            EXPECT_LE(std::uint8_t(f.op),
                      std::uint8_t(isa::Opcode::Li))
                << "fnOps must stay in the dense simple-op range";
            EXPECT_NE(f.rd, isa::reg::zero)
                << "zero-register writes are dropped at build";
        }
        EXPECT_LE(tb.fnOps.size(), tb.len);
        EXPECT_LE(tb.nopCount, tb.len);
        for (std::size_t l = 1; l < tb.lines.size(); ++l)
            EXPECT_LT(tb.lines[l - 1].line, tb.lines[l].line)
                << "code lines of an ascending run ascend";
    }
}

TEST(TraceDifferential, CacheKeysOnGeometry)
{
    // Two machines with different geometries must get two plans from
    // one base plan; asking again must hit.  A fresh local cache
    // keeps the test independent of the global cache's history.
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::asGiven(), 256);
    const auto base = sim::ExecutionPlan::build(image.program);

    auto core2 = sim::TraceGeometry::of(sim::MachineConfig::core2Like());
    auto ablated_mc = sim::MachineConfig::core2Like();
    ablated_mc.enableCaches = false;
    auto ablated = sim::TraceGeometry::of(ablated_mc);
    ASSERT_FALSE(core2 == ablated)
        << "disabling caches must change the fingerprint";
    EXPECT_EQ(ablated.ilineBytes, 0u)
        << "fields behind a disabled model canonicalize to zero";

    sim::TraceCache cache(8);
    const auto p1 = cache.get(base, core2);
    const auto p2 = cache.get(base, ablated);
    EXPECT_NE(p1.get(), p2.get());
    EXPECT_EQ(cache.get(base, core2).get(), p1.get());
    EXPECT_EQ(cache.get(base, ablated).get(), p2.get());
    const auto st = cache.stats();
    EXPECT_EQ(st.misses, 2u);
    EXPECT_EQ(st.hits, 2u);

    // Same-geometry machines share one plan even when non-geometry
    // config differs (latencies are run-time, not build-time, inputs).
    auto slow_div = sim::MachineConfig::core2Like();
    slow_div.intDivLatency = 99;
    EXPECT_TRUE(core2 == sim::TraceGeometry::of(slow_div));
}

TEST(TraceDifferential, EnvHatchDisablesTraceTier)
{
    // MBIAS_SIM_TRACE=0 is re-read per run: one process can flip the
    // tier off and back on, and the description string tracks it.
    // MBIAS_SIM_REFERENCE takes precedence over both, so it is unset
    // for the duration of the test.
    const char *old = std::getenv("MBIAS_SIM_TRACE");
    const std::string saved = old ? old : "";
    const char *oldRef = std::getenv("MBIAS_SIM_REFERENCE");
    const std::string savedRef = oldRef ? oldRef : "";
    ::unsetenv("MBIAS_SIM_REFERENCE");

    ::setenv("MBIAS_SIM_TRACE", "0", 1);
    EXPECT_EQ(sim::activeSimTierDescription(),
              std::string("fast (MBIAS_SIM_TRACE=0)") + kReplaySuffix);
    const auto image = straightLineImage();
    const auto mc = sim::MachineConfig::core2Like();
    const auto before = sim::TraceCache::global().stats();
    const auto hatched = runTier(mc, image, Tier::Trace);
    const auto after = sim::TraceCache::global().stats();
    EXPECT_EQ(after.opsBatched, before.opsBatched)
        << "the hatch must keep runs off the trace tier";

    ::setenv("MBIAS_SIM_TRACE", "1", 1);
    EXPECT_EQ(sim::activeSimTierDescription(),
              std::string("trace") + kReplaySuffix);
    const auto traced = runTier(mc, image, Tier::Trace);
    EXPECT_EQ(traced, hatched);

    if (old)
        ::setenv("MBIAS_SIM_TRACE", saved.c_str(), 1);
    else
        ::unsetenv("MBIAS_SIM_TRACE");
    if (oldRef)
        ::setenv("MBIAS_SIM_REFERENCE", savedRef.c_str(), 1);
}

TEST(TraceDifferential, AttributionUnaffected)
{
    // Attribution rides the reference path; interleaving trace-tier
    // runs (which share the global caches) must not move a single
    // attributed placement or counter.
    const auto image =
        imageFor("perl", toolchain::LinkOrder::shuffled(29), 512);
    const auto mc = sim::MachineConfig::core2Like();

    sim::Machine ref(mc);
    sim::Attribution a1;
    const auto r1 = ref.run(image, 500'000'000, sim::NoiseModel::none(),
                            nullptr, &a1);
    ASSERT_TRUE(r1.halted);

    const auto traced = runTier(mc, image, Tier::Trace);
    EXPECT_EQ(traced, r1);

    sim::Attribution a2;
    const auto r2 = ref.run(image, 500'000'000, sim::NoiseModel::none(),
                            nullptr, &a2);
    EXPECT_EQ(r2, r1);
    EXPECT_EQ(a2.str(), a1.str())
        << "trace runs perturbed attribution placement";
    EXPECT_EQ(a2.icache.totalMisses(), a1.icache.totalMisses());
    EXPECT_EQ(a2.pht.totalAliasSwitches(), a1.pht.totalAliasSwitches());
}

} // namespace
