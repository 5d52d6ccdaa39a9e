/**
 * @file
 * The machine-backend layer's contract: every backend in the
 * MachineRegistry must run every tier it declares with bitwise
 * identical results, and must *assert its fallback* for every tier it
 * does not — the in-order core declares no trace support, so its
 * trace-tier requests silently take the plain fast path, and its
 * record/replay runs batch nothing.  On top of the per-backend
 * four-tier differential this file pins the registry's shape (paper
 * presets first, in paper order), the ad-hoc-config capability
 * derivation, the DVFS noise factor's reference-vs-plan transcription
 * on both core models, and the in-order policy's observable
 * properties (exposed stalls, fetch-realignment charges).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "sim/machine.hh"
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
    auto prog = std::make_shared<const toolchain::LinkedProgram>(
        linker.link(mods, order));
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    return toolchain::Loader::load(std::move(prog), lc);
}

/** Mirrors replay_differential_test's hatch probe: whether runRecord/
 *  runReplay can reach the replay tier in this process at all. */
bool
replayTierActive()
{
    if (sim::replayDisabledByEnv())
        return false;
    return !sim::referenceForcedByEnv();
}

/**
 * One backend through all four tiers on one image: reference (fast
 * path forced off), fast (trace toggled off), trace (everything on —
 * which for a no-trace backend must assert its fallback via
 * traceTierUsable), and record/replay under a noise seed.  Every
 * result must equal the reference bits.
 */
void
expectFourTierIdentical(const sim::MachineBackend &backend,
                        const toolchain::ProcessImage &image,
                        const std::string &what)
{
    const std::uint64_t budget = 500'000'000;

    sim::Machine reference(backend.config);
    reference.setUseFastPath(false);
    const auto ref = reference.run(image, budget);
    ASSERT_TRUE(ref.halted) << what;

    sim::Machine fast(backend.config);
    fast.setUseTracePath(false);
    EXPECT_EQ(fast.run(image, budget), ref)
        << what << ": fast tier diverged from reference";

    sim::Machine full(backend.config);
    EXPECT_EQ(sim::traceTierUsable(full) && !backend.tiers.trace, false)
        << what << ": trace tier usable despite the backend declaring "
        << "no support";
    EXPECT_EQ(full.run(image, budget), ref)
        << what << (backend.tiers.trace
                        ? ": trace tier diverged from reference"
                        : ": trace-tier fallback diverged from reference");

    // Record under one noise seed, replay under another; each must
    // match the plain (reference-interpreted, since noise is on) run
    // of the same seed.  Unsupported replay must leave the trace null.
    sim::Machine rr(backend.config);
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto noise0 = sim::NoiseModel::withSeed(0xc04f + ref.result % 7);
    const auto rec = rr.runRecord(image, budget, noise0, &trace);
    sim::Machine plain0(backend.config);
    EXPECT_EQ(rec, plain0.run(image, budget, noise0))
        << what << ": recording run diverged";
    if (!replayTierActive() || !backend.tiers.replay) {
        EXPECT_EQ(trace, nullptr)
            << what << ": unsupported replay must fall back traceless";
        return;
    }
    ASSERT_NE(trace, nullptr) << what << ": recording aborted";
    const auto noise1 = sim::NoiseModel::withSeed(noise0.seed + 1);
    sim::Machine plain1(backend.config);
    EXPECT_EQ(rr.runReplay(image, budget, noise1, *trace),
              plain1.run(image, budget, noise1))
        << what << ": replay diverged";
}

TEST(BackendConformance, RegistryShape)
{
    const auto &reg = sim::MachineRegistry::global();
    // Paper presets lead, in paper order, and allPresets() forwards to
    // exactly them — the invariant every pinned golden rests on.
    const auto presets = sim::MachineConfig::allPresets();
    ASSERT_EQ(presets.size(), 3u);
    EXPECT_EQ(presets[0].name, "p4like");
    EXPECT_EQ(presets[1].name, "core2like");
    EXPECT_EQ(presets[2].name, "o3like");
    ASSERT_GE(reg.backends().size(), 4u);
    for (std::size_t i = 0; i < presets.size(); ++i) {
        EXPECT_EQ(reg.backends()[i].config.name, presets[i].name);
        EXPECT_TRUE(reg.backends()[i].paperPreset);
        EXPECT_EQ(reg.backends()[i].coreModel, "out-of-order");
    }
    const auto *inorder = reg.byName("inorderlike");
    ASSERT_NE(inorder, nullptr);
    EXPECT_FALSE(inorder->paperPreset);
    EXPECT_EQ(inorder->coreModel, "in-order");
    EXPECT_TRUE(inorder->tiers.fast);
    EXPECT_FALSE(inorder->tiers.trace); // batch guards assume the OoO
                                        // window model
    EXPECT_TRUE(inorder->tiers.replay);
    EXPECT_EQ(reg.byName("nosuch"), nullptr);
    EXPECT_NE(reg.namesJoined().find("inorderlike"), std::string::npos);
}

TEST(BackendConformance, AdHocConfigsInheritCoreKindTiers)
{
    // A tweaked copy of a preset (renamed, so the registry lookup
    // misses) derives its capabilities from its core kind.
    auto tweaked = sim::MachineConfig::inorderLike();
    tweaked.name = "inorder_tweaked";
    tweaked.fetchRealignPenalty = 3;
    const auto tiers = sim::MachineRegistry::tiersFor(tweaked);
    EXPECT_TRUE(tiers.fast);
    EXPECT_FALSE(tiers.trace);
    EXPECT_TRUE(tiers.replay);

    auto ooo = sim::MachineConfig::core2Like();
    ooo.name = "core2_tweaked";
    EXPECT_TRUE(sim::MachineRegistry::tiersFor(ooo).trace);

    // A name collision with a *different* core kind must not borrow
    // the registered backend's declaration.
    auto impostor = sim::MachineConfig::core2Like();
    impostor.core = sim::CoreKind::InOrder;
    EXPECT_FALSE(sim::MachineRegistry::tiersFor(impostor).trace);

    sim::Machine machine(tweaked);
    EXPECT_FALSE(machine.tierSupport().trace);
    EXPECT_FALSE(sim::traceTierUsable(machine));
}

TEST(BackendConformance, FourTierDifferentialEveryBackend)
{
    // Every registered backend over a few setups of two workloads with
    // different character (pointer-chasing vs branchy integer), each
    // in its own layout family.
    const auto &reg = sim::MachineRegistry::global();
    std::size_t b = 0;
    for (const auto &backend : reg.backends()) {
        const std::uint64_t env = (911 * b * b) % 4096;
        const auto order = b % 2 ? toolchain::LinkOrder::shuffled(0xbac + b)
                                 : toolchain::LinkOrder::asGiven();
        expectFourTierIdentical(backend, imageFor("mcf", order, env),
                                backend.config.name + "/mcf env=" +
                                    std::to_string(env));
        expectFourTierIdentical(
            backend, imageFor("sjeng", order, 4096 - env),
            backend.config.name + "/sjeng env=" +
                std::to_string(4096 - env));
        ++b;
    }
}

TEST(BackendConformance, DvfsNoiseAcrossTiers)
{
    // The DVFS factor's reference-loop and plan-loop transcriptions
    // must agree bitwise on both core models: record under combined
    // interrupt+DVFS noise, replay under fresh seeds, each against the
    // plain (reference-interpreted) run of the same model.
    const auto image =
        imageFor("hmmer", toolchain::LinkOrder::shuffled(5), 300);
    const std::uint64_t budget = 500'000'000;
    for (const char *name : {"core2like", "inorderlike"}) {
        const auto *backend =
            sim::MachineRegistry::global().byName(name);
        ASSERT_NE(backend, nullptr);
        sim::Machine machine(backend->config);
        std::shared_ptr<const sim::FunctionalTrace> trace;
        auto noise0 = sim::NoiseModel::withDvfs(0x1d7f);
        // Tighten the governor so several steps land inside this
        // workload's ~10^5-cycle run (the default interval is sized
        // for longer runs and can miss it entirely).
        noise0.dvfsMeanIntervalCycles = 20000;
        noise0.dvfsMeanResidencyCycles = 5000;
        const auto rec = machine.runRecord(image, budget, noise0, &trace);
        sim::Machine plain(backend->config);
        EXPECT_EQ(rec, plain.run(image, budget, noise0))
            << name << ": DVFS recording diverged";
        // The factor must actually perturb timing relative to
        // interrupt-only noise of the same seed.
        auto interrupts_only = noise0;
        interrupts_only.dvfsEnabled = false;
        EXPECT_NE(rec.cycles(),
                  plain.run(image, budget, interrupts_only).cycles())
            << name << ": DVFS steps changed nothing";
        if (!replayTierActive())
            continue;
        ASSERT_NE(trace, nullptr) << name;
        for (std::uint64_t s = 1; s <= 2; ++s) {
            auto noise = noise0;
            noise.seed += s;
            noise.dvfsSlowdownPercent = 40;
            sim::Machine fresh(backend->config);
            EXPECT_EQ(machine.runReplay(image, budget, noise, *trace),
                      fresh.run(image, budget, noise))
                << name << ": DVFS replay diverged at seed +" << s;
        }
    }
}

TEST(BackendConformance, InOrderPolicyProperties)
{
    // Same geometry, swapped core policy: the in-order model may hide
    // nothing, so with a nonzero OoO window the same image can only
    // get slower.  Enabling the fetch-realignment charge slows it
    // further (taken transfers into mid-block targets now refetch).
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::asGiven(), 512);
    auto ooo = sim::MachineConfig::core2Like();
    auto in_order = ooo;
    in_order.name = "core2_inorder_twin";
    in_order.core = sim::CoreKind::InOrder;
    in_order.fetchRealignPenalty = 0;

    sim::Machine a(ooo), b(in_order);
    const auto ra = a.run(image);
    const auto rb = b.run(image);
    EXPECT_EQ(ra.result, rb.result) << "core policy must not change "
                                       "functional behavior";
    EXPECT_EQ(ra.instructions(), rb.instructions());
    EXPECT_GT(rb.cycles(), ra.cycles());
    EXPECT_GT(rb.counters.get(sim::Counter::StallCycles),
              ra.counters.get(sim::Counter::StallCycles));

    auto realign = in_order;
    realign.fetchRealignPenalty = 2;
    sim::Machine c(realign);
    EXPECT_GT(c.run(image).cycles(), rb.cycles())
        << "fetch-realignment charge had no effect";
}

} // namespace
