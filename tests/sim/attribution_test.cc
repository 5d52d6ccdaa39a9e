/**
 * @file
 * Attribution-layer tests.  The contract under test is the one the
 * header states: attribution observes, never perturbs.  A run with an
 * Attribution sink attached must produce a bitwise-identical RunResult
 * (every counter, halted, result) to the same run without one — and to
 * the fast path, which never records attribution at all.  Content
 * expectations: misses land in sets, PHT entries remember their PCs.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "base/hash.hh"
#include "sim/attribution.hh"
#include "sim/machine.hh"
#include "sim/registry.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using sim::Attribution;
using sim::Counter;
using sim::Machine;
using sim::MachineConfig;

toolchain::ProcessImage
imageOf(const std::string &workload, std::uint64_t env = 0)
{
    const auto &w = workloads::findWorkload(workload);
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto prog = toolchain::Linker().link(cc.compile(w.build(cfg)));
    toolchain::LoaderConfig lc;
    lc.envBytes = env;
    return toolchain::Loader::load(std::move(prog), lc);
}

TEST(Attribution, RunResultIsBitwiseUnchanged)
{
    // The differential at the heart of the layer: fast path (never
    // attributes), plain reference, and attributed reference must all
    // agree bit for bit on every counter.
    for (const char *name : {"perl", "hmmer"}) {
        const auto image = imageOf(name);
        Machine m(MachineConfig::core2Like());

        const auto fast = m.run(image);

        m.setUseFastPath(false);
        const auto reference = m.run(image);

        Attribution attr;
        const auto attributed = m.run(image, 500'000'000,
                                      sim::NoiseModel::none(), nullptr,
                                      &attr);

        EXPECT_TRUE(fast.halted) << name;
        EXPECT_EQ(reference, fast) << name;
        EXPECT_EQ(attributed, fast)
            << name << ": attribution perturbed the run";
    }
}

TEST(Attribution, WithProfileStillBitwiseUnchanged)
{
    // Profile and attribution share the reference path; together they
    // still must not move a single counter.
    const auto image = imageOf("gobmk");
    Machine m(MachineConfig::core2Like());
    const auto plain = m.run(image);

    sim::Profile profile;
    Attribution attr;
    const auto observed = m.run(image, 500'000'000,
                                sim::NoiseModel::none(), &profile, &attr);
    EXPECT_EQ(observed, plain);
}

/** FNV-1a over every field of every FunctionProfile, in order. */
std::uint64_t
profileDigest(const sim::Profile &p)
{
    Fnv1a h;
    for (const auto &f : p.functions) {
        h.str(f.name);
        for (std::uint64_t v :
             {std::uint64_t(f.base), f.bytes, f.instructions,
              std::uint64_t(f.cycles), f.icacheMisses, f.dcacheMisses,
              f.branchMispredicts, f.lineSplits, f.aliasStalls, f.calls,
              f.l2Misses, f.itlbMisses, f.dtlbMisses, f.btbMisses,
              f.stallCycles, f.fetchGroups})
            h.u64(v);
    }
    return h.value();
}

/** FNV-1a over every public table of an Attribution, in order. */
std::uint64_t
attributionDigest(const Attribution &a)
{
    Fnv1a h;
    const auto vec = [&](const auto &v) {
        h.u64(v.size());
        for (const auto x : v)
            h.u64(std::uint64_t(x));
    };
    for (const sim::SetCounters *sc : {&a.icache, &a.dcache, &a.itlb,
                                       &a.dtlb}) {
        h.u64(sc->sets);
        h.u64(sc->ways);
        vec(sc->touches);
        vec(sc->misses);
        vec(sc->evictions);
    }
    for (const sim::TableCounters *tc : {&a.pht, &a.btb}) {
        h.u64(tc->entries);
        vec(tc->updates);
        vec(tc->aliasSwitches);
        vec(tc->pcs);
    }
    return h.value();
}

TEST(Attribution, ObservationDigestsArePinned)
{
    // What an observed run produces, pinned: a digest over every
    // Profile::functions field and every Attribution table, for three
    // workloads on both core models.  The values were recorded before
    // observation moved from the reference interpreter into the plan
    // loop's observer policy, so any drift in where an event is
    // booked fails here.
    struct Pin
    {
        const char *workload;
        const char *machine;
        std::uint64_t profile;
        std::uint64_t attribution;
    };
    const Pin pins[] = {
        {"perl", "core2like", 0xee1132acc5b3435bULL,
         0x5a19cd05844fb5a9ULL},
        {"hmmer", "core2like", 0x1e0e6ea44b7f9ba6ULL,
         0x1b262f793e0f7f62ULL},
        {"gobmk", "core2like", 0xb97af19b4fbc24baULL,
         0x45bca59440a03ef6ULL},
        {"perl", "inorderlike", 0xb6ec89b788b2cab9ULL,
         0x2beebd7bf1b38338ULL},
        {"hmmer", "inorderlike", 0xb4ea4dab27ff05d5ULL,
         0x5764a2507c000db1ULL},
        {"gobmk", "inorderlike", 0xafd355fd2fcf3866ULL,
         0x265d31b12b481cbdULL},
    };
    for (const Pin &pin : pins) {
        const auto *backend =
            sim::MachineRegistry::global().byName(pin.machine);
        ASSERT_NE(backend, nullptr) << pin.machine;
        const auto image = imageOf(pin.workload);
        Machine m(backend->config);
        sim::Profile profile;
        Attribution attr;
        const auto rr = m.run(image, Machine::kDefaultRunBudget,
                              sim::NoiseModel::none(), &profile, &attr);
        ASSERT_TRUE(rr.halted);
        EXPECT_EQ(profileDigest(profile), pin.profile)
            << pin.workload << " on " << pin.machine;
        EXPECT_EQ(attributionDigest(attr), pin.attribution)
            << pin.workload << " on " << pin.machine;
    }
}

TEST(Attribution, NoisyProfileDigestIsPinned)
{
    // Profiling accepts noise (attribution does not): interrupt and
    // DVFS charges land between two instructions and are booked to no
    // function.  Pinned like the noise-free digests above, on both
    // core models, with the run itself checked against the oracle.
    const std::pair<const char *, std::uint64_t> pins[] = {
        {"core2like", 0x75977fb533cafcc3ULL},
        {"inorderlike", 0x8284851ef7e0a5cdULL},
    };
    const auto image = imageOf("perl");
    const auto noise = sim::NoiseModel::withDvfs(7);
    for (const auto &[machine, digest] : pins) {
        const auto *backend = sim::MachineRegistry::global().byName(machine);
        ASSERT_NE(backend, nullptr) << machine;
        Machine m(backend->config);
        sim::Profile profile;
        const auto rr =
            m.run(image, Machine::kDefaultRunBudget, noise, &profile);
        ASSERT_TRUE(rr.halted);
        EXPECT_EQ(profileDigest(profile), digest) << machine;
        EXPECT_LT(profile.totalCycles(), rr.cycles()) << machine;

        Machine oracle(backend->config);
        oracle.setUseFastPath(false);
        EXPECT_EQ(oracle.run(image, Machine::kDefaultRunBudget, noise), rr)
            << machine;
    }
}

TEST(Attribution, ObservedRunEqualsPlainAndOracleEveryBackend)
{
    // Observation rides the plan loop on every backend; its RunResult
    // must equal the plain run and the reference oracle
    // (setUseFastPath(false)) bit for bit.
    for (const auto &backend : sim::MachineRegistry::global().backends()) {
        for (const char *name : {"perl", "gobmk"}) {
            const auto image = imageOf(name);
            Machine plain(backend.config);
            const auto expect = plain.run(image);
            ASSERT_TRUE(expect.halted);

            Machine oracle(backend.config);
            oracle.setUseFastPath(false);
            EXPECT_EQ(oracle.run(image), expect)
                << name << " on " << backend.config.name;

            Machine observed(backend.config);
            sim::Profile profile;
            Attribution attr;
            EXPECT_EQ(observed.run(image, Machine::kDefaultRunBudget,
                                   sim::NoiseModel::none(), &profile,
                                   &attr),
                      expect)
                << name << " on " << backend.config.name
                << ": observation perturbed the run";
            EXPECT_EQ(profile.totalCycles(), expect.cycles())
                << name << " on " << backend.config.name;
        }
    }
}

TEST(Attribution, TotalsReconcileWithPerfCounters)
{
    const auto image = imageOf("perl");
    Machine m(MachineConfig::core2Like());
    Attribution attr;
    const auto rr = m.run(image, 500'000'000, sim::NoiseModel::none(),
                          nullptr, &attr);
    ASSERT_TRUE(rr.halted);

    // Demand misses land one-for-one in the per-set counters; the
    // dcache additionally records prefetch fills, bounded by the
    // number of prefetches issued.
    EXPECT_EQ(attr.icache.totalMisses(),
              rr.counters.get(Counter::IcacheMisses));
    EXPECT_GE(attr.dcache.totalMisses(),
              rr.counters.get(Counter::DcacheMisses));
    EXPECT_LE(attr.dcache.totalMisses(),
              rr.counters.get(Counter::DcacheMisses) +
                  rr.counters.get(Counter::PrefetchesIssued));
    EXPECT_EQ(attr.itlb.totalMisses(),
              rr.counters.get(Counter::ItlbMisses));
    EXPECT_EQ(attr.dtlb.totalMisses(),
              rr.counters.get(Counter::DtlbMisses));

    // A structure can only miss on a touch.
    EXPECT_GE(attr.icache.totalTouches(), attr.icache.totalMisses());
    EXPECT_GE(attr.dcache.totalTouches(), attr.dcache.totalMisses());

    // One PHT record per executed conditional branch.
    const auto pht_updates =
        std::accumulate(attr.pht.updates.begin(), attr.pht.updates.end(),
                        std::uint64_t(0));
    EXPECT_EQ(pht_updates, rr.counters.get(Counter::BranchesExecuted));
}

TEST(Attribution, TableCountersRememberCollidingPcs)
{
    const auto image = imageOf("perl");
    Machine m(MachineConfig::core2Like());
    Attribution attr;
    const auto rr = m.run(image, 500'000'000, sim::NoiseModel::none(),
                          nullptr, &attr);
    ASSERT_TRUE(rr.halted);

    // perl's VM dispatch drives many branch PCs through a gshare
    // table: some entry must see more than one PC, and every recorded
    // PC slot must belong to an entry that was actually updated.
    bool saw_alias = false;
    for (std::size_t e = 0; e < attr.pht.entries; ++e) {
        const unsigned distinct = attr.pht.distinctPcs(e);
        if (distinct > 1)
            saw_alias = true;
        if (distinct > 0) {
            EXPECT_GT(attr.pht.updates[e], 0u) << "entry " << e;
        }
    }
    EXPECT_TRUE(saw_alias) << "no PHT entry saw two PCs";
    EXPECT_GT(attr.pht.totalAliasSwitches(), 0u);

    // The summary names each structure and is non-empty.
    const auto text = attr.str();
    for (const char *key : {"icache", "dcache", "itlb", "dtlb", "pht",
                            "btb"})
        EXPECT_NE(text.find(key), std::string::npos) << key << "\n"
                                                     << text;
}

TEST(Attribution, SetCountersClassifyEvictions)
{
    // Unit-level check of the occupancy mirror: the first `ways`
    // misses in a set are cold fills, every further miss is an
    // eviction; clear() keeps geometry and zeroes counts.
    sim::SetCounters sc;
    sc.configure(4, 2);
    for (int i = 0; i < 5; ++i) {
        sc.touch(1);
        sc.miss(1);
    }
    EXPECT_EQ(sc.totalTouches(), 5u);
    EXPECT_EQ(sc.totalMisses(), 5u);
    EXPECT_EQ(sc.totalEvictions(), 3u) << "5 misses into 2 ways";
    EXPECT_EQ(sc.hottestSet(), 1u);
    sc.clear();
    EXPECT_EQ(sc.totalMisses(), 0u);
    EXPECT_EQ(sc.sets, 4u);
}

} // namespace
