/**
 * @file
 * ArtifactCache tests: hit/miss accounting at all three levels
 * (compile, link, image), the contract that a cached link is
 * indistinguishable from a fresh one, content addressing across
 * distinct compile keys, LRU eviction under a byte budget, and
 * thread-safety of concurrent lookups.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/machine.hh"
#include "sim/memory.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using toolchain::ArtifactCache;

std::vector<isa::Module>
buildModules(const std::string &workload = "milc")
{
    const auto &w = workloads::findWorkload(workload);
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    return cc.compile(w.build({}));
}

/** The program's initial data segment [dataBase, dataEnd), read back
 *  from the memory a simulated run starts with. */
std::vector<std::uint8_t>
initialData(const toolchain::LinkedProgram &prog)
{
    sim::SparseMemory mem;
    sim::loadProgramData(mem, prog);
    std::vector<std::uint8_t> bytes;
    for (Addr a = prog.dataBase; a < prog.dataEnd; ++a)
        bytes.push_back(std::uint8_t(mem.read(a, 1)));
    return bytes;
}

TEST(ArtifactCache, CompileHitMissAccounting)
{
    ArtifactCache cache;
    int produced = 0;
    auto produce = [&] {
        ++produced;
        return buildModules();
    };
    auto a = cache.compiled("milc|1|12345|0|1", produce);
    auto b = cache.compiled("milc|1|12345|0|1", produce);
    EXPECT_EQ(produced, 1) << "second lookup must not recompile";
    EXPECT_EQ(a.get(), b.get()) << "hits hand out the same artifact";
    const auto s = cache.stats();
    EXPECT_EQ(s.compileMisses, 1u);
    EXPECT_EQ(s.compileHits, 1u);
    EXPECT_GT(s.bytes, 0u);
}

TEST(ArtifactCache, CachedLinkIdenticalToFresh)
{
    ArtifactCache cache;
    auto mods =
        cache.compiled("milc|1|12345|0|1", [] { return buildModules(); });
    const auto order = toolchain::LinkOrder::shuffled(17);

    auto cached = cache.linked(mods, order);
    const auto fresh = toolchain::Linker().link(mods->modules, order);

    ASSERT_EQ(cached->code.size(), fresh.code.size());
    EXPECT_EQ(cached->codeBase, fresh.codeBase);
    EXPECT_EQ(cached->codeEnd, fresh.codeEnd);
    EXPECT_EQ(cached->dataBase, fresh.dataBase);
    EXPECT_EQ(cached->dataEnd, fresh.dataEnd);
    EXPECT_EQ(initialData(*cached), initialData(fresh));
    EXPECT_EQ(cached->moduleOrder, fresh.moduleOrder);
    for (std::size_t i = 0; i < fresh.code.size(); ++i) {
        EXPECT_EQ(cached->code[i].pc, fresh.code[i].pc);
        EXPECT_EQ(cached->code[i].size, fresh.code[i].size);
        EXPECT_EQ(cached->code[i].target, fresh.code[i].target);
        EXPECT_EQ(int(cached->code[i].inst().op),
                  int(fresh.code[i].inst().op));
        EXPECT_EQ(cached->code[i].inst().imm, fresh.code[i].inst().imm);
    }

    // Same (modules, order) again: pointer-identical, counted a hit.
    auto again = cache.linked(mods, order);
    EXPECT_EQ(again.get(), cached.get());
    // A different order is a different artifact.
    auto other = cache.linked(mods, toolchain::LinkOrder::shuffled(18));
    EXPECT_NE(other.get(), cached.get());
    const auto s = cache.stats();
    EXPECT_EQ(s.linkHits, 1u);
    EXPECT_EQ(s.linkMisses, 2u);

    // And the simulated result through the cached program matches the
    // fresh one bit for bit.
    toolchain::LoaderConfig lc;
    lc.envBytes = 1536;
    auto ci = cache.image(cached, lc);
    auto fi = toolchain::Loader::load(fresh, lc);
    sim::Machine m1(sim::MachineConfig::core2Like());
    sim::Machine m2(sim::MachineConfig::core2Like());
    EXPECT_EQ(m1.run(ci), m2.run(fi));
}

TEST(ArtifactCache, ContentAddressedLinksAcrossCompileKeys)
{
    // Two different compile keys that produce identical modules must
    // share their link artifacts: links are addressed by the modules'
    // content fingerprint, not by the compile key.
    ArtifactCache cache;
    auto a = cache.compiled("keyA", [] { return buildModules(); });
    auto b = cache.compiled("keyB", [] { return buildModules(); });
    ASSERT_NE(a.get(), b.get());
    EXPECT_EQ(a->fingerprintHi, b->fingerprintHi);
    EXPECT_EQ(a->fingerprintLo, b->fingerprintLo);
    const auto order = toolchain::LinkOrder::asGiven();
    auto la = cache.linked(a, order);
    auto lb = cache.linked(b, order);
    EXPECT_EQ(la.get(), lb.get());
    const auto s = cache.stats();
    EXPECT_EQ(s.linkMisses, 1u);
    EXPECT_EQ(s.linkHits, 1u);
}

TEST(ArtifactCache, ImageLayoutCaching)
{
    ArtifactCache cache;
    auto mods =
        cache.compiled("milc|1|12345|0|1", [] { return buildModules(); });
    auto prog = cache.linked(mods, toolchain::LinkOrder::asGiven());
    toolchain::LoaderConfig lc;
    lc.envBytes = 2212;

    const auto first = cache.image(prog, lc);
    const auto second = cache.image(prog, lc);
    EXPECT_EQ(second.initialSp, first.initialSp);
    EXPECT_EQ(second.stackTop, first.stackTop);
    EXPECT_EQ(second.heapBase, first.heapBase);
    EXPECT_EQ(second.gp, first.gp);
    EXPECT_EQ(second.entryIdx, first.entryIdx);
    EXPECT_EQ(second.program.get(), first.program.get());

    // A different environment size is a different layout.
    lc.envBytes = 2300;
    const auto third = cache.image(prog, lc);
    EXPECT_NE(third.initialSp, first.initialSp);

    const auto s = cache.stats();
    EXPECT_EQ(s.imageHits, 1u);
    EXPECT_EQ(s.imageMisses, 2u);

    // Cached layout equals a fresh load exactly.
    const auto fresh = toolchain::Loader::load(prog, lc);
    EXPECT_EQ(third.initialSp, fresh.initialSp);
    EXPECT_EQ(third.heapBase, fresh.heapBase);
}

TEST(ArtifactCache, LruEvictionUnderByteBudget)
{
    // A 1-byte budget forces the cache down to its single MRU entry,
    // so inserting many distinct keys must evict all but that one —
    // and the cache keeps working (lookups of evicted keys simply
    // recompute).
    ArtifactCache cache(1);
    const auto mods = buildModules();
    const unsigned kKeys = 20;
    for (unsigned i = 0; i < kKeys; ++i)
        cache.compiled("key" + std::to_string(i),
                       [&] { return mods; });
    auto s = cache.stats();
    EXPECT_EQ(s.compileMisses, kKeys);
    EXPECT_GT(s.evictions, 0u);
    // At most the MRU entry survives.
    EXPECT_GE(s.evictions, std::uint64_t(kKeys) - 8);

    // Evicted keys recompute and are still served correctly.
    auto again = cache.compiled("key0", [&] { return mods; });
    EXPECT_EQ(again->modules.size(), mods.size());
}

TEST(ArtifactCache, ConcurrentLookupsConverge)
{
    // Hammer one compile key and one link from many threads: every
    // thread must end up with the same artifact pointers (first
    // insert wins on racing misses), with no crashes or data races.
    ArtifactCache cache;
    std::atomic<int> produced{0};
    std::vector<std::thread> threads;
    std::vector<toolchain::ProgramPtr> seen(8);
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            auto mods = cache.compiled("shared", [&] {
                produced.fetch_add(1);
                return buildModules();
            });
            seen[t] =
                cache.linked(mods, toolchain::LinkOrder::shuffled(4));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_GE(produced.load(), 1);
    for (unsigned t = 1; t < 8; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get());
}

} // namespace
