#ifndef MBIAS_TOOLCHAIN_ARTIFACTS_HH
#define MBIAS_TOOLCHAIN_ARTIFACTS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "base/lru_cache.hh"
#include "isa/module.hh"
#include "toolchain/linker.hh"
#include "toolchain/linkorder.hh"
#include "toolchain/loader.hh"

namespace mbias::toolchain
{

/**
 * A compiled module set plus its identity: the immutable ".o files" of
 * one (workload, config, vendor, opt level) compilation, annotated
 * with a content fingerprint computed once at insertion time.  The
 * fingerprint — not the compile key — is what downstream link
 * artifacts are addressed by, so two compile keys that happen to
 * produce identical modules share their links.  Every program linked
 * from the set pins it and reads its instructions and initial data
 * from it, so the set's bytes are counted once, under its compile
 * entry, however many links of it the cache holds.
 */
struct CompiledModules
{
    std::vector<isa::Module> modules;

    /** 128-bit content hash over every function, instruction, label,
     *  and global of every module (two independent FNV-1a streams). */
    std::uint64_t fingerprintHi = 0;
    std::uint64_t fingerprintLo = 0;

    /** Approximate heap footprint, for the cache's byte budget. */
    std::uint64_t bytes = 0;
};

using ModulesPtr = std::shared_ptr<const CompiledModules>;
using ProgramPtr = std::shared_ptr<const LinkedProgram>;

/** Point-in-time accounting of one ArtifactCache. */
struct ArtifactCacheStats
{
    std::uint64_t compileHits = 0;
    std::uint64_t compileMisses = 0;
    std::uint64_t linkHits = 0;
    std::uint64_t linkMisses = 0;
    std::uint64_t imageHits = 0;
    std::uint64_t imageMisses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0; ///< current resident artifact bytes

    std::string str() const;
};

/**
 * A thread-safe, content-addressed cache for toolchain artifacts,
 * shared by all workers of a campaign:
 *
 *  - **compiled module sets**, keyed by the caller's compile key
 *    (workload + config + vendor + opt level — compilation is
 *    deterministic, so the inputs identify the output);
 *  - **linked programs**, keyed by (module content fingerprint, link
 *    order fingerprint, linker config) — an env-size sweep whose 200
 *    setups differ only in envBytes links each side once instead of
 *    200 times;
 *  - **loaded-image layout parameters**, keyed by (program identity,
 *    LoaderConfig, entry) — repeated loads of one program under one
 *    environment reduce to copying five precomputed addresses.
 *
 * Values are immutable and handed out as shared_ptr, so a cached
 * linked program is *the same object* in every task that uses it
 * (pointer-identical, hence trivially byte-identical) and doubles as
 * a stable identity for the simulator's execution-plan cache.
 *
 * All three kinds live in one LruCache under one byte budget, with
 * its policy: one lock per lookup, producers run outside it, the
 * first insert of a racing miss wins and the loser adopts it (both
 * outcomes are identical by determinism of the toolchain), and the
 * most recently used artifact is never evicted.
 *
 * Metrics: the cache counts each hit, miss and eviction once, in the
 * fields stats() returns, and holds no metrics registry.  A campaign
 * books what it gained during its run (stats() at its end minus
 * stats() at its start) as `artifacts.{compile,link,image}_{hits,
 * misses}` and `artifacts.evictions`, with the end value of `bytes`
 * as the `artifacts.bytes` gauge.
 */
class ArtifactCache
{
  public:
    /** Default byte budget: plenty for every (vendor, level, order)
     *  combination of the bundled suite, small next to the host. */
    static constexpr std::uint64_t kDefaultByteBudget = 256ull << 20;

    explicit ArtifactCache(std::uint64_t byte_budget = kDefaultByteBudget);

    /** The process-wide cache campaign workers share. */
    static ArtifactCache &global();

    /**
     * Returns the compiled modules for @p key, invoking @p produce on
     * a miss.  @p key must capture every compile input (the runner
     * uses "workload|scale|seed|vendor|level").
     */
    ModulesPtr compiled(const std::string &key,
                        const std::function<std::vector<isa::Module>()>
                            &produce);

    /** Returns the linked program for (@p mods, @p order), linking on
     *  a miss. */
    ProgramPtr linked(const ModulesPtr &mods, const LinkOrder &order,
                      const LinkerConfig &config = {});

    /** Builds a ProcessImage over the shared @p prog, serving the
     *  layout parameters from cache when this (program, config,
     *  entry) was loaded before. */
    ProcessImage image(const ProgramPtr &prog, const LoaderConfig &config,
                       const std::string &entry = "main");

    /** Current accounting. */
    ArtifactCacheStats stats() const;

    /** Drops every artifact (tests; not used on the hot path). */
    void clear();

  private:
    struct LinkKey
    {
        std::uint64_t modHi = 0, modLo = 0;
        std::uint64_t orderFp = 0;
        std::uint64_t configFp = 0;
        bool operator==(const LinkKey &) const = default;
    };

    struct ImageKey
    {
        const LinkedProgram *prog = nullptr;
        LoaderConfig config;
        std::string entry;
        bool operator==(const ImageKey &) const = default;
    };

    /** The cached layout parameters of one load. */
    struct ImageLayout
    {
        Addr initialSp = 0, stackTop = 0, heapBase = 0, gp = 0;
        std::uint32_t entryIdx = 0;
        ProgramPtr pin; ///< keeps the keyed program pointer valid
    };

    /** A compile key, a link key or an image key. */
    using Key = std::variant<std::string, LinkKey, ImageKey>;
    using Artifact = std::variant<ModulesPtr, ProgramPtr, ImageLayout>;

    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    /** One kind's hits and misses. */
    struct Tally
    {
        std::atomic<std::uint64_t> hits{0}, misses{0};
    };

    /** The artifact of kind @p V under @p key, counted in @p tally;
     *  @p build returns it with its bytes on a miss. */
    template <typename V, typename Build>
    V get(const Key &key, Tally &tally, Build &&build);

    LruCache<Key, Artifact, KeyHash> cache_;
    Tally compiles_, links_, images_;
};

/** Approximate heap footprint of what a link holds on top of its
 *  shared module set (cache accounting): vector capacities and heap
 *  strings, not the module set. */
std::uint64_t approxBytes(const LinkedProgram &prog);

/** Approximate heap footprint of a module set (cache accounting). */
std::uint64_t approxBytes(const std::vector<isa::Module> &modules);

/** The 128-bit content fingerprint of a module set (see
 *  CompiledModules; exposed for tests). */
std::pair<std::uint64_t, std::uint64_t>
fingerprintModules(const std::vector<isa::Module> &modules);

} // namespace mbias::toolchain

#endif // MBIAS_TOOLCHAIN_ARTIFACTS_HH
