#ifndef MBIAS_SIM_TRACE_HH
#define MBIAS_SIM_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/lru_cache.hh"
#include "base/types.hh"
#include "sim/config.hh"
#include "sim/plan.hh"

namespace mbias::sim
{

/**
 * The pseudo-opcode a TracePlan writes over a superblock head: one
 * past the real opcode range, so the traced interpreter's dispatch
 * table gains exactly one extra handler and every non-head op
 * dispatches as before, at zero cost.
 */
constexpr isa::Opcode kBatchOpcode =
    isa::Opcode(std::uint8_t(isa::Opcode::NumOpcodes));

/**
 * The machine-geometry fingerprint a TracePlan depends on.  Unlike an
 * ExecutionPlan — a pure function of the program — a trace plan bakes
 * in fetch-group schedules, icache line crossings and ITLB page
 * crossings, so the TraceCache keys on (program plan, geometry).
 * Fields behind a disabled model are canonicalized to zero so e.g.
 * every enableCaches=false machine shares one plan.
 */
struct TraceGeometry
{
    std::uint32_t fetchWidth = 0;
    std::uint32_t fetchBlockBytes = 0; ///< 0 when !modelBlocks
    std::uint32_t ilineBytes = 0;      ///< 0 when !cachesOn
    std::uint32_t ipageShift = 0;      ///< 0 when !tlbsOn
    bool modelBlocks = false;
    bool cachesOn = false;
    bool tlbsOn = false;

    bool operator==(const TraceGeometry &) const = default;

    /** The fingerprint of @p c (the fields the batch math reads). */
    static TraceGeometry of(const MachineConfig &c);
};

/**
 * One superblock: a straight-line run of simple (no-memory,
 * no-control-flow) ops starting at an entry point, with its batched
 * effects precomputed.
 *
 * The head op itself is dispatched normally (the interpreter's
 * dispatch macro counts and fetches it before jumping), so everything
 * here describes "the head has just been fetched" onward:
 *
 *  - `rows[s]` is the fetch-group schedule of ops 1..len-1 given the
 *    post-head group state (s = slots left in the current group; the
 *    group's block end is static — see TracePlan::build);
 *  - `lines`/`pages` are the icache-line and ITLB-page crossings of
 *    ops 1..len-1, pre-deduplicated against the head's last line/page
 *    (the pcs of a run ascend, so the sequential-fetch memo reduces to
 *    "skip a leading repeat");
 *  - `fnOps` is the dataflow summary: the run's functional effects
 *    with Nops and zero-register writes dropped;
 *  - `writes` + `writeGroups` reconstruct the exit regReady[] values
 *    (issue cycle of each register's last write, plus its latency);
 *  - the guard fields (`liveInMask`, `latClassMask`) decide whether
 *    the batch provably adds zero stall cycles; when they cannot, the
 *    interpreter falls back to per-op execution of the same ops.
 */
struct TraceBlock
{
    /** The original head op, for per-op fallback dispatch. */
    DecodedOp headOp;

    std::uint32_t headIdx = 0;
    std::uint32_t len = 0;      ///< ops covered, head included
    std::uint32_t nopCount = 0; ///< Nops among them (counter delta)

    /** Registers read before any in-block write (head included). */
    std::uint32_t liveInMask = 0;
    /** Latency classes of in-block defs that are read in-block:
     *  bit 0 = 1-cycle, bit 1 = intMulLatency, bit 2 = intDivLatency. */
    std::uint8_t latClassMask = 0;

    struct FnOp
    {
        std::int64_t imm = 0;
        /** Always a value-producing simple op — Add..Slti or Li, the
         *  first 22 enumerators — so its raw value doubles as a dense
         *  index into the batch handler's threaded fn table.
         *  Validated at build time; the loop has no range backstop. */
        isa::Opcode op = isa::Opcode::Add;
        isa::Reg rd = 0;
        isa::Reg rs1 = 0;
        isa::Reg rs2 = 0; ///< 0 for ops that do not read a second reg
    };
    std::vector<FnOp> fnOps;

    struct FetchRow
    {
        Cycles groups = 0; ///< groups opened by ops 1..len-1
        std::uint32_t exitSlots = 0;
        Addr exitBlockEnd = 0;
    };
    /** Indexed by post-head groupSlots, size fetchWidth. */
    std::vector<FetchRow> rows;

    struct LineTouch
    {
        Addr line = 0;
        std::uint32_t pos = 0; ///< op position in the block (1-based
                               ///< region: head never appears)
    };
    std::vector<LineTouch> lines;

    struct PageTouch
    {
        std::uint64_t firstVpn = 0;
        std::uint64_t lastVpn = 0;
        std::uint32_t pos = 0;
    };
    std::vector<PageTouch> pages;

    struct RegWrite
    {
        isa::Reg reg = 0;
        std::uint8_t latClass = 0; ///< 0 unit, 1 mul, 2 div
        std::uint32_t pos = 0;     ///< position of the LAST write
    };
    /** Last write per register, ascending by pos. */
    std::vector<RegWrite> writes;
    /** writeGroups[w * fetchWidth + s]: groups opened by ops 1..pos(w)
     *  when entering with groupSlots = s (the write's issue cycle
     *  relative to entry, before replayed miss penalties). */
    std::vector<Cycles> writeGroups;
};

/**
 * A trace-translated program: the base plan's op array with every
 * superblock head rewritten to kBatchOpcode (targetIdx = block id),
 * plus the per-block batch summaries.  Built once per (plan,
 * geometry); Machine::runPlan interprets it with the same
 * direct-threaded loop as the fast path plus one extra handler.
 *
 * Like the base plan, a trace plan never influences simulated
 * semantics or timing: a batch commits only when its guards prove the
 * per-op walk would have produced exactly the same counters and
 * cycles, and falls back to that walk otherwise — so RunResults stay
 * bitwise identical to both other tiers.
 */
struct TracePlan
{
    /** Simple runs shorter than this stay per-op: below it the batch
     *  bookkeeping costs more than the dispatches it saves. */
    static constexpr std::uint32_t kMinRunLen = 6;

    std::vector<DecodedOp> ops; ///< base ops, heads rewritten
    std::vector<TraceBlock> blocks;
    TraceGeometry geometry;

    /** The base plan (pins the program the ops refer to). */
    std::shared_ptr<const ExecutionPlan> base;

    /** Translates @p base for machines with geometry @p g. */
    static std::shared_ptr<const TracePlan>
    build(std::shared_ptr<const ExecutionPlan> base,
          const TraceGeometry &g);
};

/**
 * LRU cache of TracePlans keyed by (base-plan address, geometry) —
 * the PlanCache mechanism with a composite key.  Pointer keying is
 * sound for the same reason: every entry pins its base plan (which
 * pins its program), so a cached key can never be freed and
 * reallocated while the entry lives.
 *
 * Thread-safe; on racing misses the first insert wins.  Also the
 * collection point for the tier's runtime statistics (ops batched vs
 * interpreted, guard fallbacks), which every traced run reports once
 * per run.  Everything is counted once, in stats(); a campaign books
 * the difference over its run as `sim.trace.*` (so `mbias
 * obs-summary` shows the tier at work).
 */
class TraceCache
{
  public:
    explicit TraceCache(std::size_t capacity = 64);

    /** The process-wide cache the trace tier uses. */
    static TraceCache &global();

    /** The trace plan for (@p base, @p g), building it on a miss. */
    std::shared_ptr<const TracePlan>
    get(const std::shared_ptr<const ExecutionPlan> &base,
        const TraceGeometry &g);

    /** Folds one traced run's tallies into the stats. */
    void recordRun(std::uint64_t ops_batched,
                   std::uint64_t ops_interpreted,
                   std::uint64_t fallbacks);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t superblocks = 0; ///< formed across all builds
        std::uint64_t opsBatched = 0;
        std::uint64_t opsInterpreted = 0;
        std::uint64_t fallbacks = 0; ///< guard-failed batch entries
    };

    Stats stats() const;
    void clear();

  private:
    struct Key
    {
        const void *base = nullptr;
        TraceGeometry geom;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };

    LruCache<Key, std::shared_ptr<const TracePlan>, KeyHash> cache_;

    std::atomic<std::uint64_t> superblocks_{0};
    std::atomic<std::uint64_t> opsBatched_{0};
    std::atomic<std::uint64_t> opsInterpreted_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
};

} // namespace mbias::sim

#endif // MBIAS_SIM_TRACE_HH
