#ifndef MBIAS_SIM_REPLAY_HH
#define MBIAS_SIM_REPLAY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/lru_cache.hh"
#include "base/types.hh"
#include "toolchain/loader.hh"

namespace mbias::sim
{

class Machine;

/** MBIAS_SIM_REPLAY=0 disables the record/replay tier (re-read per
 *  run, so one process can compare replayed and per-rep execution). */
bool replayDisabledByEnv();

/**
 * True when every switch between here and the hardware allows the
 * replay tier for @p machine: not vetoed by MBIAS_SIM_REPLAY=0 or
 * MBIAS_SIM_REFERENCE, and the machine's own fast-path toggle on.
 * Callers (ExperimentRunner) consult this before paying for a
 * recording pass.
 */
bool replayTierUsable(const Machine &machine);

/**
 * True when @p a and @p b, two links of one module set, lay out the
 * same data: the same dataBase and dataEnd, and every global at the
 * same address.  Link order moves a global only when its module's
 * place among the modules that hold globals changes.
 */
bool sameDataLayout(const toolchain::LinkedProgram &a,
                    const toolchain::LinkedProgram &b);

/**
 * The code index in @p to of the instruction at index @p idx of
 * @p from, two links of one module set: the same function, at the same
 * offset.  Every function's instructions are placed contiguously, in
 * any link order.
 */
std::uint32_t mapCodeIndex(const toolchain::LinkedProgram &from,
                           const toolchain::LinkedProgram &to,
                           std::uint32_t idx);

/**
 * The functional half of one run, recorded once and replayed many
 * times: everything the timing model cannot derive from the static
 * ExecutionPlan alone, in a compact stream encoding —
 *
 *  - one bit per executed conditional branch (taken/not-taken; the
 *    targets themselves are static plan fields);
 *  - one code index per executed Ret (the dynamic return target);
 *  - one resolved address per memory access (loads, stores, the
 *    Call-link store and the Ret load), in execution order, and the
 *    extents of those accesses on both sides of the stack boundary;
 *  - the exact final architectural state a RunResult reports (icount,
 *    halted, a0).
 *
 * Everything else about a run — fetch groups, cache/TLB/predictor/BTB
 * outcomes, stalls, noise jitter — is *timing*, recomputed live by
 * Machine::runReplay/runReplayLanes against this stream.  The stream
 * itself is a pure function of (module set, data layout, entry
 * function, budget): OS-interrupt noise perturbs cycles and cache
 * state but never a value, machine geometry is timing-only, and so is
 * the code layout, unless the program reads a code address.  One
 * recording therefore serves every noise seed, every machine
 * configuration and every link order that keeps the data layout.
 *
 * Code layout.  In the µISA only a Call puts a pc into a value (its
 * pushed return address), La names globals only, and Ret is the only
 * indirect transfer.  The recording watches the bytes each Call pushed
 * (the code-opacity shadow of runPlanImpl's Record mode): a plain load
 * that overlaps one, or a Ret that reads 8 bytes not all from one push,
 * marks the recording `codeVisible`.  An opaque recording's streams are
 * then the same at every code layout of its module set, op for op, and
 * its code indices (Ret targets, the entry) map through (function,
 * offset) to any other link (mapCodeIndex); a code-visible one serves
 * only its own program.
 *
 * Stack ASLR is the one layout knob replay absorbs rather than keys
 * on: the loader's ASLR/env shifts move only the initial stack
 * pointer, so stack addresses (and only they) translate uniformly by
 * the sp delta.  runReplay rebases recorded addresses at or above
 * `stackBoundary` by (image.initialSp - recordedSp) and leaves
 * code/global/heap addresses alone.  This assumes the program derives
 * stack addresses from sp by plain offset arithmetic (true of
 * compiler-generated code; the four-tier differential test holds the
 * line per workload).  The final a0 is never rebased: it is a value
 * (most often a checksum), not an access, so nothing tells a stack
 * pointer from a number that merely lies above the boundary.  A
 * recording whose a0 lies in the recorded stack region is flagged
 * instead, and replays only at its own initialSp.
 */
struct FunctionalTrace
{
    /** Recording aborts past this footprint; the key is then negative-
     *  cached and those repetitions fall back to per-rep execution. */
    static constexpr std::uint64_t kMaxBytes = 64ull << 20;

    // --- identity: the preconditions matches() checks -------------
    /** The recorded program: the walk's code indices are its. */
    std::shared_ptr<const toolchain::LinkedProgram> program;
    Addr gp = 0;
    Addr heapBase = 0;
    std::uint32_t entryIdx = 0;
    std::uint64_t budget = 0; ///< max_insts the stream was cut at

    /** Unique per recording (runRecord numbers them from 1, never
     *  reusing one), so a trace's identity survives its address being
     *  recycled; 0 for a trace runRecord did not make. */
    std::uint64_t serial = 0;

    /** initialSp of the recorded image (rebase origin). */
    Addr recordedSp = 0;
    /** Addresses >= this are stack-region and get the sp-delta rebase
     *  (half the recorded stack top: far above any data/heap address,
     *  far below any stack address, for every preset layout). */
    Addr stackBoundary = 0;
    /** The lowest stack-region address the stream accesses (~0: none)
     *  and its highest non-stack byte (0: none).  A lane pass keeps
     *  one DTLB for every stack delta, exact only while a lane's stack
     *  pages lie above every non-stack page; Machine::runLanes runs a
     *  lane whose rebased lowest stack page would not on its own. */
    Addr lowestStackAddr = ~Addr(0);
    Addr highestDataByte = 0;

    // --- streams --------------------------------------------------
    std::vector<std::uint64_t> branchBits; ///< LSB-first per word
    std::uint64_t branchCount = 0;
    std::vector<std::uint32_t> retTargets; ///< code index per Ret
    std::vector<Addr> memAddrs; ///< ld/st/call-store/ret-load, in order

    // --- exact final architectural state --------------------------
    std::uint64_t icount = 0;
    bool halted = false;
    std::uint64_t resultA0 = 0;

    /** Set when resultA0 lies in the recorded stack region
     *  [stackBoundary, stackTop): it may be a stack address, whose
     *  value would move with the stack, so the trace serves only
     *  images at recordedSp. */
    bool resultOnStack = false;

    /** Set when the program read a code address (a load overlapping a
     *  pushed return address, or a Ret whose 8 bytes did not all come
     *  from one push): the streams may depend on the code layout, so
     *  the trace serves only its own program. */
    bool codeVisible = false;

    /** Set when recording hit kMaxBytes; the streams are incomplete
     *  and the trace must not be replayed (or cached, except as a
     *  negative entry). */
    bool aborted = false;

    /** True when the streams hold for @p p's code layout: @p p is the
     *  recorded program, or — unless codeVisible — another link of its
     *  module set with the same data layout (sameDataLayout). */
    bool servesLayout(const toolchain::LinkedProgram &p) const;

    /** True when @p image and @p max_insts satisfy the replay
     *  preconditions: a layout the streams hold for (servesLayout),
     *  the same gp/heap layout, the same entry instruction, the same
     *  instruction budget.  initialSp may differ (rebased) unless
     *  resultOnStack; noise seed and machine geometry are free. */
    bool matches(const toolchain::ProcessImage &image,
                 std::uint64_t max_insts) const;

    /** Approximate heap footprint (replay-cache accounting). */
    std::uint64_t approxBytes() const;
};

/**
 * LRU cache of FunctionalTraces keyed by (module set address, data
 * layout, gp, heapBase, entry instruction, budget) — the PlanCache
 * mechanism with a composite key, minus initialSp and the code layout,
 * so one recording serves a whole ASLR, env-size or link-order family,
 * whichever chunk of it asks first.  find() hands out only a trace
 * that matches() the asking image.  An own-link entry (find()) also
 * keys the program, so the narrow families of several link orders
 * keep one recording each beside the module set's.  Pointer keying is
 * sound for the PlanCache reason: every entry (including a negative
 * one) pins a program of the module set, so a cached key can never be
 * freed and reallocated while the entry lives.
 *
 * A null trace under a key is a *negative* entry: recording was tried
 * and aborted (footprint past FunctionalTrace::kMaxBytes), so callers
 * should run those repetitions per-rep instead of re-recording every
 * time.
 *
 * Thread-safe; on racing misses the first insert wins.  Also the
 * collection point for the tier's runtime statistics.  Everything is
 * counted once, in stats(); a campaign books the difference over its
 * run as `sim.replay.*` (so `mbias obs-summary` shows the tier at
 * work).
 */
class ReplayCache
{
  public:
    explicit ReplayCache(std::size_t capacity = 16);

    /** The process-wide cache ExperimentRunner uses. */
    static ReplayCache &global();

    /**
     * The cached trace for (@p image 's module set and data layout,
     * @p budget) if it matches() @p image, else null.  On a negative
     * hit (recording known oversized) returns null and sets
     * @p *unrecordable, so the caller skips the recording pass.  With
     * @p own_link, the entry is one of @p image 's own link instead,
     * kept apart from the module set's: a family too narrow for its
     * pass to time other link orders (Machine::kMinLinkPass) needs a
     * recording of its own order.
     */
    std::shared_ptr<const FunctionalTrace>
    find(const toolchain::ProcessImage &image, std::uint64_t budget,
         bool *unrecordable, bool own_link = false);

    /** Inserts @p trace for (@p image, @p budget), under @p image 's
     *  own link with @p own_link (see find()); a null @p trace
     *  records a negative entry.  First insert wins on races. */
    void insert(const toolchain::ProcessImage &image, std::uint64_t budget,
                std::shared_ptr<const FunctionalTrace> trace,
                bool own_link = false);

    /** Tallies one recorded run (Machine::runRecord). */
    void noteRecord();
    /** Tallies one lane pass (Machine::runReplayLanes, or runReplay as
     *  a pass of one lane) that timed @p lanes repetitions at
     *  @p code_classes code layouts: each lane counts as one replay, so
     *  replays / lanePasses is the mean lane width.  Of its
     *  @p lane_accesses lane memory accesses (data accesses and icache
     *  line fetches, times the lanes that made them),
     *  @p diverged_accesses ran on a lane's own copy of the
     *  memory hierarchy instead of the pass's shared one.  Of its DTLB
     *  and store-buffer outcomes, @p class_decisions were decided per
     *  delta class (the lanes of one stack delta) rather than once. */
    void noteLanePass(std::uint64_t lanes, std::uint64_t code_classes,
                      std::uint64_t lane_accesses,
                      std::uint64_t diverged_accesses,
                      std::uint64_t class_decisions);
    /** Tallies one repetition family that fell back to per-rep
     *  execution (preconditions or footprint), or one lane a lane pass
     *  ran alone (Machine::runLanes). */
    void noteFallback();
    /** Tallies one lane at another link order that a recording of its
     *  module set refused (FunctionalTrace::matches: the data layout
     *  differs, or the recording is codeVisible), so it ran alone. */
    void noteLayoutFallback();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t records = 0;  ///< instrumented recording runs
        std::uint64_t replays = 0;  ///< runs served from a stream
        std::uint64_t lanePasses = 0; ///< walks of a stream (>= 1 lane)
        std::uint64_t codeClasses = 0; ///< code layouts timed, per pass
        std::uint64_t laneAccesses = 0; ///< lanes x memory accesses
        std::uint64_t divergedAccesses = 0; ///< of them, on own copies
        std::uint64_t classDecisions = 0; ///< DTLB/store-buffer, per class
        std::uint64_t fallbacks = 0;
        std::uint64_t layoutFallbacks = 0; ///< lanes refused by layout
        std::uint64_t bytes = 0; ///< approx footprint of live entries
    };

    Stats stats() const;
    void clear();

  private:
    struct Key
    {
        const void *modules = nullptr;
        std::uint64_t dataLayout = 0; ///< hash of the global addresses
        Addr gp = 0;
        Addr heapBase = 0;
        const void *entry = nullptr; ///< the entry instruction's body
        std::uint64_t budget = 0;
        const void *link = nullptr; ///< an own-link entry's program
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };
    struct Entry
    {
        /** Pins the keyed module set even for negative entries. */
        std::shared_ptr<const toolchain::LinkedProgram> pin;
        std::shared_ptr<const FunctionalTrace> trace; ///< null = negative
    };

    static Key keyOf(const toolchain::ProcessImage &image,
                     std::uint64_t budget, bool own_link);

    LruCache<Key, Entry, KeyHash> cache_;

    std::atomic<std::uint64_t> records_{0};
    std::atomic<std::uint64_t> replays_{0};
    std::atomic<std::uint64_t> lanePasses_{0};
    std::atomic<std::uint64_t> codeClasses_{0};
    std::atomic<std::uint64_t> laneAccesses_{0};
    std::atomic<std::uint64_t> divergedAccesses_{0};
    std::atomic<std::uint64_t> classDecisions_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
    std::atomic<std::uint64_t> layoutFallbacks_{0};
};

} // namespace mbias::sim

#endif // MBIAS_SIM_REPLAY_HH
