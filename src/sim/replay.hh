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
 * itself is a pure function of (program, layout, budget): OS-interrupt
 * noise perturbs cycles and cache state but never a value, and machine
 * geometry is timing-only, so one recording serves every noise seed
 * and every machine configuration.
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

    /** Set when recording hit kMaxBytes; the streams are incomplete
     *  and the trace must not be replayed (or cached, except as a
     *  negative entry). */
    bool aborted = false;

    /** True when @p image and @p max_insts satisfy the replay
     *  preconditions: same program identity, same gp/heap layout, same
     *  entry, same instruction budget.  initialSp may differ (rebased)
     *  unless resultOnStack; noise seed and machine geometry are
     *  free. */
    bool matches(const toolchain::ProcessImage &image,
                 std::uint64_t max_insts) const
    {
        return program.get() == image.program.get() && gp == image.gp &&
               heapBase == image.heapBase && entryIdx == image.entryIdx &&
               budget == max_insts && !aborted &&
               (!resultOnStack || image.initialSp == recordedSp);
    }

    /** Approximate heap footprint (replay-cache accounting). */
    std::uint64_t approxBytes() const;
};

/**
 * LRU cache of FunctionalTraces keyed by (program address, gp,
 * heapBase, entryIdx, budget) — the PlanCache mechanism with a
 * composite key, minus initialSp so one recording serves a whole ASLR
 * or env-size repetition family.  Pointer keying is sound for the
 * PlanCache reason: every entry (including a negative one) pins the
 * program's shared_ptr, so a cached key can never be freed and
 * reallocated while the entry lives.
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
     * The cached trace for (@p image 's program/layout, @p budget), or
     * null on a miss.  On a negative hit (recording known oversized)
     * returns null and sets @p *unrecordable, so the caller skips the
     * recording pass.
     */
    std::shared_ptr<const FunctionalTrace>
    find(const toolchain::ProcessImage &image, std::uint64_t budget,
         bool *unrecordable);

    /** Inserts @p trace for (@p image, @p budget); a null @p trace
     *  records a negative entry.  First insert wins on races. */
    void insert(const toolchain::ProcessImage &image, std::uint64_t budget,
                std::shared_ptr<const FunctionalTrace> trace);

    /** Tallies one recorded run (Machine::runRecord). */
    void noteRecord();
    /** Tallies one lane pass (Machine::runReplayLanes, or runReplay as
     *  a pass of one lane) that timed @p lanes repetitions: each lane
     *  counts as one replay, so replays / lanePasses is the mean lane
     *  width.  Of its @p lane_accesses lane memory accesses (data
     *  accesses and icache line fetches, times the lanes that made
     *  them), @p diverged_accesses ran on a lane's own copy of the
     *  memory hierarchy instead of the pass's shared one.  Of its DTLB
     *  and store-buffer outcomes, @p class_decisions were decided per
     *  delta class (the lanes of one stack delta) rather than once. */
    void noteLanePass(std::uint64_t lanes, std::uint64_t lane_accesses,
                      std::uint64_t diverged_accesses,
                      std::uint64_t class_decisions);
    /** Tallies one repetition family that fell back to per-rep
     *  execution (preconditions or footprint), or one lane a lane pass
     *  ran alone (Machine::runLanes). */
    void noteFallback();

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t records = 0;  ///< instrumented recording runs
        std::uint64_t replays = 0;  ///< runs served from a stream
        std::uint64_t lanePasses = 0; ///< walks of a stream (>= 1 lane)
        std::uint64_t laneAccesses = 0; ///< lanes x memory accesses
        std::uint64_t divergedAccesses = 0; ///< of them, on own copies
        std::uint64_t classDecisions = 0; ///< DTLB/store-buffer, per class
        std::uint64_t fallbacks = 0;
        std::uint64_t bytes = 0; ///< approx footprint of live entries
    };

    Stats stats() const;
    void clear();

  private:
    struct Key
    {
        const void *program = nullptr;
        Addr gp = 0;
        Addr heapBase = 0;
        std::uint32_t entryIdx = 0;
        std::uint64_t budget = 0;
        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const;
    };
    struct Entry
    {
        /** Pins the keyed program even for negative entries. */
        std::shared_ptr<const toolchain::LinkedProgram> pin;
        std::shared_ptr<const FunctionalTrace> trace; ///< null = negative
    };

    static Key keyOf(const toolchain::ProcessImage &image,
                     std::uint64_t budget);

    LruCache<Key, Entry, KeyHash> cache_;

    std::atomic<std::uint64_t> records_{0};
    std::atomic<std::uint64_t> replays_{0};
    std::atomic<std::uint64_t> lanePasses_{0};
    std::atomic<std::uint64_t> laneAccesses_{0};
    std::atomic<std::uint64_t> divergedAccesses_{0};
    std::atomic<std::uint64_t> classDecisions_{0};
    std::atomic<std::uint64_t> fallbacks_{0};
};

} // namespace mbias::sim

#endif // MBIAS_SIM_REPLAY_HH
