#include "sim/machine.hh"

#include "base/bitutils.hh"
#include "base/random.hh"
#include "sim/attribution.hh"
#include "obs/trace.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <unordered_map>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#include "base/logging.hh"

namespace mbias::sim
{

using isa::Opcode;
using isa::OpClass;
using toolchain::PlacedInst;

bool
referenceForcedByEnv()
{
    const char *e = std::getenv("MBIAS_SIM_REFERENCE");
    return e && *e && !(e[0] == '0' && e[1] == '\0');
}

namespace
{

/** MBIAS_SIM_TRACE=0 drops fast-path-eligible runs back to the
 *  untraced plan loop (re-read per run, so one process can compare all
 *  three tiers). */
bool
traceDisabledByEnv()
{
    const char *e = std::getenv("MBIAS_SIM_TRACE");
    return e && e[0] == '0' && e[1] == '\0';
}

/**
 * CoreModel policies for runPlanImpl's `if constexpr` points.  The
 * out-of-order policy is the historical behavior — every branch it
 * guards compiles to the exact code the pre-backend-layer loop had, so
 * existing presets stay bitwise identical at unchanged throughput.
 */
struct OooCore
{
    static constexpr bool kInOrder = false;
};

/** Strict in-order issue: no latency hiding, multi-cycle ALU ops block
 *  the pipe, taken transfers into the middle of a fetch block refetch
 *  (config.fetchRealignPenalty). */
struct InOrderCore
{
    static constexpr bool kInOrder = true;
};

/**
 * Observation policies: runPlanImpl's fourth template parameter.  The
 * null policy's hooks are empty inlines (the pass-through ones return
 * their outcome argument), so unobserved instantiations compile them
 * out.
 */
struct NullObserver
{
    static constexpr bool kObserving = false;
    void open(std::uint32_t, Cycles, const PerfCounters &) {}
    void close(Cycles, const PerfCounters &) {}
    bool icache(Addr, bool hit) { return hit; }
    bool dcache(Addr, bool hit) { return hit; }
    void itlb(Addr, unsigned) {}
    void dtlb(Addr, unsigned) {}
    void pht(Addr) {}
    bool btb(Addr, bool hit) { return hit; }
};

std::unique_ptr<uarch::BranchPredictor>
makePredictor(const MachineConfig &c)
{
    switch (c.predictor) {
      case PredictorKind::Bimodal:
        return std::make_unique<uarch::BimodalPredictor>(
            c.predictorTableBits);
      case PredictorKind::Gshare:
        return std::make_unique<uarch::GsharePredictor>(
            c.predictorTableBits, c.predictorHistoryBits);
    }
    mbias_panic("bad predictor kind");
}

/**
 * A conditional branch's predictor step on the predictor a config
 * built, through its non-virtual hot twin: predict @p pc, then train
 * it on the outcome.  The live walk and every code class of a lane
 * pass at several code layouts (CodeClasses) take this one step.
 */
class HotPredictor
{
  public:
    HotPredictor(const MachineConfig &c, uarch::BranchPredictor &p)
        : gshare_(c.predictor == PredictorKind::Gshare
                      ? static_cast<uarch::GsharePredictor *>(&p)
                      : nullptr),
          bimodal_(gshare_ ? nullptr
                           : static_cast<uarch::BimodalPredictor *>(&p))
    {
    }

    /** Whether the prediction for @p pc missed @p taken. */
    __attribute__((always_inline)) bool mispredicted(Addr pc, bool taken)
    {
        bool pred;
        if (gshare_) {
            pred = gshare_->predict(pc);
            gshare_->update(pc, taken);
        } else {
            pred = bimodal_->predict(pc);
            bimodal_->update(pc, taken);
        }
        return pred != taken;
    }

  private:
    uarch::GsharePredictor *gshare_;
    uarch::BimodalPredictor *bimodal_;
};

/** CoreModel policy: whether a taken transfer to @p target makes the
 *  front end refetch, as an in-order one does when the target lies
 *  inside a fetch block rather than at its start. */
template <class Core>
constexpr bool
refetchesMidBlock(bool model_blocks, Addr target, Addr block_bytes)
{
    if constexpr (Core::kInOrder)
        return model_blocks && (target & (block_bytes - 1)) != 0;
    (void)model_blocks, (void)target, (void)block_bytes;
    return false;
}

/**
 * Fast-path twin of uarch::Cache's line touch, the canonical cache of a
 * LaneCache: same geometry, same MRU-ordered hit/replacement decisions,
 * but one packed uint64 per way — (tag << 1) | valid — so the way scan
 * and the MRU shift are plain word moves.  From the same (reset) state
 * every access returns exactly what Cache::accessLine would, so the
 * counters derived from it are bitwise identical.
 *
 * Sets are allocated on first touch: a directory maps each set to its
 * ways in a per-run arena, and an untouched set (no directory entry)
 * is an empty one.  A run touches a few dozen of an L2's thousands of
 * sets, so a fresh cache costs the directory, not sets x ways slots.
 */
struct ShadowCache
{
    /** One access to the ways of a set, MRU-first: a hit moves its way
     *  to the front, a miss installs @p key there and drops the LRU
     *  way.  Returns true on a hit. */
    static bool touchWays(std::uint64_t *base, unsigned ways,
                          std::uint64_t key)
    {
        for (unsigned w = 0; w < ways; ++w) {
            if (base[w] == key) {
                for (unsigned k = w; k > 0; --k)
                    base[k] = base[k - 1];
                base[0] = key;
                return true;
            }
        }
        for (unsigned k = ways - 1; k > 0; --k)
            base[k] = base[k - 1];
        base[0] = key;
        return false;
    }

    unsigned shift;
    unsigned ways;
    std::uint64_t setMask;
    /** dir[set] = 1 + the set's index into the arena; 0 untouched. */
    std::vector<std::uint32_t> dir;
    /** arena[i * ways + way] = (tag << 1) | 1, MRU-first; 0 empty. */
    std::vector<std::uint64_t> arena;

    explicit ShadowCache(const uarch::CacheConfig &c)
        : shift(floorLog2(c.lineBytes)), ways(c.ways), setMask(c.sets - 1),
          dir(c.sets, 0)
    {
        arena.reserve(std::size_t(std::min(c.sets, 64u)) * ways);
    }

    /** The ways of @p set, allocating (empty) ways on first touch. */
    std::uint64_t *touchSet(std::uint64_t set)
    {
        std::uint32_t &e = dir[set];
        if (__builtin_expect(e == 0, 0)) {
            arena.resize(arena.size() + ways, 0);
            e = std::uint32_t(arena.size() / ways);
        }
        return arena.data() + std::size_t(e - 1) * ways;
    }

    /** The ways of @p set, or null while it was never touched. */
    const std::uint64_t *findSet(std::uint64_t set) const
    {
        const std::uint32_t e = dir[set];
        return e ? arena.data() + std::size_t(e - 1) * ways : nullptr;
    }

    /** The set @p addr maps to, and its way word. */
    std::uint64_t setOf(Addr addr) const { return (addr >> shift) & setMask; }
    std::uint64_t keyOf(Addr addr) const { return ((addr >> shift) << 1) | 1; }

    bool access(Addr addr)
    {
        return touchWays(touchSet(setOf(addr)), ways, keyOf(addr));
    }

    /** Read-only residency probe: would access(@p addr) hit right
     *  now?  No LRU update (and no allocation), so probing leaves the
     *  model state untouched (the trace tier's noise guard uses this
     *  to bound a block's penalty without committing to running it). */
    bool contains(Addr addr) const
    {
        const std::uint64_t key = keyOf(addr);
        const std::uint64_t *base = findSet(setOf(addr));
        if (!base)
            return false;
        for (unsigned w = 0; w < ways; ++w) {
            if (base[w] == key)
                return true;
        }
        return false;
    }
};

/** Fast-path twin of uarch::Tlb (fully associative, LRU): one packed
 *  (vpn << 1) | valid word per entry, same MRU-ordered decisions.  It
 *  is the ITLB of every walk (code pages are lane-invariant); the DTLB
 *  is LaneTlb. */
struct ShadowTlb
{
    unsigned entries;
    std::vector<std::uint64_t> slots; ///< MRU-first; 0 empty

    explicit ShadowTlb(const uarch::TlbConfig &c)
        : entries(c.entries), slots(c.entries, 0)
    {
    }

    bool touch(std::uint64_t vpn)
    {
        const std::uint64_t key = (vpn << 1) | 1;
        std::uint64_t *s = slots.data();
        for (unsigned e = 0; e < entries; ++e) {
            if (s[e] == key) {
                for (unsigned k = e; k > 0; --k)
                    s[k] = s[k - 1];
                s[0] = key;
                return true;
            }
        }
        for (unsigned k = entries - 1; k > 0; --k)
            s[k] = s[k - 1];
        s[0] = key;
        return false;
    }

    unsigned accessVpns(std::uint64_t first_vpn, std::uint64_t last_vpn)
    {
        unsigned miss_count = 0;
        if (!touch(first_vpn))
            ++miss_count;
        if (last_vpn != first_vpn && !touch(last_vpn))
            ++miss_count;
        return miss_count;
    }

    /** Read-only residency probe (no LRU update), the ShadowCache
     *  contains() counterpart (the trace tier's ITLB guard). */
    bool contains(std::uint64_t vpn) const
    {
        const std::uint64_t key = (vpn << 1) | 1;
        for (unsigned e = 0; e < entries; ++e) {
            if (slots[e] == key)
                return true;
        }
        return false;
    }

    bool containsVpns(std::uint64_t first_vpn,
                      std::uint64_t last_vpn) const
    {
        return contains(first_vpn) &&
               (last_vpn == first_vpn || contains(last_vpn));
    }
};

/** f(i) for every bit i set in @p mask, lowest first. */
template <class F>
__attribute__((always_inline)) inline void
eachIn(std::uint32_t mask, F f)
{
    while (mask) {
        f(std::size_t(std::countr_zero(mask)));
        mask &= mask - 1;
    }
}

/**
 * Store-buffer twin, for every delta class of a walk at once (a class
 * is the lanes of a lane pass with one stack delta; a live walk is one
 * class of delta 0 and records no stack stores): same ring order, same
 * head rotation, same expiry and forwarding rules as
 * uarch::StoreBuffer, in the recording's coordinates, each store
 * recorded once with a bit for whether it is a stack store.  In a class
 * of stack delta d, a stack entry sits at its recorded address plus d.
 *
 * index[masked address] is the bitmap of the ring slots holding it, in
 * the first class's lane addresses, kept by record(): a load reads its
 * candidates in one table read, in slot order, the order of the
 * reference scan.  Machine refuses more than
 * Machine::kMaxStoreBufferEntries entries (a word of slot bits) and a
 * window wider than Machine::kMaxAliasWindowBits, so the bitmaps and
 * the table always fit.
 *
 * A common shift cancels in (x ^ y) & aliasMask (a low-bit mask) and in
 * address equality, so among the entries of the load's own region the
 * first live match, and its verdict, is the same in every class.  Only
 * an entry of the other region can match in some classes and not
 * others: a stack entry at s matches a non-stack load at a where d == a
 * - s, and a non-stack entry at s a stack load at a where d == s - a,
 * both modulo the alias window.  byDelta maps that residue to the
 * classes whose delta has it, so a load walks the live other-region
 * entries ahead of its shared decider and reads which classes each one
 * decides: the paper's 4K-aliasing mechanism, computed per class only
 * where it fires.  Stores enter in program order, so the live entries
 * are always the newest `live` ones, from slot `tail` on: a load of
 * several classes first retires the oldest that expired.
 */
struct LaneStoreBuffer
{
    const unsigned entries;
    const std::uint64_t aliasMask;
    const std::uint64_t maxAge;
    std::vector<Addr> addr;
    std::vector<std::uint32_t> size;
    std::vector<std::uint64_t> icount;
    std::vector<std::uint8_t> stack; ///< 1 for a stack store
    std::uint32_t stackSlots = 0;    ///< bitmap of stack entries
    std::uint32_t alive = 0;         ///< bitmap of the live entries
    unsigned head = 0;
    unsigned tail = 0; ///< the oldest live entry, when live > 0
    unsigned live = 0; ///< the newest `live` entries are unexpired
    std::vector<std::uint32_t> index;
    /** byDelta[d & aliasMask]: the classes of stack delta d. */
    std::vector<std::uint32_t> byDelta;
    const std::vector<std::uint64_t> deltas; ///< per class
    std::uint64_t decisions = 0; ///< verdicts decided per class

    LaneStoreBuffer(const uarch::StoreBuffer &proto,
                    std::vector<std::uint64_t> class_deltas)
        : entries(proto.entries()), aliasMask(proto.aliasMask()),
          maxAge(proto.maxAge()), addr(entries, 0), size(entries, 0),
          icount(entries, 0), stack(entries, 0),
          index(std::size_t(aliasMask) + 1, 0),
          deltas(std::move(class_deltas))
    {
        if (deltas.size() == 1)
            return; // one class: load() reads only the index
        byDelta.assign(std::size_t(aliasMask) + 1, 0);
        for (std::size_t c = 0; c < deltas.size(); ++c)
            byDelta[deltas[c] & aliasMask] |= std::uint32_t(1) << c;
    }

    void record(Addr a, unsigned sz, std::uint64_t ic, bool on_stack)
    {
        // An unrecorded slot's bit is in no index entry.
        const std::uint32_t bit = std::uint32_t(1) << head;
        index[keyOf(addr[head], stack[head])] &= ~bit;
        index[keyOf(a, on_stack)] |= bit;
        alive |= bit;
        stackSlots = on_stack ? stackSlots | bit : stackSlots & ~bit;
        addr[head] = a;
        size[head] = sz;
        icount[head] = ic;
        stack[head] = on_stack;
        if (live < entries)
            ++live;
        else if (++tail == entries) // the oldest was overwritten
            tail = 0;
        if (++head == entries)
            head = 0;
    }

    /** StoreBuffer::loadAliases for a load at recorded address @p a:
     *  whether it stalls in the classes decided once, and in @p flips
     *  every class where it does the other thing.  The first live,
     *  unexpired, masked-matching entry in slot order decides (clean
     *  covering forwarding is free, anything else stalls). */
    __attribute__((always_inline)) bool load(Addr a, unsigned sz,
                                             std::uint64_t ic, bool on_stack,
                                             std::uint32_t &flips)
    {
        flips = 0;
        if (deltas.size() == 1) {
            // One class: the index holds its lane addresses, so its
            // first live match decides.
            for (std::uint32_t m = index[keyOf(a, on_stack)]; m;
                 m &= m - 1) {
                const unsigned j = unsigned(std::countr_zero(m));
                if (icount[j] + maxAge >= ic)
                    return !(keyed(j) == keyed(a, on_stack) &&
                             size[j] >= sz);
            }
            return false;
        }
        return loadClasses(a, sz, ic, on_stack, flips);
    }

  private:
    /** load() for several classes. */
    __attribute__((noinline)) bool loadClasses(Addr a, unsigned sz,
                                               std::uint64_t ic,
                                               bool on_stack,
                                               std::uint32_t &flips)
    {
        expire(ic);
        // The first class's matches in both regions; among those of the
        // load's own region, the first decides every class it precedes.
        const std::uint32_t hits = index[keyOf(a, on_stack)] & alive;
        const std::uint32_t mine = on_stack ? stackSlots : ~stackSlots;
        const std::uint32_t same = hits & mine;
        const unsigned first = same ? unsigned(std::countr_zero(same))
                                    : entries;
        const bool stall =
            same && !(addr[first] == a && size[first] >= sz);
        // Other-region entries ahead of it decide the classes they match.
        std::uint32_t cross = alive & ~mine &
                              std::uint32_t((std::uint64_t(1) << first) - 1);
        if (!cross)
            return stall;
        std::uint32_t decided = 0;
        const auto decide = [&](std::size_t c, unsigned j) {
            // Lane addresses: only the stack side moves.
            const Addr entry = on_stack ? addr[j] : addr[j] + deltas[c];
            const Addr load = on_stack ? a + deltas[c] : a;
            if (!(entry == load && size[j] >= sz) != stall)
                flips |= std::uint32_t(1) << c;
            decided |= std::uint32_t(1) << c;
        };
        // One byDelta read per candidate, in slot order: the first
        // that matches a class decides it.
        while (cross) {
            const unsigned j = unsigned(std::countr_zero(cross));
            cross &= cross - 1;
            const Addr key = on_stack ? addr[j] - a : a - addr[j];
            eachIn(byDelta[key & aliasMask] & ~decided,
                   [&](std::size_t c) { decide(c, j); });
        }
        decisions += std::uint64_t(std::popcount(decided));
        return stall;
    }

    /** Retires the entries a load at instruction @p ic no longer sees
     *  (a one-class buffer never needs `live`). */
    void expire(std::uint64_t ic)
    {
        while (live && icount[tail] + maxAge < ic) {
            alive &= ~(std::uint32_t(1) << tail);
            --live;
            if (++tail == entries)
                tail = 0;
        }
    }

    /** @p a in the first class's lane addresses, and its index key. */
    Addr keyed(Addr a, bool on_stack) const
    {
        return on_stack ? a + deltas[0] : a;
    }
    Addr keyed(unsigned slot) const { return keyed(addr[slot], stack[slot]); }
    std::size_t keyOf(Addr a, bool on_stack) const
    {
        return std::size_t(keyed(a, on_stack) & aliasMask);
    }
};

/**
 * The knobs of the shadow memory hierarchy, hoisted from
 * MachineConfig, and its access order written once: each walk makes
 * the component accesses of fetchAccounting()/memoryAccess() in the
 * same order, so its outcomes (the only thing the counters observe)
 * match the reference's access for access.  The cache walks reach the
 * three cache levels through a policy @p Mem whose hitI/hitD/hitL2
 * touch a line and report a hit: LaneMemory's canonical caches, or
 * one lane's view of them.  Obs hooks report where each event landed
 * (NullObserver compiles them out).
 */
struct MemoryTiming
{
    bool cachesOn, tlbsOn, prefetchOn, splitPenOn, sbAliasOn;
    Cycles iMissPen, l2MissPen, dHitLat, dMissPen, dtlbMissPen;
    Cycles splitPen, aliasPen;
    Addr dline;
    unsigned dpageShift;

    MemoryTiming(const MachineConfig &c, unsigned dpage_shift)
        : cachesOn(c.enableCaches), tlbsOn(c.enableTlbs),
          prefetchOn(c.enableNextLinePrefetch),
          splitPenOn(c.enableLineSplitPenalty),
          sbAliasOn(c.enableStoreBufferAliasing),
          iMissPen(c.icache.missPenalty), l2MissPen(c.l2.missPenalty),
          dHitLat(c.dcache.hitLatency), dMissPen(c.dcache.missPenalty),
          dtlbMissPen(c.dtlb.missPenalty), splitPen(c.lineSplitPenalty),
          aliasPen(c.aliasPenalty), dline(c.dcache.lineBytes),
          dpageShift(dpage_shift)
    {
    }

    /** Demand fetch of a new icache line: returns the miss penalty. */
    template <class Obs, class Mem>
    __attribute__((always_inline)) Cycles
    fetchLine(Obs &obs, Mem &&mem, Addr line, PerfCounters &ctrs) const
    {
        if (obs.icache(line, mem.hitI(line)))
            return 0;
        ctrs.inc(Counter::IcacheMisses);
        Cycles pen = iMissPen;
        if (!mem.hitL2(line)) {
            ctrs.inc(Counter::L2Misses);
            pen += l2MissPen;
        }
        return pen;
    }

    /** The dcache lines [@p first, @p last] of one data access: their
     *  added latency.  The miss path stays out of line. */
    template <class Obs, class Mem>
    __attribute__((always_inline)) Cycles
    dataLines(Obs &obs, Mem &&mem, Addr first, Addr last,
              PerfCounters &ctrs) const
    {
        Cycles lat = 0;
        for (Addr line = first; line <= last; line += dline) {
            if (!obs.dcache(line, mem.hitD(line))) {
                ctrs.inc(Counter::DcacheMisses);
                lat += dcacheMiss(obs, mem, line, ctrs);
            }
        }
        return lat;
    }

    /** L1D miss path (L2, optional next-line prefetch). */
    template <class Obs, class Mem>
    __attribute__((noinline)) Cycles dcacheMiss(Obs &obs, Mem &mem,
                                                Addr line,
                                                PerfCounters &ctrs) const
    {
        Cycles lat = dMissPen;
        if (!mem.hitL2(line)) {
            ctrs.inc(Counter::L2Misses);
            lat += l2MissPen;
        }
        if (prefetchOn) {
            // Background fill of the next line; no demand latency, but
            // it can pollute (and be perturbed by) set placement.
            ctrs.inc(Counter::PrefetchesIssued);
            obs.dcache(line + dline, mem.hitD(line + dline));
            mem.hitL2(line + dline);
        }
        return lat;
    }

    /** Every line a data access at [@p first, @p last] can touch in
     *  the dcache and the L2: the demand lines and, with the prefetcher
     *  on, the line after each. */
    template <class F>
    __attribute__((always_inline)) void eachDataLine(Addr first, Addr last,
                                                     F f) const
    {
        for (Addr line = first; line <= last; line += dline) {
            f(line);
            if (prefetchOn)
                f(line + dline);
        }
    }

    /** A line-crossing access's count and penalty. */
    __attribute__((always_inline)) Cycles split(Addr first, Addr last,
                                                PerfCounters &ctrs) const
    {
        if (last == first)
            return 0;
        ctrs.inc(Counter::LineSplits);
        return splitPenOn ? splitPen : 0;
    }

    /** A line-crossing store occupies the store port for an extra cycle
     *  (a structural resource the OoO window cannot hide). */
    Cycles storePort(Addr first, Addr last) const
    {
        return last != first && splitPenOn ? 1 : 0;
    }
};

/**
 * OS-interrupt noise and DVFS steps of one run, transcribed from the
 * reference loop: same independent RNG streams (one nextDouble per
 * schedule, two next() per evicted line pair, one nextDouble per DVFS
 * step), same schedule arithmetic, same eviction order (dcache set
 * then icache set), same lastCodeLine reset, same lump charge — so
 * noisy runs are bitwise identical to the oracle.  A disabled factor
 * never schedules (its next time stays ~0), so nextEvent, the earlier
 * of the two, is ~0 on noise-free runs and the per-dispatch check is
 * one compare that never fires.
 */
struct NoiseClock
{
    const NoiseModel *model;
    Rng irqRng;
    Rng dvfsRng;
    Cycles nextInterrupt = ~Cycles(0);
    Cycles nextDvfs = ~Cycles(0);
    Cycles nextEvent = ~Cycles(0);

    explicit NoiseClock(const NoiseModel &noise)
        : model(&noise), irqRng(noise.seed ^ 0x05e1f00dULL),
          dvfsRng(noise.seed ^ 0xd7f5c10cULL)
    {
        if (noise.enabled)
            scheduleInterrupt(0);
        if (noise.dvfsEnabled)
            scheduleDvfs(0);
        nextEvent = std::min(nextInterrupt, nextDvfs);
    }

    void scheduleInterrupt(Cycles from)
    {
        const double jitter = 0.5 + irqRng.nextDouble();
        nextInterrupt =
            from + Cycles(double(model->meanIntervalCycles) * jitter);
    }

    void scheduleDvfs(Cycles from)
    {
        const double jitter = 0.5 + dvfsRng.nextDouble();
        nextDvfs =
            from + Cycles(double(model->dvfsMeanIntervalCycles) * jitter);
    }

    /** Fires what is due at @p now: the interrupt first, then DVFS
     *  against the advanced clock, as the reference loop orders them.
     *  An interrupt's evictions go to lane @p k of @p mem
     *  (LaneMemory::evict(k, dcache set, icache set)), each drawn raw
     *  (the cache reduces it modulo its set count).  True when an
     *  interrupt fired: the caller's icache line memo must then
     *  re-access, as the reference resets lastCodeLine. */
    template <class Mem>
    __attribute__((noinline)) bool fire(Cycles &now, PerfCounters &ctrs,
                                        Mem &mem, std::size_t k)
    {
        const bool interrupt = now >= nextInterrupt;
        if (interrupt) {
            ctrs.inc(Counter::OsInterrupts);
            now += model->costCycles;
            for (unsigned e = 0; e < model->linesEvictedPerInterrupt; ++e) {
                const std::uint64_t dset = irqRng.next();
                mem.evict(k, dset, irqRng.next());
            }
            scheduleInterrupt(now);
        }
        if (now >= nextDvfs) {
            const double rj = 0.5 + dvfsRng.nextDouble();
            const Cycles residency =
                Cycles(double(model->dvfsMeanResidencyCycles) * rj);
            now += model->dvfsTransitionCycles +
                   residency * model->dvfsSlowdownPercent / 100;
            scheduleDvfs(now + residency);
        }
        nextEvent = std::min(nextInterrupt, nextDvfs);
        return interrupt;
    }
};

/**
 * The code-opacity shadow of a recording (runPlanImpl's Record mode):
 * which bytes hold which Call's pushed return address, as the number
 * of that push (0: none).  A plain load that overlaps such a byte, or a
 * Ret whose 8 bytes do not all come from one push, reads a code
 * address: the recording is then FunctionalTrace::codeVisible.  A store
 * clears the bytes it overwrites.  Bytes below the stack top sit in a
 * vector indexed down from it; the rest (a program may point sp
 * anywhere) in a map.  Accesses outside the span of marked bytes, most
 * data accesses, return at the first compare.
 */
class ReturnSlots
{
  public:
    explicit ReturnSlots(Addr stack_top) : top_(stack_top) {}

    /** A Call pushed its return address to [@p a, @p a + 8). */
    void call(Addr a)
    {
        ++pushes_;
        lo_ = std::min(lo_, a);
        hi_ = std::max(hi_, a + 7);
        if (near(a) && a + 8 <= top_ && top_ - a > near_.size())
            near_.resize(std::max<std::size_t>(top_ - a, 2 * near_.size()));
        if (std::uint32_t *p = span(a, 8)) {
            std::fill(p, p + 8, pushes_);
            return;
        }
        for (Addr b = a; b < a + 8; ++b)
            slot(b) = pushes_;
    }

    void store(Addr a, unsigned size)
    {
        if (!overlaps(a, size))
            return;
        if (std::uint32_t *p = span(a, size)) {
            std::fill(p, p + size, 0);
            return;
        }
        for (Addr b = a; b < a + size; ++b)
            if (get(b))
                slot(b) = 0;
    }

    /** True when a load of [@p a, @p a + @p size) reads a pushed byte. */
    bool load(Addr a, unsigned size) const
    {
        if (!overlaps(a, size))
            return false;
        if (const std::uint32_t *p = span(a, size)) {
            std::uint32_t any = 0;
            for (unsigned i = 0; i < size; ++i)
                any |= p[i];
            return any != 0;
        }
        for (Addr b = a; b < a + size; ++b)
            if (get(b))
                return true;
        return false;
    }

    /** True when a Ret's 8 bytes at @p a are not one push's. */
    bool ret(Addr a) const
    {
        const std::uint32_t push = get(a);
        if (const std::uint32_t *p = span(a, 8)) {
            std::uint32_t differ = 0;
            for (unsigned i = 0; i < 8; ++i)
                differ |= p[i] ^ push;
            return differ != 0 || push == 0;
        }
        for (Addr b = a + 1; b < a + 8; ++b)
            if (get(b) != push)
                return true;
        return push == 0;
    }

  private:
    /** The ids of [@p a, @p a + @p size) when the vector holds them all
     *  (highest byte first), else null. */
    std::uint32_t *span(Addr a, unsigned size) const
    {
        if (a + size > top_ || top_ - a > near_.size())
            return nullptr;
        return const_cast<std::uint32_t *>(near_.data()) +
               (top_ - a - size);
    }

    /** Stack bytes the vector may cover. */
    static constexpr Addr kNear = Addr(1) << 24;

    bool overlaps(Addr a, unsigned size) const
    {
        return a <= hi_ && a + size - 1 >= lo_;
    }
    bool near(Addr b) const { return b < top_ && top_ - 1 - b < kNear; }

    std::uint32_t get(Addr b) const
    {
        if (near(b)) {
            const Addr i = top_ - 1 - b;
            return i < near_.size() ? near_[i] : 0;
        }
        const auto it = far_.find(b);
        return it == far_.end() ? 0 : it->second;
    }

    std::uint32_t &slot(Addr b)
    {
        if (!near(b))
            return far_[b];
        const std::size_t i = std::size_t(top_ - 1 - b);
        if (i >= near_.size())
            near_.resize(std::max<std::size_t>(i + 1, 2 * near_.size()), 0);
        return near_[i];
    }

    const Addr top_;
    std::vector<std::uint32_t> near_;
    std::unordered_map<Addr, std::uint32_t> far_;
    std::uint32_t pushes_ = 0;
    Addr lo_ = ~Addr(0), hi_ = 0; ///< the span of bytes ever marked
};

/** Four lanes' int32 cycle offsets: an SSE2 register on x86-64, a NEON
 *  one on aarch64. */
typedef std::int32_t Lane4 __attribute__((vector_size(16)));

/** True when any element of the compare mask @p m is set. */
inline bool
anyLane(Lane4 m)
{
    std::uint64_t w[2];
    std::memcpy(w, &m, sizeof w);
    return (w[0] | w[1]) != 0;
}

/** Bit i set where element i of the compare mask @p m is set: one
 *  movemask on x86-64. */
inline std::uint32_t
laneBits(Lane4 m)
{
#if defined(__SSE2__)
    return std::uint32_t(_mm_movemask_ps(_mm_castsi128_ps(__m128i(m))));
#else
    return std::uint32_t((m[0] & 1) | (m[1] & 2) | (m[2] & 4) | (m[3] & 8));
#endif
}

/**
 * One cache level of a lane pass: the canonical ShadowCache every lane
 * shares, and per lane a copy of only the sets where that lane's state
 * differs from it.  mask[set] holds bit k while lane k owns a copy of
 * the set.  A lane takes its copy from the canonical set as it is now
 * (own()), and drops it as soon as its ways equal the canonical set
 * again (settle()): without the drop, every lane would soon own most of
 * its sets.  A lane's directory is allocated with its first copy, so a
 * lane that never diverges costs none.
 */
struct LaneCache
{
    /** Lanes one mask names; a wider pass is walked in chunks. */
    static constexpr std::size_t kMaxLanes = 32;

    struct Copies
    {
        std::vector<std::uint32_t> dir;   ///< dir[set] = 1 + slot; 0 none
        std::vector<std::uint64_t> arena; ///< arena[slot * ways + way]
        std::vector<std::uint32_t> free;  ///< slots of dropped copies
    };

    ShadowCache canon;
    std::vector<std::uint32_t> mask;
    std::vector<Copies> lanes;

    /** A cache whose @p n lanes may take copies (0: one lane, which
     *  never does: its sets are the canonical ones). */
    LaneCache(const uarch::CacheConfig &c, std::size_t n)
        : canon(c), mask(n ? c.sets : 0, 0), lanes(n)
    {
    }

    bool owns(std::size_t k, std::uint64_t set) const
    {
        return (mask[set] >> k) & 1;
    }

    /** Lane @p k's ways of @p set, copied from the canonical set when
     *  the lane owns none yet. */
    std::uint64_t *own(std::size_t k, std::uint64_t set)
    {
        if (owns(k, set))
            return lanes[k].arena.data() +
                   std::size_t(lanes[k].dir[set] - 1) * canon.ways;
        return copy(k, set);
    }

    __attribute__((noinline)) std::uint64_t *copy(std::size_t k,
                                                  std::uint64_t set)
    {
        Copies &c = lanes[k];
        const unsigned ways = canon.ways;
        std::uint32_t slot;
        if (!c.free.empty()) {
            slot = c.free.back();
            c.free.pop_back();
        } else {
            if (c.dir.empty())
                c.dir.assign(mask.size(), 0);
            slot = std::uint32_t(c.arena.size() / ways);
            c.arena.resize(c.arena.size() + ways);
        }
        c.dir[set] = slot + 1;
        mask[set] |= std::uint32_t(1) << k;
        std::uint64_t *w = c.arena.data() + std::size_t(slot) * ways;
        const std::uint64_t *from = canon.findSet(set);
        for (unsigned i = 0; i < ways; ++i)
            w[i] = from ? from[i] : 0;
        return w;
    }

    /** One access of lane @p k, on its own copy. */
    bool access(std::size_t k, Addr addr)
    {
        return ShadowCache::touchWays(own(k, canon.setOf(addr)), canon.ways,
                                      canon.keyOf(addr));
    }

    /** An interrupt's eviction of @p raw_set, in lane @p k only: the
     *  twin of uarch::Cache::invalidateSet.  Clearing valid bits there
     *  is observationally identical to zeroing the packed slots here (a
     *  stale tag can never hit again, and invalid ways shift through
     *  the MRU order exactly like empty ones). */
    void evict(std::size_t k, std::uint64_t raw_set)
    {
        const std::uint64_t set = raw_set & canon.setMask;
        const bool solo = lanes.empty(); // the canonical set is its own
        if ((solo || !owns(k, set)) && !canon.findSet(set))
            return; // empty in the lane already
        std::uint64_t *w = solo ? canon.touchSet(set) : own(k, set);
        std::fill(w, w + canon.ways, 0);
        if (!solo)
            settle(k, set);
    }

    /** Drops lane @p k's copy of @p set if it equals the canonical
     *  set. */
    void settle(std::size_t k, std::uint64_t set)
    {
        if (!owns(k, set))
            return;
        Copies &c = lanes[k];
        const std::uint32_t slot = c.dir[set] - 1;
        const std::uint64_t *w =
            c.arena.data() + std::size_t(slot) * canon.ways;
        const std::uint64_t *from = canon.findSet(set);
        for (unsigned i = 0; i < canon.ways; ++i)
            if (w[i] != (from ? from[i] : 0))
                return;
        c.dir[set] = 0;
        c.free.push_back(slot);
        mask[set] &= ~(std::uint32_t(1) << k);
    }
};

/**
 * The DTLB of a lane pass, for every delta class at once (a class is
 * the lanes with one stack delta).  A fully associative LRU of n
 * entries hits a page iff fewer than n other distinct pages were
 * touched since the page's last touch.  Non-stack pages are the same in
 * every class: they sit in one MRU list with the stamp of their last
 * touch.  Each class keeps its own MRU list of the stack pages it
 * touched.  A non-stack page at position pos is then a hit in a class
 * iff pos plus the class's stack pages newer than it is below n: once
 * for every class unless some class holds enough stack pages to reach
 * n.  A stack page is a lookup in its class's short list: a hit when at
 * most n stamps passed since its last touch, else its rank counts the
 * newer non-stack pages too.
 *
 * The two lists hold a class's whole LRU only while its stack pages and
 * the non-stack pages are disjoint.  Machine::runLanes holds that by
 * construction: a lane whose lowest stack page would not lie above the
 * recording's highest non-stack page runs alone on the live walk.
 */
struct LaneTlb
{
    struct Page
    {
        std::uint64_t vpn;
        std::uint64_t stamp; ///< of its last touch
    };

    const std::size_t n;
    const unsigned shift; ///< page size, log2
    const std::vector<std::uint64_t> deltas; ///< per class
    std::vector<Page> data; ///< non-stack pages, MRU-first, at most n
    /** Per class, its stack pages, MRU-first, at most n. */
    std::vector<std::vector<Page>> stacks;
    std::size_t deepest = 0; ///< bounds every class's stack pages
    std::uint64_t decisions = 0; ///< page outcomes decided per class

    LaneTlb(const uarch::TlbConfig &c, unsigned page_shift,
            std::vector<std::uint64_t> class_deltas)
        : n(c.entries), shift(page_shift), deltas(std::move(class_deltas)),
          stacks(deltas.size())
    {
    }

    /** Moves @p vpn to the front of @p list at @p stamp (inserting it
     *  at @p at == list.size() when absent), keeping n pages. */
    void toFront(std::vector<Page> &list, std::size_t at, std::uint64_t vpn,
                 std::uint64_t stamp)
    {
        if (at == list.size()) {
            if (list.size() < n)
                list.push_back({});
            at = list.size() - 1;
        }
        for (std::size_t i = at; i > 0; --i)
            list[i] = list[i - 1];
        list[0] = {vpn, stamp};
    }

    static std::size_t find(const std::vector<Page> &list, std::uint64_t vpn)
    {
        std::size_t i = 0;
        while (i < list.size() && list[i].vpn != vpn)
            ++i;
        return i;
    }

    /** Pages of @p list touched after @p stamp (it is MRU-first). */
    static std::size_t newer(const std::vector<Page> &list,
                             std::uint64_t stamp)
    {
        std::size_t i = 0;
        while (i < list.size() && list[i].stamp > stamp)
            ++i;
        return i;
    }

    /** A non-stack touch of @p vpn at @p stamp.  Returns whether it
     *  misses in the classes decided once; @p flips gets every class
     *  whose outcome is the other one. */
    __attribute__((always_inline)) bool
    touchData(std::uint64_t vpn, std::uint64_t stamp, std::uint32_t &flips)
    {
        flips = 0;
        // One of the two newest non-stack pages again (a walk that
        // alternates between two pages), where no class holds enough
        // stack pages to push it out: a hit everywhere.
        const std::size_t size = data.size();
        if (size && data[0].vpn == vpn && deepest < n) {
            data[0].stamp = stamp;
            return false;
        }
        if (size > 1 && data[1].vpn == vpn && deepest + 1 < n) {
            data[1] = data[0];
            data[0] = {vpn, stamp};
            return false;
        }
        return touchDataAnywhere(vpn, stamp, flips);
    }

    __attribute__((noinline)) bool
    touchDataAnywhere(std::uint64_t vpn, std::uint64_t stamp,
                      std::uint32_t &flips)
    {
        const std::size_t pos = find(data, vpn);
        const bool miss = pos == data.size();
        if (!miss && pos + deepest >= n) {
            // Some class may hold enough newer stack pages to push the
            // page out: count each one's.
            const std::uint64_t last = data[pos].stamp;
            deepest = 0;
            for (std::size_t c = 0; c < stacks.size(); ++c) {
                deepest = std::max(deepest, stacks[c].size());
                if (pos + newer(stacks[c], last) >= n)
                    flips |= std::uint32_t(1) << c;
            }
            decisions += stacks.size();
        }
        toFront(data, pos, vpn, stamp);
        return miss;
    }

    /** A stack access of @p size bytes at recorded address @p a, its
     *  pages at @p stamp and @p stamp + 1: out(c, misses) for each
     *  class that misses. */
    template <class Out>
    __attribute__((always_inline)) void
    touchStacks(Addr a, unsigned size, std::uint64_t stamp, Out out)
    {
        decisions += stacks.size();
        for (std::size_t c = 0; c < stacks.size(); ++c) {
            const Addr la = a + deltas[c];
            const std::uint64_t first = la >> shift;
            const std::uint64_t last = (la + size - 1) >> shift;
            // Its newest stack page again, within n stamps: a hit (it
            // lies above every non-stack page).
            std::vector<Page> &s = stacks[c];
            if (first == last && !s.empty() && s[0].vpn == first &&
                stamp - s[0].stamp <= n) {
                s[0].stamp = stamp;
                continue;
            }
            if (const int misses =
                    int(touchStack(c, first, stamp)) +
                    int(last != first && touchStack(c, last, stamp + 1)))
                out(c, misses);
        }
    }

  private:
    /** Class @p c's touch of stack page @p vpn at @p stamp: true on a
     *  miss. */
    __attribute__((noinline)) bool
    touchStack(std::size_t c, std::uint64_t vpn, std::uint64_t stamp)
    {
        std::vector<Page> &s = stacks[c];
        const std::size_t at = find(s, vpn);
        bool miss = at == s.size();
        if (!miss && stamp - s[at].stamp > n)
            miss = at + newer(data, s[at].stamp) >= n;
        toFront(s, at, vpn, stamp);
        // n newer non-stack pages put a stack page out for good.
        if (data.size() == n)
            while (s.back().stamp < data.back().stamp)
                s.pop_back();
        deepest = std::max(deepest, s.size());
        return miss;
    }
};

/**
 * The memory hierarchy of a walk — icache, dcache, the L2 they share,
 * DTLB and store buffer — for every lane of it at once, in the access
 * order MemoryTiming writes down.  A lane pass (LaneGroups) holds one
 * over its lanes; a live walk (LiveLane) holds one of one lane and one
 * delta class of delta 0 (Solo), with no stack region: every access is
 * shared, every event is booked in canon, and its caches take no copies
 * (the lane's sets are the canonical ones, LaneCache::evict).  Linked is
 * the pass at several code layouts (Src = Relinked).
 *
 * The caches, DTLB and store buffer update in access order and age by
 * instruction count, never by a lane's clock, so lanes that see the
 * same addresses hold the same state until a noise event splits them.
 *  - The DTLB and the store buffer: noise never touches them, so lanes
 *    with the same stack delta (initialSp - recordedSp), a delta class,
 *    hold the same state.  One LaneTlb and one LaneStoreBuffer serve
 *    every class, in the recording's coordinates.  An outcome the same
 *    in every class is decided and booked once; a class where its delta
 *    changes the outcome books the difference on its own, and its lanes
 *    take its latency difference (Class::extra).
 *  - The icache, dcache and L2 are each a LaneCache: a canonical cache
 *    and per-lane copies of the sets where a lane differs.  An access
 *    at the same address in every lane is walked once on the canonical
 *    state; every lane that owns no copy of a set that walk can touch
 *    shares it, its latency broadcast and its events booked once.
 *    Each other lane first copies the sets that walk can touch, walks
 *    the access on its copies and takes back the canonical walk's
 *    events (walkShared()).  A stack access at a different address in
 *    each lane is walked by every lane on its own copies, and the
 *    canonical state skips it (stackLane()).
 * Lane k's memory events are then its own (View::ctrs) plus the
 * canonical ones plus its delta class's.  Taking back is unsigned
 * arithmetic whose sum is exact.
 */
template <class Obs, bool Linked, bool Solo>
struct LaneMemory : MemoryTiming
{
    /** Lane k's side of the hierarchy. */
    struct View
    {
        std::size_t cls;    ///< its delta class
        PerfCounters ctrs;  ///< its events of its own
        Cycles walked = 0;  ///< this access's cost on its own copies
    };
    /** The lanes of one stack delta (deltas[c]). */
    struct Class
    {
        PerfCounters ctrs; ///< its DTLB and store-buffer differences
        /** This access's DTLB misses and alias stalls past the ones
         *  booked once, and their latency. */
        std::int32_t misses = 0, stalls = 0;
        Cycles extra = 0;
    };
    /** One data access, as the lanes take it. */
    struct Access
    {
        /** A load's latency where every outcome is shared, a store's
         *  port cycles (with `each`: the DTLB's and store buffer's). */
        Cycles lat = 0;
        Cycles cost = 0;          ///< the canonical cache walk's
        std::uint32_t differ = 0; ///< classes with a DTLB/alias difference
        bool each = false; ///< a stack access each lane walks (stackLane)
    };
    /** The canonical caches, as MemoryTiming's walk policy. */
    struct Canon
    {
        LaneMemory &m;
        bool hitI(Addr line) { return m.icache.canon.access(line); }
        bool hitD(Addr line) { return m.dcache.canon.access(line); }
        bool hitL2(Addr line) { return m.l2.canon.access(line); }
    };
    /** Lane k's caches: its copies, taken on touch. */
    struct Own
    {
        LaneMemory &m;
        std::size_t k;
        bool hitI(Addr line) { return m.icache.access(k, line); }
        bool hitD(Addr line) { return m.dcache.access(k, line); }
        bool hitL2(Addr line) { return m.l2.access(k, line); }
    };

    Obs &obs;
    const std::vector<std::uint64_t> deltas; ///< per class
    const Addr boundary; ///< the stack region's start (~0: none)
    std::vector<View> lanes;
    std::vector<Class> classes;
    LaneCache icache, dcache, l2;
    LaneTlb tlb;
    LaneStoreBuffer sb;
    PerfCounters canon; ///< events booked once for every lane
    std::uint64_t stamp = 0; ///< 2 x the data accesses the DTLB saw
    /** The lanes whose last cache walk ran on their own copies (each
     *  one's cost in View::walked). */
    std::uint32_t diverged = 0;
    std::uint64_t laneAccesses = 0;     ///< lanes x memory accesses
    std::uint64_t divergedAccesses = 0; ///< of them, on a lane's own copies

    /** A walk of @p ls: a lane pass of the recording @p trace, or
     *  (Solo, no trace) the live walk of its one lane.  Inline, as are
     *  the lane states' constructors: a call with stack arguments would
     *  cost runPlanImpl's dispatch loop a register (a frame pointer). */
    __attribute__((always_inline))
    LaneMemory(Obs &o, const MachineConfig &c, unsigned dpage_shift,
               const uarch::StoreBuffer &sb_proto,
               std::span<const ReplayLane> ls, const FunctionalTrace *trace)
        : MemoryTiming(c, dpage_shift), obs(o),
          deltas(Solo ? std::vector<std::uint64_t>{0}
                      : deltasOf(ls, trace->recordedSp)),
          boundary(Solo ? ~Addr(0) : trace->stackBoundary),
          classes(deltas.size()), icache(c.icache, Solo ? 0 : ls.size()),
          dcache(c.dcache, Solo ? 0 : ls.size()),
          l2(c.l2, Solo ? 0 : ls.size()), tlb(c.dtlb, dpage_shift, deltas),
          sb(sb_proto, deltas)
    {
        lanes.reserve(ls.size());
        for (const ReplayLane &lane : ls) {
            const std::uint64_t delta =
                Solo ? 0 : lane.image->initialSp - trace->recordedSp;
            const auto cls = std::find(deltas.begin(), deltas.end(), delta);
            lanes.push_back({std::size_t(cls - deltas.begin()), {}});
        }
    }

    /** An interrupt's eviction of @p dset and @p iset (raw set
     *  numbers), in lane @p k only. */
    void evict(std::size_t k, std::uint64_t dset, std::uint64_t iset)
    {
        dcache.evict(k, dset);
        icache.evict(k, iset);
    }

    /** A demand fetch of icache line @p line in every lane: the miss
     *  penalty of the lanes that share the canonical walk.  Kept out of
     *  line: sequential fetch mostly stays within a line. */
    __attribute__((noinline)) Cycles fetch(Addr line)
    {
        return walkShared(
            [&](auto &&mem, PerfCounters &ctrs)
                __attribute__((always_inline)) {
                    return fetchLine(obs, mem, line, ctrs);
                },
            [&](auto f) __attribute__((always_inline)) {
                f(icache, line);
                f(l2, line);
            });
    }

    /** Lane @p k's fetch of @p line on its own copies; with @p settle,
     *  it drops the copies that equal the canonical sets again. */
    Cycles fetchOwn(std::size_t k, Addr line, bool settle)
    {
        ++laneAccesses;
        ++divergedAccesses;
        const Cycles pen = fetchLine(obs, Own{*this, k}, line, lanes[k].ctrs);
        if (settle) {
            icache.settle(k, icache.canon.setOf(line));
            l2.settle(k, l2.canon.setOf(line));
        }
        return pen;
    }

    /** The data side of one load or store at recorded address @p a:
     *  the DTLB and store buffer, then, unless each lane walks it on
     *  its own, the split and the shared cache walk. */
    template <bool kStore>
    __attribute__((always_inline)) Access access(Addr a, unsigned size,
                                                 std::uint64_t icount)
    {
        Access out;
        const bool stack = !Solo && a >= boundary;
        out.lat = kStore ? 0 : dHitLat;
        out.differ = tlbAndStoreBuffer<kStore>(a, size, icount, stack,
                                               out.lat);
        if (stack) {
            if (classes.size() > 1) {
                laneAccesses += lanes.size();
                divergedAccesses += lanes.size();
                out.each = true;
                return out;
            }
            a += deltas[0];
        }
        const Addr first = alignDown(a, dline);
        const Addr last = alignDown(a + size - 1, dline);
        out.lat += split(first, last, canon);
        if (cachesOn) {
            // At several code layouts the lanes own L2 copies of their
            // code lines.  A walk that hits the canonical dcache on
            // every line touches no L2 set (and prefetches nothing), so
            // then only the lanes that own a dcache set differ from it.
            bool l1 = Linked;
            for (Addr line = first; l1 && line <= last; line += dline)
                l1 = dcache.canon.contains(line);
            // Inline walks: an out-of-line one made each access a call.
            out.cost = walkShared(
                [&](auto &&mem, PerfCounters &ctrs)
                    __attribute__((always_inline)) {
                        return dataLines(obs, mem, first, last, ctrs);
                    },
                [&](auto f) __attribute__((always_inline)) {
                    eachDataLine(first, last, [&](Addr line) {
                        f(dcache, line);
                        if (!l1)
                            f(l2, line);
                    });
                });
        } else if (!Solo) {
            laneAccesses += lanes.size();
            diverged = 0;
        }
        out.lat = kStore ? storePort(first, last) : out.lat + out.cost;
        return out;
    }

    /** Lane @p k's latency of the load @p acc: the shared one, its own
     *  walk's in place of the canonical one's, and its class's extra
     *  (both unsigned corrections, exact in the sum). */
    Cycles latency(const Access &acc, std::size_t k) const
    {
        const View &v = lanes[k];
        Cycles lat = acc.lat + extra(acc.differ, v.cls);
        if ((diverged >> k) & 1)
            lat += v.walked - acc.cost;
        return lat;
    }

    /** Lane @p k's part of the stack access @p acc at recorded address
     *  @p a (acc.each): it walks the caches at its own address, on its
     *  own copies.  Returns its load latency, or a store's port cycles.
     *  Not settled: every copy this walk touched now holds a stack line
     *  at its MRU way, which the canonical caches (code and non-stack
     *  data only, in this pass) do not hold.  An undropped equal copy
     *  would only cost time. */
    template <bool kStore>
    Cycles stackLane(std::size_t k, Addr a, unsigned size, const Access &acc)
    {
        View &v = lanes[k];
        const Addr la = a + deltas[v.cls];
        const Addr first = alignDown(la, dline);
        const Addr last = alignDown(la + size - 1, dline);
        Cycles lat = acc.lat + extra(acc.differ, v.cls);
        if (cachesOn)
            lat += dataLines(obs, Own{*this, k}, first, last, v.ctrs);
        lat += split(first, last, v.ctrs);
        return kStore ? storePort(first, last) : lat;
    }

  private:
    /** The events a cache walk books. */
    static constexpr Counter kCacheCounters[] = {
        Counter::IcacheMisses, Counter::DcacheMisses, Counter::L2Misses,
        Counter::PrefetchesIssued};

    /** The stack deltas (initialSp - recordedSp) of @p ls, each once,
     *  in order of first lane. */
    static std::vector<std::uint64_t>
    deltasOf(std::span<const ReplayLane> ls, Addr recorded_sp)
    {
        std::vector<std::uint64_t> out;
        for (const ReplayLane &lane : ls) {
            const std::uint64_t delta = lane.image->initialSp - recorded_sp;
            if (std::find(out.begin(), out.end(), delta) == out.end())
                out.push_back(delta);
        }
        return out;
    }

    /**
     * One cache walk at the same address in every lane, @p walk(mem,
     * ctrs) through a level policy; @p sets(f) names, as f(cache,
     * line), every set it can touch.  A lane that owns no copy of any
     * of those sets shares the canonical walk: step by step, its own
     * walk would touch the same sets in the same state.  The others,
     * left in `diverged`, first copy every one of those sets they
     * lack, so the canonical walk cannot change a set under them, walk
     * their copies and leave their cost in `walked`.  The canonical
     * walk then runs once and returns its cost; each diverged lane
     * takes back its events and drops the copies that equal the
     * canonical sets again.
     */
    template <class Walk, class Sets>
    __attribute__((always_inline)) Cycles walkShared(Walk walk, Sets sets)
    {
        if constexpr (Solo)
            return walk(Canon{*this}, canon);
        // A local: or-ing into the member cost OoO lane passes ~4%.
        std::uint32_t d = 0;
        laneAccesses += lanes.size();
        sets([&](const LaneCache &c, Addr line) {
            d |= c.mask[c.canon.setOf(line)];
        });
        diverged = d;
        if (__builtin_expect(d == 0, 1))
            return walk(Canon{*this}, canon);
        divergedAccesses += std::uint64_t(std::popcount(diverged));
        eachIn(diverged, [&](std::size_t k) {
            sets([&](LaneCache &c, Addr line) {
                c.own(k, c.canon.setOf(line));
            });
            lanes[k].walked = walk(Own{*this, k}, lanes[k].ctrs);
        });
        std::uint64_t once[std::size(kCacheCounters)];
        for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
            once[i] = canon.get(kCacheCounters[i]);
        const Cycles cost = walk(Canon{*this}, canon);
        for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
            once[i] = canon.get(kCacheCounters[i]) - once[i];
        eachIn(diverged, [&](std::size_t k) {
            for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
                lanes[k].ctrs.inc(kCacheCounters[i],
                                  std::uint64_t(0) - once[i]);
            sets([&](LaneCache &c, Addr line) {
                c.settle(k, c.canon.setOf(line));
            });
        });
        return cost;
    }

    /**
     * The DTLB's and the store buffer's half of one data access at
     * recorded address @p a: what every class shares goes to @p base and
     * canon, each other class's difference to its misses/stalls, its
     * counters and its extra latency.  Returns the classes that differ:
     * never one in a live walk, whose one class decides every outcome.
     */
    template <bool kStore>
    __attribute__((always_inline)) std::uint32_t
    tlbAndStoreBuffer(Addr a, unsigned size, std::uint64_t icount, bool stack,
                      Cycles &base)
    {
        std::uint32_t differ = 0;
        if (tlbsOn) {
            const std::uint64_t t = stamp;
            stamp += 2;
            if (!stack) {
                const std::uint64_t first = a >> dpageShift;
                const std::uint64_t last = (a + size - 1) >> dpageShift;
                unsigned misses = dtlbData(first, t, differ);
                if (last != first)
                    misses += dtlbData(last, t + 1, differ);
                obs.dtlb(first, misses);
                if (misses) {
                    canon.inc(Counter::DtlbMisses, misses);
                    base += misses * dtlbMissPen;
                }
            } else {
                tlb.touchStacks(a, size, t, [&](std::size_t c, int misses) {
                    classes[c].misses = misses;
                    differ |= std::uint32_t(1) << c;
                });
            }
        }
        if (kStore) {
            sb.record(a, size, icount, stack);
        } else if (sbAliasOn) {
            std::uint32_t flips;
            const bool stall = sb.load(a, size, icount, stack, flips);
            if (stall) {
                canon.inc(Counter::AliasStalls);
                base += aliasPen;
            }
            eachIn(flips, [&](std::size_t c) {
                classes[c].stalls = stall ? -1 : 1;
            });
            differ |= flips;
        }
        eachIn(differ, [&](std::size_t c) {
            Class &k = classes[c];
            k.ctrs.inc(Counter::DtlbMisses, std::uint64_t(k.misses));
            k.ctrs.inc(Counter::AliasStalls, std::uint64_t(k.stalls));
            k.extra = Cycles(k.misses) * dtlbMissPen +
                      Cycles(k.stalls) * aliasPen;
            k.misses = k.stalls = 0;
        });
        return differ;
    }

    /** A non-stack DTLB touch: 1 on a miss in the classes decided once,
     *  each other class's difference in its misses. */
    unsigned dtlbData(std::uint64_t vpn, std::uint64_t at,
                      std::uint32_t &differ)
    {
        std::uint32_t flips;
        const bool miss = tlb.touchData(vpn, at, flips);
        eachIn(flips, [&](std::size_t c) {
            classes[c].misses += miss ? -1 : 1;
        });
        differ |= flips;
        return miss;
    }

    /** Class @p c's latency difference when it is in @p differ. */
    Cycles extra(std::uint32_t differ, std::size_t c) const
    {
        return (differ >> c) & 1 ? classes[c].extra : 0;
    }
};

/*
 * The per-lane half of every runPlanImpl handler is written once, as
 * calls on a lane-state object that applies one step of the reference
 * loop to every lane it holds, in the reference's order per lane:
 *
 *   noise()   the OS-interrupt/DVFS check, before fetch;
 *   front()   the op's shared fetch charge, then the icache line memo;
 *   wait()    one or two operand waits (CoreModel stall exposure);
 *   set()     a result's ready time (CoreModel issue blocking);
 *   charge()  a branch/jump/call/return charge;
 *   load(), store()  the data-side access through the memory hierarchy.
 *
 * Lanes never share a clock or a ready time, and share memory-model
 * state only where it is the same in every lane, so a step may run lane
 * after lane.  LiveLane is a live walk's one lane in 64-bit cycles;
 * LaneGroups holds a lane pass, four lanes per vector.  Both reach the
 * caches, DTLB and store buffer through one LaneMemory.
 */

/**
 * The lane state of a live walk (Src = Live): one lane, in 64-bit
 * cycles, with the reference loop's own arithmetic, over a LaneMemory
 * of one lane.  Its counters are the memory's canonical ones (every
 * event of a lone lane is booked once), and the trace tier's batch
 * handler reads and writes its fields directly.
 */
template <class Core, class Obs>
struct LiveLane
{
    LaneMemory<Obs, false, true> mem;
    NoiseClock clock;
    const Cycles window;
    const Addr iline;
    Cycles now = 0;
    Cycles nextEvent; ///< copy of clock.nextEvent
    Addr lastCodeLine = ~Addr(0);
    std::array<Cycles, isa::reg::numRegs> regReady{};

    __attribute__((always_inline))
    LiveLane(Obs &o, const MachineConfig &c, unsigned dpage_shift,
             const uarch::StoreBuffer &sb, std::span<const ReplayLane> lanes,
             const FunctionalTrace *)
        : mem(o, c, dpage_shift, sb, lanes, nullptr),
          clock(lanes.front().noise), window(c.oooWindowCycles),
          iline(c.icache.lineBytes), nextEvent(clock.nextEvent)
    {
    }

    __attribute__((always_inline)) void noise()
    {
        if (__builtin_expect(now >= nextEvent, 0)) {
            if (clock.fire(now, mem.canon, mem, 0))
                lastCodeLine = ~Addr(0); // force an icache re-access
            nextEvent = clock.nextEvent;
        }
    }

    __attribute__((always_inline)) void front(Cycles charge, Addr first,
                                              Addr last)
    {
        now += charge;
        if (mem.cachesOn) {
            for (Addr line = first; line <= last; line += iline) {
                if (line == lastCodeLine)
                    continue;
                lastCodeLine = line;
                now += mem.fetch(line);
            }
        }
    }

    __attribute__((always_inline)) void wait(isa::Reg r)
    {
        const Cycles ready = regReady[r];
        if (ready > now) {
            const Cycles stall = ready - now;
            // In-order cores expose the whole stall, the OoO window
            // hides up to window of it.
            Cycles exposed;
            if constexpr (Core::kInOrder)
                exposed = stall;
            else
                exposed = stall - std::min<Cycles>(stall, window);
            if (exposed) {
                now += exposed;
                mem.canon.inc(Counter::StallCycles, exposed);
            }
        }
    }

    __attribute__((always_inline)) void wait(isa::Reg r1, isa::Reg r2)
    {
        wait(r1);
        wait(r2);
    }

    /** In-order pipes block issue behind a multi-cycle ALU op (busy
     *  cycles are exposed stalls, the result is ready right after issue
     *  resumes); OoO cores tag the result with its latency and let
     *  wait() settle it. */
    __attribute__((always_inline)) void set(isa::Reg rd, Cycles lat)
    {
        if constexpr (Core::kInOrder) {
            if (lat > 1) {
                now += lat - 1;
                mem.canon.inc(Counter::StallCycles, lat - 1);
                lat = 1;
            }
        }
        if (rd != isa::reg::zero)
            regReady[rd] = now + lat;
    }

    __attribute__((always_inline)) void charge(Cycles c) { now += c; }

    /** rd = zero discards the latency (a return's stack read). */
    __attribute__((always_inline)) void load(Addr a, unsigned size,
                                             std::uint64_t icount,
                                             isa::Reg rd)
    {
        const Cycles lat = mem.template access<false>(a, size, icount).lat;
        if (rd != isa::reg::zero)
            regReady[rd] = now + lat;
    }

    /** A line-crossing store takes the store port's extra cycle. */
    __attribute__((always_inline)) void store(Addr a, unsigned size,
                                              std::uint64_t icount)
    {
        now += mem.template access<true>(a, size, icount).lat;
    }
};

/** The code classes of @p lanes: each distinct program, in order of
 *  first lane, with each lane's index into them in @p class_of. */
std::vector<const toolchain::LinkedProgram *>
codeLayoutsOf(std::span<const ReplayLane> lanes,
              std::vector<std::uint32_t> &class_of)
{
    std::vector<const toolchain::LinkedProgram *> out;
    class_of.clear();
    for (const ReplayLane &lane : lanes) {
        const auto *p = lane.image->program.get();
        const auto it = std::find(out.begin(), out.end(), p);
        class_of.push_back(std::uint32_t(it - out.begin()));
        if (it == out.end())
            out.push_back(p);
    }
    return out;
}

/** A lane pass times lanes at other code layouts (CodeClasses) only
 *  while every class's code lies below this, so that its code
 *  addresses, fetch-block ends included, fit the int32 fetch step,
 *  and only for budgets whose fetch groups fit a uint32 count. */
constexpr Addr kLinkCodeLimit = Addr(1) << 30;
constexpr std::uint64_t kLinkBudgetLimit = ~std::uint32_t(0);

/**
 * The front ends of a lane pass whose lanes sit at several code
 * layouts (Src = Relinked): one code class per layout, each with the
 * live walk's fetch groups, ITLB, predictor and BTB, stepped over the
 * class's own pcs.  The pass decodes the recorded program's ops, and a
 * class reads the pc of recorded op i, and of its targets, in row i of
 * the pc table: the same function at the same offset in its link
 * (mapCodeIndex).  Each step leaves every class's charge for the lanes
 * of that class (charge()), and a fetch its icache lines; the counters
 * a front end owns (fetch groups, ITLB misses, mispredicts, BTB misses)
 * stay with the class.
 *
 * The fetch step is the hot one: it runs for every op in every class.
 * Its state is held four classes to a Lane4, in the int32 code
 * addresses a link always has (Machine::runLanes times a lane at
 * another layout only when its code and the recording's lie below
 * kLinkCodeLimit), so one vector step advances four classes' fetch
 * groups and icache lines.  What each class does on its own — a new ITLB
 * page, a predictor or BTB lookup — is a scalar step on its element.
 */
template <class Core>
class CodeClasses
{
  public:
    /** The lines [first, last] of the current op in each class, and
     *  the line its non-stale lanes fetched last. */
    struct Lines
    {
        Lane4 first{}, last{}, memo{};
    };

    CodeClasses(const MachineConfig &c, unsigned ipage_shift,
                const toolchain::LinkedProgram &recorded,
                std::span<const ReplayLane> lanes)
        : bpOn_(c.enableBranchPrediction), btbOn_(c.enableBtb),
          modelBlocks_(c.enableFetchBlockModel), tlbsOn_(c.enableTlbs),
          ipageShift_(ipage_shift),
          width_(Lane4{} + std::int32_t(c.fetchWidth)),
          block_(std::int32_t(c.fetchBlockBytes)),
          lineMask_(~std::int32_t(c.icache.lineBytes - 1)),
          itlbMissPen_(std::int32_t(c.itlb.missPenalty)),
          mispredictPen_(std::int32_t(c.branchMispredictPenalty)),
          btbMissPen_(std::int32_t(c.btbMissPenalty)),
          realignPen_(std::int32_t(c.fetchRealignPenalty))
    {
        std::vector<std::uint32_t> class_of;
        const auto progs = codeLayoutsOf(lanes, class_of);
        n_ = progs.size();
        const std::size_t groups = (n_ + 3) / 4;
        fetch_.resize(groups);
        lines_.resize(groups);
        charge_.resize(groups);
        // Padding elements fetch at pc 0 forever, on page 0 from line 0:
        // never a new line or page, so never a step of their own, and
        // no class or counts.
        for (std::size_t c = 0; c < n_; ++c) {
            lines_[c / 4].memo[c % 4] = -1;
            fetch_[c / 4].page[c % 4] = -1;
        }
        pcs_.assign(recorded.code.size() * groups, Lane4{});
        for (std::size_t k = 0; k < n_; ++k) {
            auto predictor = makePredictor(c);
            const HotPredictor hot(c, *predictor);
            units_.push_back({std::move(predictor), hot,
                              uarch::BasicBtb<std::uint32_t>(c.btbSets,
                                                             c.btbWays),
                              ShadowTlb(c.itlb), {}});
            // The pc table, row by recorded code index.
            std::unordered_map<const isa::Function *, std::uint32_t> entry;
            for (const toolchain::LinkedFunction &lf : progs[k]->functions)
                entry.emplace(lf.def, lf.entryIdx);
            for (const toolchain::LinkedFunction &lf : recorded.functions) {
                const std::uint32_t at = entry.at(lf.def);
                for (std::size_t i = 0; i < lf.def->insts().size(); ++i)
                    pcs_[(lf.entryIdx + i) * groups + k / 4][k % 4] =
                        std::int32_t(progs[k]->code[at + i].pc);
            }
        }
    }

    std::size_t size() const { return n_; }

    /** Classes 4g .. 4g + 3's charge of the current step (0 past the
     *  last class; g below (size() + 3) / 4). */
    Lane4 charge(std::size_t g) const { return charge_[g]; }
    /** Class @p c's charge of the current step. */
    std::int32_t charge1(std::size_t c) const { return charge_[c / 4][c % 4]; }

    /** Class @p c's icache lines of the current op, and its memo. */
    Addr first(std::size_t c) const { return Addr(lines_[c / 4].first[c % 4]); }
    Addr last(std::size_t c) const { return Addr(lines_[c / 4].last[c % 4]); }
    Addr memo(std::size_t c) const { return Addr(lines_[c / 4].memo[c % 4]); }

    /** After front(): the classes whose op left their memo line or
     *  spans two, one bit per class. */
    std::uint32_t moved() const { return moved_; }

    /** Every class's lanes fetched its op's lines. */
    void fetched()
    {
        for (Lines &l : lines_)
            l.memo = l.last;
    }

    /** Every charge class @p c's lanes took: each one is an event the
     *  class counted, times its penalty. */
    Cycles charged(std::size_t c) const
    {
        const Unit &u = units_[c];
        return fetchGroups(c) + u.ctrs.get(Counter::ItlbMisses) * itlbMissPen_ +
               u.ctrs.get(Counter::BranchMispredicts) * mispredictPen_ +
               u.ctrs.get(Counter::BtbMisses) * btbMissPen_ +
               u.realigns * realignPen_;
    }

    /** The counters class @p c's front end booked. */
    PerfCounters counters(std::size_t c) const
    {
        PerfCounters out = units_[c].ctrs;
        out.inc(Counter::FetchGroups, fetchGroups(c));
        return out;
    }

    /** runPlanImpl's front() for recorded op @p at of @p size bytes:
     *  per class, a new fetch group when forced, out of slots or past
     *  its block; the op's lines; a new ITLB page. */
    __attribute__((always_inline)) void front(std::uint32_t at,
                                              unsigned size)
    {
        const Lane4 *pcs = &pcs_[std::size_t(at) * fetch_.size()];
        const std::int32_t sz = std::int32_t(size);
        std::uint32_t moved = 0;
        Lane4 paged{};
        for (std::size_t g = 0; g < fetch_.size(); ++g) {
            Fetch &f = fetch_[g];
            Lines &l = lines_[g];
            const Lane4 pc = pcs[g];
            Lane4 open = f.forceNew | (f.slots == 0);
            if (modelBlocks_)
                open |= pc >= f.blockEnd;
            const Lane4 end = (pc & -block_) + block_;
            f.groups -= open; // open is -1 where it opens
            f.slots = ((open & width_) | (~open & f.slots)) - 1;
            f.blockEnd = (open & end) | (~open & f.blockEnd);
            f.forceNew = Lane4{};
            if (modelBlocks_)
                f.slots &= ~(pc + sz > f.blockEnd);
            l.first = pc & lineMask_;
            l.last = (pc + (sz - 1)) & lineMask_;
            moved |= laneBits((l.first != l.memo) | (l.last != l.first))
                     << (4 * g);
            charge_[g] = -open;
            if (tlbsOn_)
                paged |= (pc >> ipageShift_) != f.page;
        }
        moved_ = moved;
        if (__builtin_expect(anyLane(paged), 0))
            itlb(pcs, size);
    }

    /** branch_charge()'s predictor, BTB and realign half, for the
     *  conditional branch at recorded op @p at to op @p target. */
    void branch(std::uint32_t at, std::uint32_t target, bool taken)
    {
        const Lane4 *pcs = row(at), *targets = row(target);
        step([&](std::size_t c, bool &force) {
            const Addr pc = Addr(pcs[c / 4][c % 4]);
            Unit &u = units_[c];
            std::int32_t charge = 0;
            if (bpOn_ && u.hot.mispredicted(pc, taken)) {
                u.ctrs.inc(Counter::BranchMispredicts);
                charge += mispredictPen_;
                force = true;
            }
            if (taken) {
                const Addr to = Addr(targets[c / 4][c % 4]);
                charge += btb(u, pc, to) + realign(u, to, force);
            }
            return charge;
        });
    }

    /** A Jmp or Call at recorded op @p at to op @p target. */
    void transfer(std::uint32_t at, std::uint32_t target)
    {
        const Lane4 *pcs = row(at), *targets = row(target);
        step([&](std::size_t c, bool &force) {
            const Addr to = Addr(targets[c / 4][c % 4]);
            return btb(units_[c], Addr(pcs[c / 4][c % 4]), to) +
                   realign(units_[c], to, force);
        });
    }

    /** A Ret to recorded op @p target. */
    void ret(std::uint32_t target)
    {
        const Lane4 *targets = row(target);
        step([&](std::size_t c, bool &force) {
            return realign(units_[c], Addr(targets[c / 4][c % 4]), force);
        });
    }

  private:
    /** Four classes' fetch-group state. */
    struct Fetch
    {
        Lane4 blockEnd{};
        Lane4 slots{};
        Lane4 forceNew = Lane4{} - 1; ///< -1: the next op opens a group
        Lane4 page{};                 ///< the last ITLB page (-1: none)
        Lane4 groups{};               ///< fetch groups opened
    };
    /** A class's predictor, BTB and ITLB, reached by table lookups. */
    struct Unit
    {
        std::unique_ptr<uarch::BranchPredictor> predictor;
        HotPredictor hot; ///< on *predictor
        uarch::BasicBtb<std::uint32_t> btb; ///< code lies below 2^30
        ShadowTlb itlb;
        PerfCounters ctrs;
        std::uint64_t realigns = 0;
    };

    const Lane4 *row(std::uint32_t at) const
    {
        return &pcs_[std::size_t(at) * fetch_.size()];
    }

    std::uint64_t fetchGroups(std::size_t c) const
    {
        return std::uint32_t(fetch_[c / 4].groups[c % 4]);
    }

    /**
     * Each class's charge of a step, one(c, force), which sets force
     * when the class's next op opens a fetch group.  Four classes'
     * charges and flags are built in registers and stored as one
     * Lane4 each: a store to one element of a vector that front() then
     * loads whole would stall the load.
     */
    template <class F>
    __attribute__((always_inline)) void step(F one)
    {
        for (std::size_t g = 0; g < charge_.size(); ++g) {
            std::int32_t charge[4] = {}, force[4] = {};
            for (std::size_t i = 0; i < 4; ++i) {
                if (4 * g + i < n_) {
                    bool f = false;
                    charge[i] = one(4 * g + i, f);
                    force[i] = -std::int32_t(f);
                }
            }
            charge_[g] = Lane4{charge[0], charge[1], charge[2], charge[3]};
            fetch_[g].forceNew |= Lane4{force[0], force[1], force[2], force[3]};
        }
    }

    /** The classes whose op is on a new ITLB page: their ITLB step. */
    __attribute__((noinline)) void itlb(const Lane4 *pcs, unsigned size)
    {
        for (std::size_t c = 0; c < n_; ++c) {
            const Addr pc = Addr(pcs[c / 4][c % 4]);
            Fetch &f = fetch_[c / 4];
            if (std::int32_t(pc >> ipageShift_) == f.page[c % 4])
                continue;
            f.page[c % 4] = std::int32_t(pc >> ipageShift_);
            Unit &u = units_[c];
            if (const unsigned misses = u.itlb.accessVpns(
                    pc >> ipageShift_, (pc + size - 1) >> ipageShift_)) {
                u.ctrs.inc(Counter::ItlbMisses, misses);
                charge_[c / 4][c % 4] += std::int32_t(misses) * itlbMissPen_;
            }
        }
    }

    std::int32_t btb(Unit &u, Addr pc, Addr target)
    {
        if (btbOn_ && !u.btb.lookupAndUpdate(std::uint32_t(pc),
                                             std::uint32_t(target))) {
            u.ctrs.inc(Counter::BtbMisses);
            return btbMissPen_;
        }
        return 0;
    }

    /** A taken transfer to @p target: the next op opens a fetch group,
     *  and an in-order front end refetches into a block's middle. */
    std::int32_t realign(Unit &u, Addr target, bool &force) const
    {
        force = true;
        if (!refetchesMidBlock<Core>(modelBlocks_, target, Addr(block_)))
            return 0;
        ++u.realigns;
        return realignPen_;
    }

    std::size_t n_ = 0;
    std::vector<Lane4> pcs_; ///< [recorded code index][class group]
    std::vector<Fetch> fetch_;
    std::vector<Lines> lines_;
    std::vector<Lane4> charge_;
    std::vector<Unit> units_;
    std::uint32_t moved_ = 0;
    const bool bpOn_, btbOn_, modelBlocks_, tlbsOn_;
    const unsigned ipageShift_;
    const Lane4 width_;
    const std::int32_t block_, lineMask_;
    const std::int32_t itlbMissPen_, mispredictPen_, btbMissPen_,
        realignPen_;
};

/** The stand-in for a state object an instantiation of runPlanImpl
 *  does without: a pass at one code layout keeps its front end in
 *  runPlanImpl, and a walk that records nothing watches no return
 *  slots. */
struct Unused
{
    template <class... A> explicit Unused(A &&...) {}
};

/**
 * The lane state of a lane pass (Src = Recorded).  Lane k's clock,
 * noise deadline and register-ready times are int32 offsets from its
 * own 64-bit epoch, held in element k % 4 of group k / 4, so the noise
 * check, fetch charge, operand waits, ready writes and charges are
 * branch-free vector code over the groups.  What is per lane by nature
 * stays a scalar loop over lanes: NoiseClock::fire and the epoch fold.
 * The lanes of a pass fetch the same code, so they share one icache
 * line memo; a lane whose memo a noise event reset is flagged stale
 * and re-accesses on its own.  Padding elements of the last group take
 * the vector arithmetic and fold like lanes, but have no models.
 *
 * One memory hierarchy per pass, a LaneMemory over every lane.  A
 * lane's correction of a broadcast charge is unsigned arithmetic whose
 * sum at finish() is exact.
 *
 * Exact by construction.  A lane's deadline offset is
 * min(nextEvent - epoch, kSpan); crossing it takes fold(), which fires
 * the noise event if it is due, moves the epoch up to the lane's clock
 * and clamps every ready offset below the new epoch to 0 (a ready time
 * at or before now never stalls, and now never decreases).  Between
 * two checks one op adds a few config latencies and penalties, each at
 * most Machine::kMaxLatency, so no offset reaches 2^31.
 *
 * Stall cycles are not counted per wait: every cycle a lane's clock
 * gains is a charge all lanes share (fetch groups, ITLB, branches,
 * jumps, calls, returns, the canonical icache misses and store port),
 * a charge of its own (its corrections of those, noise events) or a
 * stall, so its StallCycles is its clock minus the other two sums.
 */
template <class Core, bool Linked>
class LaneGroups
{
  public:
    __attribute__((always_inline))
    LaneGroups(NullObserver &obs, const MachineConfig &c,
               unsigned dpage_shift, const uarch::StoreBuffer &sb,
               std::span<const ReplayLane> lanes,
               const FunctionalTrace *trace)
        : groups_((lanes.size() + 3) / 4),
          mem_(obs, c, dpage_shift, sb, lanes, trace),
          iline_(c.icache.lineBytes),
          window_(Lane4{} +
                  std::int32_t(std::min<Cycles>(c.oooWindowCycles, kSpan)))
    {
        mbias_assert(!lanes.empty() && lanes.size() <= LaneCache::kMaxLanes,
                     "a lane pass holds 1 to ", LaneCache::kMaxLanes,
                     " lanes, not ", lanes.size());
        lanes_.reserve(lanes.size());
        for (const ReplayLane &lane : lanes)
            lanes_.push_back({NoiseClock(lane.noise)});
        if constexpr (Linked) {
            std::vector<std::uint32_t> class_of;
            codeLayoutsOf(lanes, class_of);
            for (std::size_t k = 0; k < lanes_.size(); ++k) {
                lanes_[k].code = class_of[k];
                ownClass_ &= class_of[k] == k;
            }
        }
        for (std::size_t k = 0; k < groups_.size() * 4; ++k)
            groups_[k / 4].deadline[k % 4] =
                k < lanes_.size() ? offsetTo(lanes_[k].clock.nextEvent, 0)
                                  : kSpan;
    }

    /** The deadlines are checked in front(), fused with its charge. */
    void noise() {}

    __attribute__((always_inline)) void front(Cycles charge, Addr first,
                                              Addr last)
    {
        const std::int32_t c = std::int32_t(charge);
        Lane4 due = {};
        each([&](Group &g) {
            due |= g.now >= g.deadline;
            g.now += c;
        });
        shared_ += charge;
        if (__builtin_expect(anyLane(due), 0))
            cross(c);
        if (mem_.cachesOn &&
            (first != memo_ || last != first || anyStale_))
            fetchLines(first, last);
    }

    /** front() at several code layouts: each lane takes its code
     *  class's charge and walks its class's icache lines. */
    __attribute__((always_inline)) void front(CodeClasses<Core> &codes)
    {
        Lane4 due = {};
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            Group &grp = groups_[g];
            due |= grp.now >= grp.deadline;
            grp.now += classCharge(codes, g);
        }
        if (__builtin_expect(anyLane(due), 0))
            crossCodes(codes);
        if (mem_.cachesOn && (codes.moved() || anyStale_))
            fetchCodes(codes);
    }

    /** The exposed stall is max(ready - window - now, 0): the OoO
     *  window hides up to window cycles, an in-order core none. */
    __attribute__((always_inline)) void wait(isa::Reg r)
    {
        each([&](Group &g) { g.now = max(g.now, issueAt(g, r)); });
    }

    __attribute__((always_inline)) void wait(isa::Reg r1, isa::Reg r2)
    {
        each([&](Group &g) {
            g.now = max(g.now, max(issueAt(g, r1), issueAt(g, r2)));
        });
    }

    /** LiveLane::set, on every lane. */
    __attribute__((always_inline)) void set(isa::Reg rd, Cycles lat)
    {
        if constexpr (Core::kInOrder) {
            if (lat > 1) {
                const std::int32_t busy = std::int32_t(lat - 1);
                each([&](Group &g) { g.now += busy; });
                lat = 1;
            }
        }
        if (rd == isa::reg::zero)
            return;
        const std::int32_t l = std::int32_t(lat);
        each([&](Group &g) { g.ready[rd] = g.now + l; });
    }

    __attribute__((always_inline)) void charge(Cycles c)
    {
        const std::int32_t v = std::int32_t(c);
        each([&](Group &g) { g.now += v; });
        shared_ += c;
    }

    /** Each lane takes its code class's charge (the class books it). */
    __attribute__((always_inline)) void charge(const CodeClasses<Core> &codes)
    {
        for (std::size_t g = 0; g < groups_.size(); ++g)
            groups_[g].now += classCharge(codes, g);
    }

    /** LiveLane::load, each lane at its rebased address. */
    __attribute__((always_inline)) void load(Addr a, unsigned size,
                                             std::uint64_t icount,
                                             isa::Reg rd)
    {
        data<false>(a, size, icount, rd);
    }

    __attribute__((always_inline)) void store(Addr a, unsigned size,
                                              std::uint64_t icount)
    {
        data<true>(a, size, icount, isa::reg::zero);
    }

    /** Lane k's RunResult: its counters plus the @p shared ones, the
     *  memory's (see the class note) and, at several code layouts, its
     *  code class's front end's (@p codes).  Notes the pass in the
     *  replay stats. */
    void finish(RunResult *out, const PerfCounters &shared,
                std::uint64_t icount, bool halted, std::uint64_t a0,
                const CodeClasses<Core> *codes = nullptr) const
    {
        for (std::size_t k = 0; k < lanes_.size(); ++k) {
            const Lane &l = lanes_[k];
            const Cycles now = l.epoch + Cycles(groups_[k / 4].now[k % 4]);
            PerfCounters &c = out[k].counters;
            c = mem_.lanes[k].ctrs;
            const PerfCounters &cls = mem_.classes[mem_.lanes[k].cls].ctrs;
            for (const Counter id : allCounters())
                c.inc(id, shared.get(id) + mem_.canon.get(id) + cls.get(id));
            Cycles own = shared_ + l.own;
            if constexpr (Linked) {
                const PerfCounters front = codes->counters(l.code);
                for (const Counter id : allCounters())
                    c.inc(id, front.get(id));
                own += codes->charged(l.code);
            }
            c.inc(Counter::StallCycles, now - own);
            c.set(Counter::Cycles, now);
            c.set(Counter::Instructions, icount);
            out[k].halted = halted;
            out[k].result = a0;
        }
        // With one class, every outcome was decided once for the pass.
        ReplayCache::global().noteLanePass(
            lanes_.size(), Linked ? codes->size() : 1, mem_.laneAccesses,
            mem_.divergedAccesses,
            mem_.classes.size() > 1 ? mem_.tlb.decisions + mem_.sb.decisions
                                    : 0);
    }

  private:
    using Memory = LaneMemory<NullObserver, Linked, false>;

    /** Group @p g's lanes' code class charges of the current step:
     *  lane k is class k, or every lane is class 0, or the lanes gather
     *  their classes' charges. */
    __attribute__((always_inline)) Lane4
    classCharge(const CodeClasses<Core> &codes, std::size_t g)
    {
        if (ownClass_)
            return codes.charge(g);
        if (codes.size() == 1)
            return Lane4{} + codes.charge1(0);
        return gather(g, [&](Lane &l, std::size_t) {
            return codes.charge1(l.code);
        });
    }

    __attribute__((noinline)) void crossCodes(const CodeClasses<Core> &codes)
    {
        cross([&](std::size_t g) { return classCharge(codes, g); });
    }

    /** The farthest deadline offset: a clock offset stays below it
     *  until the op that crosses it, and one op adds at most 64 config
     *  latencies (two ITLB and two DTLB pages, up to 8 icache and 8
     *  dcache lines with their L2 misses, a stall on such a load,
     *  split, alias, issue blocking, mispredict, BTB and realign).
     *  Ready offsets exceed the clock by one load's latency at most, so
     *  a window clamped to kSpan hides every stall the real one does. */
    static constexpr std::int32_t kSpan = std::int32_t(1) << 30;
    static_assert(Cycles(kSpan) + 64 * Machine::kMaxLatency <
                      (Cycles(1) << 31),
                  "one op's charges must fit above the deadline span");

    struct Group
    {
        Lane4 now{};
        Lane4 deadline{};
        Lane4 ready[isa::reg::numRegs]{};
    };
    struct Lane
    {
        NoiseClock clock;
        std::uint32_t code = 0; ///< its code class (Linked)
        Cycles epoch = 0;
        Cycles own = 0;     ///< charges of its own (see the class note)
        bool stale = false; ///< an interrupt reset its icache line memo
    };

    static std::int32_t offsetTo(Cycles event, Cycles epoch)
    {
        return event <= epoch
                   ? 0
                   : std::int32_t(std::min<Cycles>(event - epoch, kSpan));
    }

    /** f(group) for every group (there is at least one). */
    template <class F> __attribute__((always_inline)) void each(F f)
    {
        Group *g = groups_.data();
        Group *const end = g + groups_.size();
        do
            f(*g);
        while (++g != end);
    }

    static Lane4 max(Lane4 a, Lane4 b) { return a > b ? a : b; }

    /** The earliest cycle register @p r lets an op issue without an
     *  exposed stall: its ready time less what the OoO window hides. */
    __attribute__((always_inline)) Lane4 issueAt(const Group &g,
                                                 isa::Reg r) const
    {
        if constexpr (Core::kInOrder)
            return g.ready[r];
        else
            return g.ready[r] - window_;
    }

    /** f(lane, k) for each lane k of group @p g, 0 for padding, built
     *  in registers. */
    template <class F>
    __attribute__((always_inline)) Lane4 gather(std::size_t g, F f)
    {
        const std::size_t k = g * 4, n = lanes_.size();
        const auto at = [&](std::size_t i) {
            return k + i < n ? std::int32_t(f(lanes_[k + i], k + i))
                             : std::int32_t(0);
        };
        return Lane4{at(0), at(1), at(2), at(3)};
    }

    /** Lane @p k's clock gains @p c cycles more than the broadcast
     *  charge the other lanes took (c may be negative). */
    void correct(std::size_t k, std::int32_t c)
    {
        groups_[k / 4].now[k % 4] += c;
        lanes_[k].own += Cycles(std::int64_t(c));
    }

    /** The data side of one load or store: the memory's access, its
     *  latency broadcast, each lane's difference applied on its own.  A
     *  stack access of several delta classes is each lane's own walk,
     *  a store's port cycles its own charge. */
    template <bool kStore>
    __attribute__((noinline)) void data(Addr a, unsigned size,
                                        std::uint64_t icount, isa::Reg rd)
    {
        const typename Memory::Access acc =
            mem_.template access<kStore>(a, size, icount);
        if (acc.each) {
            for (std::size_t g = 0; g < groups_.size(); ++g) {
                const Lane4 v = gather(g, [&](Lane &l, std::size_t k) {
                    const Cycles c =
                        mem_.template stackLane<kStore>(k, a, size, acc);
                    if (kStore)
                        l.own += c;
                    return c;
                });
                if (kStore)
                    groups_[g].now += v;
                else if (rd != isa::reg::zero)
                    groups_[g].ready[rd] = groups_[g].now + v;
            }
            return;
        }
        if (kStore) {
            if (acc.lat)
                charge(acc.lat);
            return;
        }
        if (rd == isa::reg::zero)
            return;
        if (acc.differ) {
            for (std::size_t g = 0; g < groups_.size(); ++g) {
                const Lane4 lat = gather(g, [&](Lane &, std::size_t k) {
                    return mem_.latency(acc, k);
                });
                groups_[g].ready[rd] = groups_[g].now + lat;
            }
            return;
        }
        // The shared latency, then each diverged lane's own walk in
        // place of the canonical one.
        const std::int32_t lat = std::int32_t(acc.lat);
        each([&](Group &g) { g.ready[rd] = g.now + lat; });
        eachIn(mem_.diverged, [&](std::size_t k) {
            groups_[k / 4].ready[rd][k % 4] +=
                std::int32_t(mem_.lanes[k].walked) - std::int32_t(acc.cost);
        });
    }

    /** Folds every element that was at or past its deadline before
     *  front() added @p c to it: the check comes first, as in the
     *  reference loop. */
    __attribute__((noinline)) void cross(std::int32_t c)
    {
        cross([c](std::size_t) { return Lane4{} + c; });
    }

    /** cross() when group g's lanes took charge(g) each. */
    template <class Charge> void cross(Charge charge)
    {
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            Group &grp = groups_[g];
            const Lane4 c = charge(g);
            for (unsigned i = 0; i < 4; ++i) {
                if (grp.now[i] - c[i] >= grp.deadline[i]) {
                    grp.now[i] -= c[i];
                    fold(grp, i, g * 4 + i);
                    grp.now[i] += c[i];
                }
            }
        }
    }

    void fold(Group &g, unsigned i, std::size_t k)
    {
        Cycles shift = Cycles(g.now[i]);
        std::int32_t deadline = kSpan;
        if (k < lanes_.size()) {
            Lane &l = lanes_[k];
            const Cycles due = l.epoch + shift;
            Cycles now = due;
            // An interrupt evicts in this lane only.
            if (now >= l.clock.nextEvent &&
                l.clock.fire(now, mem_.lanes[k].ctrs, mem_, k))
                l.stale = anyStale_ = true;
            l.own += now - due;
            shift = now - l.epoch;
            l.epoch = now;
            deadline = offsetTo(l.clock.nextEvent, now);
        }
        g.now[i] = 0;
        g.deadline[i] = deadline;
        for (Lane4 &r : g.ready)
            r[i] = Cycles(r[i]) > shift ? std::int32_t(Cycles(r[i]) - shift)
                                        : 0;
    }

    /** The icache line memo's slow case: the op leaves the shared
     *  memo's line, or a stale lane re-accesses.  Only the first line
     *  can equal a lane's memo; past it, every lane fetches. */
    __attribute__((noinline)) void fetchLines(Addr first, Addr last)
    {
        Addr line = first;
        if (first == memo_) {
            for (std::size_t k = 0; k < lanes_.size(); ++k) {
                if (lanes_[k].stale)
                    correct(k, std::int32_t(mem_.fetchOwn(k, line, true)));
            }
            line += iline_;
        }
        for (; line <= last; line += iline_) {
            const Cycles pen = mem_.fetch(line);
            if (pen)
                charge(pen);
            eachIn(mem_.diverged, [&](std::size_t k) {
                correct(k, std::int32_t(mem_.lanes[k].walked) -
                               std::int32_t(pen));
            });
        }
        for (Lane &l : lanes_)
            l.stale = false;
        anyStale_ = false;
        memo_ = last;
    }

    /**
     * The icache step at several code layouts.  When every class
     * fetches the same lines from the same memo, the shared walk
     * serves; otherwise each lane walks its class's lines on its own
     * copies, and the canonical caches skip the fetch, as they skip a
     * stack access of several delta classes.
     */
    __attribute__((noinline)) void fetchCodes(CodeClasses<Core> &codes)
    {
        const std::uint32_t moved = codes.moved();
        bool same = moved == (std::uint64_t(1) << codes.size()) - 1;
        for (std::size_t c = 1; same && c < codes.size(); ++c)
            same = codes.first(c) == codes.first(0) &&
                   codes.last(c) == codes.last(0) &&
                   codes.memo(c) == codes.memo(0);
        if (same) {
            memo_ = codes.memo(0);
            fetchLines(codes.first(0), codes.last(0));
            codes.fetched();
            return;
        }
        // The lanes of the classes that moved, and the stale ones.
        std::uint32_t walk = 0;
        if (ownClass_) {
            walk = moved;
        } else {
            for (std::size_t k = 0; k < lanes_.size(); ++k)
                walk |= ((moved >> lanes_[k].code) & 1) << k;
        }
        if (anyStale_) {
            for (std::size_t k = 0; k < lanes_.size(); ++k)
                walk |= std::uint32_t(lanes_[k].stale) << k;
        }
        eachIn(walk, [&](std::size_t k) {
            Lane &l = lanes_[k];
            Addr line = codes.first(l.code);
            const Addr last = codes.last(l.code);
            if (line == codes.memo(l.code) && !l.stale)
                line += iline_;
            for (; line <= last; line += iline_) {
                if (const Cycles pen = mem_.fetchOwn(k, line, false))
                    correct(k, std::int32_t(pen));
            }
            l.stale = false;
        });
        anyStale_ = false;
        codes.fetched();
    }

    std::vector<Group> groups_;
    std::vector<Lane> lanes_;
    Memory mem_;
    const Addr iline_;
    const Lane4 window_;
    Cycles shared_ = 0;    ///< charges every lane took
    Addr memo_ = ~Addr(0); ///< every non-stale lane's lastCodeLine
    bool anyStale_ = false;
    bool ownClass_ = true; ///< Linked: lane k is code class k
};

} // namespace

bool
traceTierUsable(const Machine &machine)
{
    return machine.useFastPath() && machine.useTracePath() &&
           machine.tierSupport().trace && !traceDisabledByEnv() &&
           !referenceForcedByEnv();
}

std::string
activeSimTierDescription()
{
    if (referenceForcedByEnv())
        return "reference (MBIAS_SIM_REFERENCE set)";
    // Replay provenance rides along as a suffix: it serves repetition
    // families on top of whichever tier single runs take.
    const std::string replay = replayDisabledByEnv()
                                   ? " (replay: MBIAS_SIM_REPLAY=0)"
                                   : " + replay";
    if (traceDisabledByEnv())
        return "fast (MBIAS_SIM_TRACE=0)" + replay;
    return "trace" + replay;
}

/** The reference interpreter's per-run pipeline/timing state. */
struct Machine::Pipeline
{
    Cycles now = 0;
    std::array<Cycles, isa::reg::numRegs> regReady{};

    std::uint64_t icount = 0;

    // Fetch-group state.
    unsigned groupSlots = 0;
    Addr groupBlockEnd = 0;
    bool forceNewGroup = true;

    // Code line/page last touched (sequential-fetch reuse).
    Addr lastCodeLine = ~Addr(0);
    Addr lastCodePage = ~Addr(0);
};

/**
 * The observing policy behind run()'s Profile and Attribution sinks.
 * Profile: open() finds the function of the op about to dispatch
 * (functions are placed contiguously, so index intervals identify
 * them) and snapshots clock and counters; close() books the deltas.
 * The loop closes an op at the next dispatch, before any noise event,
 * and the last one at run_done, so interrupt and DVFS charges land in
 * no function.  Attribution: where each event landed (set/entry), from
 * component geometry only — never touching counters or model state.
 */
class Machine::RunObserver
{
  public:
    static constexpr bool kObserving = true;

    RunObserver(const Machine &m, const toolchain::LinkedProgram &prog,
                Profile *profile, Attribution *attribution)
        : m_(m), profile_(profile), attribution_(attribution)
    {
        if (!profile_)
            return;
        profile_->functions.clear();
        for (const auto &lf : prog.functions) {
            FunctionProfile fp;
            fp.name = lf.name();
            fp.base = lf.base;
            fp.bytes = lf.bytes;
            profile_->functions.push_back(std::move(fp));
            fnBegin_.push_back(lf.entryIdx);
        }
        fnBegin_.push_back(std::uint32_t(prog.code.size())); // sentinel
    }

    void open(std::uint32_t idx, Cycles now, const PerfCounters &ctrs)
    {
        if (!profile_)
            return;
        if (idx < fnBegin_[cur_] || idx >= fnBegin_[cur_ + 1]) {
            const auto it =
                std::upper_bound(fnBegin_.begin(), fnBegin_.end(), idx);
            cur_ = std::size_t(it - fnBegin_.begin()) - 1;
        }
        snapNow_ = now;
        snap_ = ctrs;
        pending_ = true;
    }

    void close(Cycles now, const PerfCounters &ctrs)
    {
        if (!pending_)
            return;
        pending_ = false;
        FunctionProfile &fp = profile_->functions[cur_];
        fp.instructions += 1;
        fp.cycles += now - snapNow_;
        for (const auto &[c, field] : kBooked)
            fp.*field += ctrs.get(c) - snap_.get(c);
    }

    bool icache(Addr line, bool hit)
    {
        book(&Attribution::icache, m_.icache_.setIndex(line), !hit);
        return hit;
    }
    bool dcache(Addr line, bool hit)
    {
        book(&Attribution::dcache, m_.dcache_.setIndex(line), !hit);
        return hit;
    }
    void itlb(Addr vpn, unsigned misses)
    {
        book(&Attribution::itlb, vpn, misses);
    }
    void dtlb(Addr vpn, unsigned misses)
    {
        book(&Attribution::dtlb, vpn, misses);
    }
    /** Called before the predictor's update, so a history-folding
     *  predictor reports the entry this prediction used. */
    void pht(Addr pc)
    {
        if (recording())
            attribution_->pht.record(m_.predictor_->tableIndex(pc), pc);
    }
    bool btb(Addr pc, bool hit)
    {
        if (recording())
            attribution_->btb.record(m_.btb_.setIndex(pc), pc);
        return hit;
    }

  private:
    /** FunctionProfile event fields and the counter each books. */
    static constexpr std::pair<Counter, std::uint64_t FunctionProfile::*>
        kBooked[] = {
            {Counter::IcacheMisses, &FunctionProfile::icacheMisses},
            {Counter::DcacheMisses, &FunctionProfile::dcacheMisses},
            {Counter::BranchMispredicts,
             &FunctionProfile::branchMispredicts},
            {Counter::LineSplits, &FunctionProfile::lineSplits},
            {Counter::AliasStalls, &FunctionProfile::aliasStalls},
            {Counter::Calls, &FunctionProfile::calls},
            {Counter::L2Misses, &FunctionProfile::l2Misses},
            {Counter::ItlbMisses, &FunctionProfile::itlbMisses},
            {Counter::DtlbMisses, &FunctionProfile::dtlbMisses},
            {Counter::BtbMisses, &FunctionProfile::btbMisses},
            {Counter::StallCycles, &FunctionProfile::stallCycles},
            {Counter::FetchGroups, &FunctionProfile::fetchGroups},
        };

    bool recording() const { return attribution_ != nullptr; }

    /** One touch and @p misses fills of set (or VPN bucket) @p set;
     *  every structure's set count is a power of two. */
    void book(SetCounters Attribution::*which, std::size_t set,
              unsigned misses)
    {
        if (!recording())
            return;
        SetCounters &sc = attribution_->*which;
        set &= sc.sets - 1;
        sc.touch(set);
        for (unsigned m = 0; m < misses; ++m)
            sc.miss(set);
    }

    const Machine &m_; ///< component geometry, read only
    Profile *profile_;
    Attribution *attribution_;

    std::vector<std::uint32_t> fnBegin_; ///< entry indices + code size
    std::size_t cur_ = 0;
    bool pending_ = false; ///< an op is open
    Cycles snapNow_ = 0;
    PerfCounters snap_;
};

Machine::Machine(const MachineConfig &config)
    : config_(config),
      tiers_(MachineRegistry::tiersFor(config)),
      icache_(config.icache),
      dcache_(config.dcache),
      l2_(config.l2),
      itlb_(config.itlb),
      dtlb_(config.dtlb),
      predictor_(makePredictor(config)),
      btb_(config.btbSets, config.btbWays),
      storeBuffer_(config.storeBufferEntries, config.aliasWindowBits)
{
    const std::pair<const char *, Cycles> latencies[] = {
        {"icache.hitLatency", config.icache.hitLatency},
        {"icache.missPenalty", config.icache.missPenalty},
        {"dcache.hitLatency", config.dcache.hitLatency},
        {"dcache.missPenalty", config.dcache.missPenalty},
        {"l2.hitLatency", config.l2.hitLatency},
        {"l2.missPenalty", config.l2.missPenalty},
        {"itlb.missPenalty", config.itlb.missPenalty},
        {"dtlb.missPenalty", config.dtlb.missPenalty},
        {"branchMispredictPenalty", config.branchMispredictPenalty},
        {"btbMissPenalty", config.btbMissPenalty},
        {"aliasPenalty", config.aliasPenalty},
        {"lineSplitPenalty", config.lineSplitPenalty},
        {"fetchRealignPenalty", config.fetchRealignPenalty},
        {"intMulLatency", config.intMulLatency},
        {"intDivLatency", config.intDivLatency},
    };
    for (const auto &[field, cycles] : latencies)
        if (cycles > kMaxLatency)
            mbias_fatal("machine config '", config.name, "': ", field, " = ",
                        cycles, " cycles exceeds the bound of ", kMaxLatency);
    if (config.storeBufferEntries > kMaxStoreBufferEntries)
        mbias_fatal("machine config '", config.name,
                    "': storeBufferEntries = ", config.storeBufferEntries,
                    " exceeds the bound of ", kMaxStoreBufferEntries);
    if (config.aliasWindowBits > kMaxAliasWindowBits)
        mbias_fatal("machine config '", config.name,
                    "': aliasWindowBits = ", config.aliasWindowBits,
                    " exceeds the bound of ", kMaxAliasWindowBits);
}

void
Machine::fetchAccounting(Pipeline &pipe, Addr pc, unsigned size,
                         PerfCounters &ctrs)
{
    const bool model_blocks = config_.enableFetchBlockModel;
    const bool new_group = pipe.forceNewGroup || pipe.groupSlots == 0 ||
                           (model_blocks && pc >= pipe.groupBlockEnd);
    if (new_group) {
        pipe.now += 1;
        ctrs.inc(Counter::FetchGroups);
        pipe.groupSlots = config_.fetchWidth;
        pipe.groupBlockEnd =
            model_blocks
                ? alignDown(pc, config_.fetchBlockBytes) +
                      config_.fetchBlockBytes
                : ~Addr(0);
        pipe.forceNewGroup = false;
    }
    pipe.groupSlots -= 1;
    if (model_blocks && pc + size > pipe.groupBlockEnd) {
        // Variable-length instruction spilling into the next block
        // consumes the rest of this group.
        pipe.groupSlots = 0;
    }

    // Instruction-side cache and TLB, at line/page crossing granularity
    // (sequential fetch reuses the current line without a new access).
    if (config_.enableCaches) {
        const Addr first = alignDown(pc, config_.icache.lineBytes);
        const Addr last =
            alignDown(pc + size - 1, config_.icache.lineBytes);
        for (Addr line = first; line <= last;
             line += config_.icache.lineBytes) {
            if (line == pipe.lastCodeLine)
                continue;
            pipe.lastCodeLine = line;
            if (!icache_.accessLine(line)) {
                ctrs.inc(Counter::IcacheMisses);
                pipe.now += config_.icache.missPenalty;
                if (!l2_.accessLine(line)) {
                    ctrs.inc(Counter::L2Misses);
                    pipe.now += config_.l2.missPenalty;
                }
            }
        }
    }
    if (config_.enableTlbs) {
        const Addr page = pc / config_.itlb.pageBytes;
        if (page != pipe.lastCodePage) {
            pipe.lastCodePage = page;
            const unsigned misses = itlb_.access(pc, size);
            if (misses) {
                ctrs.inc(Counter::ItlbMisses, misses);
                pipe.now += misses * config_.itlb.missPenalty;
            }
        }
    }
}

Cycles
Machine::memoryAccess(Pipeline &pipe, Addr addr, unsigned size,
                      bool is_store, PerfCounters &ctrs)
{
    Cycles lat = is_store ? 0 : config_.dcache.hitLatency;

    if (config_.enableTlbs) {
        const unsigned misses = dtlb_.access(addr, size);
        if (misses) {
            ctrs.inc(Counter::DtlbMisses, misses);
            lat += misses * config_.dtlb.missPenalty;
        }
    }

    const Addr first = alignDown(addr, config_.dcache.lineBytes);
    const Addr last = alignDown(addr + size - 1, config_.dcache.lineBytes);
    if (config_.enableCaches) {
        for (Addr line = first; line <= last;
             line += config_.dcache.lineBytes) {
            if (!dcache_.accessLine(line)) {
                ctrs.inc(Counter::DcacheMisses);
                lat += config_.dcache.missPenalty;
                if (!l2_.accessLine(line)) {
                    ctrs.inc(Counter::L2Misses);
                    lat += config_.l2.missPenalty;
                }
                if (config_.enableNextLinePrefetch) {
                    // Background fill of the next line; no demand
                    // latency, but it can pollute (and be perturbed
                    // by) set placement.
                    ctrs.inc(Counter::PrefetchesIssued);
                    const Addr next_line =
                        line + config_.dcache.lineBytes;
                    dcache_.accessLine(next_line);
                    l2_.accessLine(next_line);
                }
            }
        }
    }
    if (last != first) {
        ctrs.inc(Counter::LineSplits);
        if (config_.enableLineSplitPenalty)
            lat += config_.lineSplitPenalty;
    }

    if (is_store) {
        // A line-crossing store occupies the store port for an extra
        // cycle; unlike load latency this cannot be hidden by the
        // out-of-order window (the port is a structural resource).
        if (last != first && config_.enableLineSplitPenalty)
            pipe.now += 1;
        storeBuffer_.recordStore(addr, size, pipe.icount);
        return 0; // the store buffer otherwise hides store latency
    }
    if (config_.enableStoreBufferAliasing &&
        storeBuffer_.loadAliases(addr, size, pipe.icount)) {
        ctrs.inc(Counter::AliasStalls);
        lat += config_.aliasPenalty;
    }
    return lat;
}

RunResult
Machine::run(const toolchain::ProcessImage &image, std::uint64_t max_insts,
             const NoiseModel &noise, Profile *profile,
             Attribution *attribution)
{
    // Every production run takes the plan loop, noisy and observed ones
    // included.  Only the escape hatches (MBIAS_SIM_REFERENCE=1,
    // setUseFastPath(false)) select the reference oracle, and never for
    // an observed run: the oracle carries no observation hooks.
    const bool plan = profile || attribution ||
                      (useFastPath_ && tiers_.fast && !referenceForcedByEnv());
    obs::ScopedSpan span(plan ? "sim.run" : "sim.reference", "sim",
                         runHistogram_);
    RunResult rr =
        plan ? runPlan<RunMode::Normal>(image, max_insts, noise, nullptr,
                                        profile, attribution)
             : runReference(image, max_insts, noise);
    span.arg("insts", rr.instructions());
    return rr;
}

RunResult
Machine::runReference(const toolchain::ProcessImage &image,
                      std::uint64_t max_insts, const NoiseModel &noise)
{
    // Cold start: deterministic from the image alone.
    icache_.reset();
    dcache_.reset();
    l2_.reset();
    itlb_.reset();
    dtlb_.reset();
    predictor_->reset();
    btb_.reset();
    storeBuffer_.reset();

    const toolchain::LinkedProgram &prog = image.prog();
    mbias_assert(!prog.code.empty(), "empty program");

    RunResult rr;
    PerfCounters &ctrs = rr.counters;

    SparseMemory mem;
    loadProgramData(mem, prog);

    std::array<std::uint64_t, isa::reg::numRegs> regs{};
    regs[isa::reg::sp] = image.initialSp;
    regs[isa::reg::gp] = image.gp;
    regs[isa::reg::hp] = image.heapBase;

    Pipeline pipe;

    auto set_reg = [&](isa::Reg rd, std::uint64_t v, Cycles ready) {
        if (rd != isa::reg::zero) {
            regs[rd] = v;
            pipe.regReady[rd] = ready;
        }
    };
    // CoreModel policy, runtime-selected here (the reference path is
    // not throughput-critical); runPlanImpl selects the same policy at
    // compile time per backend.
    const bool in_order = config_.core == CoreKind::InOrder;

    auto wait_for = [&](isa::Reg r) {
        const Cycles ready = pipe.regReady[r];
        if (ready > pipe.now) {
            const Cycles stall = ready - pipe.now;
            // In-order cores expose the whole stall; the OoO window
            // hides up to oooWindowCycles of it.
            const Cycles hidden =
                in_order ? 0
                         : std::min<Cycles>(stall, config_.oooWindowCycles);
            const Cycles exposed = stall - hidden;
            if (exposed) {
                pipe.now += exposed;
                ctrs.inc(Counter::StallCycles, exposed);
            }
        }
    };
    // In-order front ends refetch when a taken transfer lands inside a
    // fetch block rather than at its start.
    auto redirect_realign = [&](Addr target) {
        if (in_order && config_.enableFetchBlockModel &&
            (target & (Addr(config_.fetchBlockBytes) - 1)) != 0)
            pipe.now += config_.fetchRealignPenalty;
    };

    // OS-interrupt noise (seeded; disabled by default).
    Rng noise_rng(noise.seed ^ 0x05e1f00dULL);
    Cycles next_interrupt = ~Cycles(0);
    auto schedule_interrupt = [&](Cycles from) {
        const double jitter = 0.5 + noise_rng.nextDouble();
        next_interrupt =
            from + Cycles(double(noise.meanIntervalCycles) * jitter);
    };
    if (noise.enabled)
        schedule_interrupt(0);

    // DVFS frequency steps (seeded; independent stream so the factor
    // can be swept alone).  A step charges the transition plus the
    // work lost over the slowed residency as one lump — timing only,
    // no architectural or cache state is touched — and the next step
    // cannot begin before this residency ends.
    Rng dvfs_rng(noise.seed ^ 0xd7f5c10cULL);
    Cycles next_dvfs = ~Cycles(0);
    auto schedule_dvfs = [&](Cycles from) {
        const double jitter = 0.5 + dvfs_rng.nextDouble();
        next_dvfs =
            from + Cycles(double(noise.dvfsMeanIntervalCycles) * jitter);
    };
    auto do_dvfs_step = [&]() {
        const double rj = 0.5 + dvfs_rng.nextDouble();
        const Cycles residency =
            Cycles(double(noise.dvfsMeanResidencyCycles) * rj);
        pipe.now += noise.dvfsTransitionCycles +
                    residency * noise.dvfsSlowdownPercent / 100;
        schedule_dvfs(pipe.now + residency);
    };
    if (noise.dvfsEnabled)
        schedule_dvfs(0);

    std::uint64_t icount = 0;
    std::uint32_t idx = image.entryIdx;
    bool halted = false;

    while (!halted && icount < max_insts) {
        if (noise.enabled && pipe.now >= next_interrupt) {
            ctrs.inc(Counter::OsInterrupts);
            pipe.now += noise.costCycles;
            for (unsigned e = 0; e < noise.linesEvictedPerInterrupt; ++e) {
                dcache_.invalidateSet(noise_rng.next());
                icache_.invalidateSet(noise_rng.next());
            }
            pipe.lastCodeLine = ~Addr(0); // force an icache re-access
            schedule_interrupt(pipe.now);
        }
        if (noise.dvfsEnabled && pipe.now >= next_dvfs)
            do_dvfs_step();

        const PlacedInst &pi = prog.code[idx];
        const isa::Instruction &in = pi.inst();
        ++icount;
        pipe.icount = icount;

        fetchAccounting(pipe, pi.pc, pi.size, ctrs);

        std::uint32_t next = idx + 1;

        switch (in.op) {
          // ---- register-register ALU ----
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Mul:
          case Opcode::Divu:
          case Opcode::Remu:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Sll:
          case Opcode::Srl:
          case Opcode::Sra:
          case Opcode::Slt:
          case Opcode::Sltu: {
              wait_for(in.rs1);
              wait_for(in.rs2);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t b = regs[in.rs2];
              std::uint64_t v = 0;
              Cycles lat = 1;
              switch (in.op) {
                case Opcode::Add: v = a + b; break;
                case Opcode::Sub: v = a - b; break;
                case Opcode::Mul:
                  v = a * b;
                  lat = config_.intMulLatency;
                  break;
                case Opcode::Divu:
                  v = b == 0 ? ~std::uint64_t(0) : a / b;
                  lat = config_.intDivLatency;
                  break;
                case Opcode::Remu:
                  v = b == 0 ? a : a % b;
                  lat = config_.intDivLatency;
                  break;
                case Opcode::And: v = a & b; break;
                case Opcode::Or: v = a | b; break;
                case Opcode::Xor: v = a ^ b; break;
                case Opcode::Sll: v = a << (b & 63); break;
                case Opcode::Srl: v = a >> (b & 63); break;
                case Opcode::Sra:
                  v = std::uint64_t(std::int64_t(a) >> (b & 63));
                  break;
                case Opcode::Slt:
                  v = std::int64_t(a) < std::int64_t(b) ? 1 : 0;
                  break;
                case Opcode::Sltu: v = a < b ? 1 : 0; break;
                default: mbias_panic("unreachable");
              }
              if (in_order && lat > 1) {
                  // In-order pipes block issue behind a multi-cycle
                  // ALU op: the busy cycles are exposed stalls, and
                  // the result is ready right after issue resumes.
                  pipe.now += lat - 1;
                  ctrs.inc(Counter::StallCycles, lat - 1);
                  lat = 1;
              }
              set_reg(in.rd, v, pipe.now + lat);
              break;
          }

          // ---- register-immediate ALU ----
          case Opcode::Addi:
          case Opcode::Andi:
          case Opcode::Ori:
          case Opcode::Xori:
          case Opcode::Slli:
          case Opcode::Srli:
          case Opcode::Srai:
          case Opcode::Slti: {
              wait_for(in.rs1);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t m = std::uint64_t(in.imm);
              std::uint64_t v = 0;
              switch (in.op) {
                case Opcode::Addi: v = a + m; break;
                case Opcode::Andi: v = a & m; break;
                case Opcode::Ori: v = a | m; break;
                case Opcode::Xori: v = a ^ m; break;
                case Opcode::Slli: v = a << (m & 63); break;
                case Opcode::Srli: v = a >> (m & 63); break;
                case Opcode::Srai:
                  v = std::uint64_t(std::int64_t(a) >> (m & 63));
                  break;
                case Opcode::Slti:
                  v = std::int64_t(a) < in.imm ? 1 : 0;
                  break;
                default: mbias_panic("unreachable");
              }
              set_reg(in.rd, v, pipe.now + 1);
              break;
          }

          case Opcode::Li:
            set_reg(in.rd, std::uint64_t(in.imm), pipe.now + 1);
            break;

          case Opcode::La: // the Li of its global's linked address
            set_reg(in.rd, pi.target, pipe.now + 1);
            break;

          // ---- loads ----
          case Opcode::Ld1:
          case Opcode::Ld2:
          case Opcode::Ld4:
          case Opcode::Ld8: {
              wait_for(in.rs1);
              const unsigned size = isa::memAccessSize(in.op);
              const Addr addr = regs[in.rs1] + std::uint64_t(in.imm);
              ctrs.inc(Counter::Loads);
              const Cycles lat =
                  memoryAccess(pipe, addr, size, false, ctrs);
              set_reg(in.rd, mem.read(addr, size), pipe.now + lat);
              break;
          }

          // ---- stores ----
          case Opcode::St1:
          case Opcode::St2:
          case Opcode::St4:
          case Opcode::St8: {
              wait_for(in.rs1);
              wait_for(in.rd); // data register
              const unsigned size = isa::memAccessSize(in.op);
              const Addr addr = regs[in.rs1] + std::uint64_t(in.imm);
              ctrs.inc(Counter::Stores);
              memoryAccess(pipe, addr, size, true, ctrs);
              mem.write(addr, size, regs[in.rd]);
              break;
          }

          // ---- conditional branches ----
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
          case Opcode::Bge:
          case Opcode::Bltu:
          case Opcode::Bgeu: {
              wait_for(in.rs1);
              wait_for(in.rs2);
              const std::uint64_t a = regs[in.rs1];
              const std::uint64_t b = regs[in.rs2];
              bool taken = false;
              switch (in.op) {
                case Opcode::Beq: taken = a == b; break;
                case Opcode::Bne: taken = a != b; break;
                case Opcode::Blt:
                  taken = std::int64_t(a) < std::int64_t(b);
                  break;
                case Opcode::Bge:
                  taken = std::int64_t(a) >= std::int64_t(b);
                  break;
                case Opcode::Bltu: taken = a < b; break;
                case Opcode::Bgeu: taken = a >= b; break;
                default: mbias_panic("unreachable");
              }
              ctrs.inc(Counter::BranchesExecuted);
              if (config_.enableBranchPrediction) {
                  const bool pred = predictor_->predict(pi.pc);
                  predictor_->update(pi.pc, taken);
                  if (pred != taken) {
                      ctrs.inc(Counter::BranchMispredicts);
                      pipe.now += config_.branchMispredictPenalty;
                      pipe.forceNewGroup = true;
                  }
              }
              if (taken) {
                  ctrs.inc(Counter::TakenBranches);
                  const Addr target = prog.code[pi.target].pc;
                  if (config_.enableBtb) {
                      if (!btb_.lookupAndUpdate(pi.pc, target)) {
                          ctrs.inc(Counter::BtbMisses);
                          pipe.now += config_.btbMissPenalty;
                      }
                  }
                  redirect_realign(target);
                  pipe.forceNewGroup = true;
                  next = pi.target;
              }
              break;
          }

          case Opcode::Jmp: {
              const Addr target = prog.code[pi.target].pc;
              if (config_.enableBtb) {
                  if (!btb_.lookupAndUpdate(pi.pc, target)) {
                      ctrs.inc(Counter::BtbMisses);
                      pipe.now += config_.btbMissPenalty;
                  }
              }
              redirect_realign(target);
              pipe.forceNewGroup = true;
              next = pi.target;
              break;
          }

          case Opcode::Call: {
              wait_for(isa::reg::sp);
              ctrs.inc(Counter::Calls);
              const Addr new_sp = regs[isa::reg::sp] - 8;
              const Addr ret_addr = pi.pc + pi.size;
              ctrs.inc(Counter::Stores);
              memoryAccess(pipe, new_sp, 8, true, ctrs);
              mem.write(new_sp, 8, ret_addr);
              set_reg(isa::reg::sp, new_sp, pipe.now + 1);
              const Addr target = prog.code[pi.target].pc;
              if (config_.enableBtb) {
                  if (!btb_.lookupAndUpdate(pi.pc, target)) {
                      ctrs.inc(Counter::BtbMisses);
                      pipe.now += config_.btbMissPenalty;
                  }
              }
              redirect_realign(target);
              pipe.forceNewGroup = true;
              next = pi.target;
              break;
          }

          case Opcode::Ret: {
              wait_for(isa::reg::sp);
              const Addr sp = regs[isa::reg::sp];
              ctrs.inc(Counter::Loads);
              // Return-address stack: the target is predicted
              // perfectly, so the load latency is off the critical
              // path, but the access still exercises the cache/TLB.
              memoryAccess(pipe, sp, 8, false, ctrs);
              const Addr ret_addr = mem.read(sp, 8);
              set_reg(isa::reg::sp, sp + 8, pipe.now + 1);
              const std::uint32_t t = prog.indexAt(ret_addr);
              mbias_assert(t != toolchain::LinkedProgram::kNoIndex,
                           "corrupted return address 0x", std::hex,
                           ret_addr);
              redirect_realign(ret_addr);
              pipe.forceNewGroup = true;
              next = t;
              break;
          }

          case Opcode::Nop:
            ctrs.inc(Counter::NopsExecuted);
            break;

          case Opcode::Halt:
            halted = true;
            break;

          default:
            mbias_panic("bad opcode");
        }

        idx = next;
    }

    ctrs.set(Counter::Cycles, pipe.now);
    ctrs.set(Counter::Instructions, icount);
    rr.halted = halted;
    rr.result = regs[isa::reg::a0];
    return rr;
}


template <Machine::RunMode Mode>
RunResult
Machine::runPlan(const toolchain::ProcessImage &image,
                 std::uint64_t max_insts, const NoiseModel &noise,
                 FunctionalTrace *rec, Profile *profile,
                 Attribution *attribution)
{
    const auto plan = PlanCache::global().get(image.program);
    const ReplayLane lane{&image, noise};
    RunResult rr;
    auto untraced = [&](auto &obs) {
        if (config_.core == CoreKind::InOrder)
            runPlanImpl<Source::Live, false, Mode, InOrderCore>(
                {&lane, 1}, max_insts, *plan, nullptr, nullptr, rec, obs,
                &rr);
        else
            runPlanImpl<Source::Live, false, Mode, OooCore>(
                {&lane, 1}, max_insts, *plan, nullptr, nullptr, rec, obs,
                &rr);
        return rr;
    };
    if constexpr (Mode == RunMode::Normal) {
        if (profile || attribution) {
            // Observed runs never batch: the untraced loop books every
            // op where it executes.  Noise invalidations bypass the
            // attribution occupancy mirror; the combination has no use
            // case, so reject it outright.
            mbias_assert(!(attribution && noise.enabled),
                         "attribution requires a noise-free run");
            if (attribution)
                attribution->configure(config_);
            RunObserver obs(*this, image.prog(), profile, attribution);
            return untraced(obs);
        }
    }
    NullObserver none;
    if (traceTierUsable(*this)) {
        // The trace tier's batch guards assume the OoO window model;
        // traceTierUsable() keeps in-order backends off this path.
        mbias_assert(config_.core == CoreKind::OutOfOrder,
                     "trace tier requires an out-of-order core model");
        const auto tplan =
            TraceCache::global().get(plan, TraceGeometry::of(config_));
        runPlanImpl<Source::Live, true, Mode, OooCore>(
            {&lane, 1}, max_insts, *plan, tplan.get(), nullptr, rec, none,
            &rr);
        return rr;
    }
    return untraced(none);
}

RunResult
Machine::runRecord(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   std::shared_ptr<const FunctionalTrace> *out)
{
    mbias_assert(out, "runRecord needs a trace sink");
    *out = nullptr;
    if (!replayTierUsable(*this))
        return run(image, max_insts, noise);
    obs::ScopedSpan span("sim.record", "sim", runHistogram_);
    static std::atomic<std::uint64_t> next_serial{1};
    auto trace = std::make_shared<FunctionalTrace>();
    trace->serial = next_serial.fetch_add(1, std::memory_order_relaxed);
    trace->program = image.program;
    trace->gp = image.gp;
    trace->heapBase = image.heapBase;
    trace->entryIdx = image.entryIdx;
    trace->budget = max_insts;
    trace->recordedSp = image.initialSp;
    trace->stackBoundary = image.stackTop >> 1;
    const RunResult rr =
        runPlan<RunMode::Record>(image, max_insts, noise, trace.get());
    trace->resultOnStack = trace->resultA0 >= trace->stackBoundary &&
                           trace->resultA0 < image.stackTop;
    // The streams grew by doubling; a cached trace keeps only what it
    // holds.
    trace->branchBits.shrink_to_fit();
    trace->retTargets.shrink_to_fit();
    trace->memAddrs.shrink_to_fit();
    ReplayCache::global().noteRecord();
    span.arg("insts", rr.instructions());
    if (!trace->aborted)
        *out = std::move(trace);
    return rr;
}

RunResult
Machine::runReplay(const toolchain::ProcessImage &image,
                   std::uint64_t max_insts, const NoiseModel &noise,
                   const FunctionalTrace &trace)
{
    if (!replayTierUsable(*this))
        return run(image, max_insts, noise);
    mbias_assert(trace.matches(image, max_insts),
                 "replaying a trace against a mismatched image");
    for (auto it = laneResults_.begin(); it != laneResults_.end(); ++it) {
        if (it->serial == trace.serial && it->maxInsts == max_insts &&
            it->program == image.program.get() &&
            it->initialSp == image.initialSp && it->noise == noise) {
            const RunResult rr = it->result;
            laneResults_.erase(it);
            return rr;
        }
    }
    laneResults_.clear(); // the caller has moved past the latest pass
    const ReplayLane lane{&image, noise};
    return runLanes(trace, max_insts, {&lane, 1}).front();
}

std::vector<RunResult>
Machine::runReplayLanes(const FunctionalTrace &trace,
                        std::uint64_t max_insts,
                        std::span<const ReplayLane> lanes)
{
    laneResults_.clear();
    std::vector<RunResult> out;
    if (!replayTierUsable(*this)) {
        out.reserve(lanes.size());
        for (const ReplayLane &lane : lanes)
            out.push_back(run(*lane.image, max_insts, lane.noise));
        return out;
    }
    out = runLanes(trace, max_insts, lanes);
    if (trace.serial == 0)
        return out; // no identity to serve it under
    laneResults_.reserve(lanes.size());
    for (std::size_t k = 0; k < lanes.size(); ++k)
        laneResults_.push_back({trace.serial, max_insts,
                                lanes[k].image->program.get(),
                                lanes[k].image->initialSp, lanes[k].noise,
                                out[k]});
    return out;
}

std::vector<RunResult>
Machine::runLanes(const FunctionalTrace &trace, std::uint64_t max_insts,
                  std::span<const ReplayLane> lanes)
{
    std::vector<RunResult> out(lanes.size());
    // The pass's one DTLB needs each lane's stack pages above every
    // non-stack page of the stream (LaneTlb): a lane whose stack would
    // not lie there runs alone, on the live walk.
    const unsigned shift = dtlb_.pageShift();
    std::vector<ReplayLane> pass;
    std::vector<std::size_t> slots; ///< each pass lane's index in lanes
    bool linked = false; ///< some lane runs another code layout
    for (std::size_t k = 0; k < lanes.size(); ++k) {
        const ReplayLane &lane = lanes[k];
        mbias_assert(lane.image && trace.matches(*lane.image, max_insts),
                     "replaying a trace against a mismatched image");
        const Addr lowest =
            trace.lowestStackAddr + (lane.image->initialSp - trace.recordedSp);
        // A lane at another code layout also needs both links' code in
        // the int32 range of CodeClasses' fetch step.
        const bool relinked = lane.image->program != trace.program;
        if ((trace.lowestStackAddr == ~Addr(0) ||
             lowest >> shift > trace.highestDataByte >> shift) &&
            (!relinked || (max_insts <= kLinkBudgetLimit &&
                           lane.image->prog().codeEnd < kLinkCodeLimit &&
                           trace.program->codeEnd < kLinkCodeLimit))) {
            pass.push_back(lane);
            slots.push_back(k);
            linked |= relinked;
        } else {
            ReplayCache::global().noteFallback();
            out[k] = run(*lane.image, max_insts, lane.noise);
        }
    }
    // Lanes at other links ride only a pass wide enough to pay for
    // their code classes.
    if (linked && pass.size() < kMinLinkPass) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < pass.size(); ++i) {
            if (pass[i].image->program == trace.program) {
                pass[kept] = pass[i];
                slots[kept++] = slots[i];
                continue;
            }
            ReplayCache::global().noteFallback();
            out[slots[i]] = run(*pass[i].image, max_insts, pass[i].noise);
        }
        pass.resize(kept);
        slots.resize(kept);
        linked = false;
    }
    if (pass.empty())
        return out;
    // The lane pass's span books every lane's instructions: a
    // runReplay() the pass serves later books none.
    obs::ScopedSpan span("sim.replay", "sim", nullptr,
                         runHistogram_ != nullptr);
    const auto plan = PlanCache::global().get(trace.program);
    std::vector<RunResult> timed(pass.size());
    NullObserver none;
    const auto walk = [&]<Source Src>(std::span<const ReplayLane> chunk,
                                      RunResult *results) {
        if (config_.core == CoreKind::InOrder)
            runPlanImpl<Src, false, RunMode::Normal, InOrderCore>(
                chunk, max_insts, *plan, nullptr, &trace, nullptr, none,
                results);
        else
            runPlanImpl<Src, false, RunMode::Normal, OooCore>(
                chunk, max_insts, *plan, nullptr, &trace, nullptr, none,
                results);
    };
    // A lane mask names LaneCache::kMaxLanes lanes: a wider pass walks
    // the stream once per chunk of that many.
    for (std::size_t at = 0; at < pass.size(); at += LaneCache::kMaxLanes) {
        const auto chunk = std::span<const ReplayLane>(pass).subspan(
            at, std::min(LaneCache::kMaxLanes, pass.size() - at));
        if (linked)
            walk.template operator()<Source::Relinked>(chunk,
                                                       timed.data() + at);
        else
            walk.template operator()<Source::Recorded>(chunk,
                                                       timed.data() + at);
    }
    std::uint64_t insts = 0;
    for (std::size_t i = 0; i < pass.size(); ++i) {
        out[slots[i]] = timed[i];
        insts += timed[i].instructions();
    }
    span.arg("insts", insts);
    // The pass's wall time, shared out evenly: the run histogram keeps
    // one sample per lane, and its sum stays the time spent.
    const std::uint64_t share = span.stop() / pass.size();
    if (runHistogram_)
        for (std::size_t k = 0; k < pass.size(); ++k)
            runHistogram_->record(share);
    return out;
}

template <Machine::Source Src, bool Traced, Machine::RunMode Mode,
          class Core, class Obs>
void
Machine::runPlanImpl(std::span<const ReplayLane> lanes,
                     std::uint64_t max_insts, const ExecutionPlan &plan,
                     const TracePlan *tplan, const FunctionalTrace *trace,
                     FunctionalTrace *rec, Obs &obs, RunResult *out)
{
    constexpr bool kLive = Src == Source::Live;
    constexpr bool kLinked = Src == Source::Relinked;
    constexpr bool kRecord = Mode == RunMode::Record;
    // The trace tier's op_batch guards prove "zero stall cycles" under
    // the OoO hiding model; an in-order instantiation would make that
    // proof unsound, so it is never generated (traceTierUsable()).
    static_assert(!(Traced && Core::kInOrder),
                  "the trace tier assumes the OoO core model");
    static_assert(!Obs::kObserving || (!Traced && Mode == RunMode::Normal),
                  "only the untraced Normal loop observes");
    static_assert(kLive || (!Traced && !kRecord && !Obs::kObserving),
                  "a recorded stream is timed untraced and unobserved");
    // The contract of this function is bitwise equality with the
    // reference oracle, runReference(), noise included: it performs the
    // same component accesses in the same order with the same
    // arguments, so every counter and the cycle count match exactly.
    // What changes is the bookkeeping around them:
    //
    //  - dense pre-decoded operands (DecodedOp) instead of PlacedInst
    //    records, and an O(1) return-address table;
    //  - direct-threaded dispatch: every handler ends with its own
    //    computed goto, so the host branch predictor learns per-opcode
    //    successor patterns instead of sharing one switch jump;
    //  - packed shadow twins of the caches, TLBs and store buffer
    //    (one LaneMemory, for one lane or many), the predictor/BTB's
    //    header-inline hot twins (devirtualized), and hot config
    //    fields hoisted into locals;
    //  - functional memory through a small direct-mapped table of page
    //    pointers instead of a hash lookup per access.
    //
    // What the loop does per op splits in two.  Lane-invariant work
    // runs once per op: dispatch, stream decode, the budget check,
    // predictor and BTB (they see only pc, outcome and target),
    // fetch-group accounting (pc, size and redirects), the ITLB (code
    // pages only; noise never touches TLBs, ASLR moves only the stack)
    // and the counters those own — once per code class when the lanes
    // sit at several code layouts (Src = Relinked, below).  Per-lane
    // work — the noise check, clock, register readiness, the icache
    // line memo, the memory hierarchy and the NoiseClock — is one call
    // per step on the lane-state object (LiveLane or LaneGroups,
    // above), written once for both sources; both hold the hierarchy
    // as a LaneMemory, the live walk's of one lane.
    // Each lane applies the shared outcomes in the reference's order:
    // cycle charges are sums, and every charge lands before the next
    // read of that lane's clock (a stall check, a ready time, or the
    // next dispatch's noise check).
    //
    // Src = Live executes the values of exactly one lane (LiveLane):
    // the observer's hooks sit around its noise check and in its
    // memory's walks, and its counters are the shared ones.  Mode =
    // Record appends branch outcomes, Ret targets and resolved memory
    // addresses to *rec as they execute.  With Traced = true the loop
    // walks the TracePlan's rewritten op array: superblock heads
    // dispatch to op_batch, which either applies the block's
    // precomputed effects in one step or — when its zero-stall guards
    // cannot be proven — falls through to per-op execution of the very
    // same ops (sim/trace.hh).
    //
    // Src = Recorded decodes *trace instead: control flow and addresses
    // come from the stream (stack ones rebased by each lane's
    // image-vs-recording sp delta), every value computation is dead,
    // and lanes.size() lanes are timed in one walk (LaneGroups).  The
    // walk is over the recorded program's ops, whatever program the
    // lanes run.
    //
    // Src = Relinked is that walk for lanes at several code layouts,
    // other link orders of the recording's module set that keep its
    // data layout (FunctionalTrace::matches).  The lanes of one layout
    // form a code class, beside the delta classes of their stack
    // bases.  Dispatch, the decoded stream and branch outcomes, the
    // whole data side (its addresses are the same in every class) and
    // the counters no pc decides (branches, taken, loads, stores,
    // calls, nops) stay shared.  Each code class runs the front end at
    // its own pcs (CodeClasses: fetch groups, ITLB, predictor, BTB) and
    // books what it owns, and its lanes walk its icache lines on their
    // own cache copies (LaneGroups::fetchCodes).  A pass at the
    // recorded layout, every pass of a noise or ASLR family, keeps
    // Src = Recorded and pays nothing for code classes.
    //
    // runReference() is kept only as the differential oracle; a
    // timing-model change lands in it and here, and the differential
    // tests hold the two together.

    // Only the components the fast loop actually drives need a reset:
    // the predictor and BTB are shared with the reference oracle (their
    // hot twins mutate the real tables).  The caches, TLBs and store
    // buffer are replaced wholesale by the shadows below — nothing
    // observes their state here (the observer reads only their
    // geometry), and runReference() resets them on entry.
    predictor_->reset();
    btb_.reset();

    // A recorded stream walks the recorded program's ops, whatever
    // program its lanes run.
    const toolchain::ProcessImage &image = *lanes.front().image;
    const toolchain::LinkedProgram &prog =
        kLive ? image.prog() : *trace->program;
    mbias_assert(!prog.code.empty(), "empty program");
    mbias_assert(plan.ops.size() == prog.code.size(),
                 "execution plan does not match the program");
    if constexpr (Traced)
        mbias_assert(tplan && tplan->ops.size() == plan.ops.size(),
                     "trace plan does not match the program");

    SparseMemory mem;
    if constexpr (kLive)
        loadProgramData(mem, prog);

    std::array<std::uint64_t, isa::reg::numRegs> regs{};
    regs[isa::reg::sp] = image.initialSp;
    regs[isa::reg::gp] = image.gp;
    regs[isa::reg::hp] = image.heapBase;

    // Hot configuration, hoisted: the reference re-reads these through
    // config_ around opaque calls; here they live in registers.
    const bool model_blocks = config_.enableFetchBlockModel;
    const bool tlbs_on = config_.enableTlbs;
    const unsigned fetch_width = config_.fetchWidth;
    const Addr fetch_block_bytes = config_.fetchBlockBytes;
    const Addr iline = config_.icache.lineBytes;
    const Cycles line_miss_pen =
        config_.icache.missPenalty + config_.l2.missPenalty;
    const unsigned ipage_shift = itlb_.pageShift(); // Tlb asserts pow2
    const Cycles itlb_miss_pen = config_.itlb.missPenalty;
    const Cycles ooo_window = config_.oooWindowCycles;
    const Cycles mul_lat = config_.intMulLatency;
    const Cycles div_lat = config_.intDivLatency;
    const bool bp_on = config_.enableBranchPrediction;
    const bool btb_on = config_.enableBtb;
    const Cycles mispredict_pen = config_.branchMispredictPenalty;
    const Cycles btb_miss_pen = config_.btbMissPenalty;
    const Cycles fetch_realign_pen = config_.fetchRealignPenalty;

    // The predictor's concrete type is fixed by the config the
    // instance was built from; resolve it once so every branch calls
    // the non-virtual hot twins.
    HotPredictor hot(config_, *predictor_);

    // Per-lane state: every lane's clock, register readiness, icache
    // line memo, noise clock, and the memory hierarchy (LaneMemory)
    // with its counters, behind the per-lane steps the handlers call
    // (LiveLane, LaneGroups).
    using LaneState = std::conditional_t<kLive, LiveLane<Core, Obs>,
                                         LaneGroups<Core, kLinked>>;
    LaneState lane(obs, config_, dtlb_.pageShift(), storeBuffer_, lanes,
                   trace);
    // Src = Relinked: the front end of each code class.
    std::conditional_t<kLinked, CodeClasses<Core>, Unused> codes(
        config_, itlb_.pageShift(), prog, lanes);

    // Lane-invariant state: front end, ITLB, and the counters only
    // shared work increments (a live walk's are its memory's canonical
    // ones, which every event of its one lane books).
    PerfCounters shared_ctrs;
    PerfCounters &ctrs = [&]() -> PerfCounters & {
        if constexpr (kLive)
            return lane.mem.canon;
        else
            return shared_ctrs;
    }();
    ShadowTlb s_itlb(config_.itlb);
    unsigned group_slots = 0;
    Addr group_block_end = 0;
    bool force_new_group = true;
    Addr last_code_page = ~Addr(0);
    Cycles fetch_charge = 0; ///< the current op's shared fetch cycles
    Addr line_first = 0, line_last = 0; ///< its icache lines

    // A taken transfer opens a fetch group, and may refetch.
    auto realign = [&](Addr target)
        __attribute__((always_inline)) -> Cycles {
        force_new_group = true;
        return refetchesMidBlock<Core>(model_blocks, target,
                                       fetch_block_bytes)
                   ? fetch_realign_pen
                   : Cycles(0);
    };
    // A taken branch, jump or call looks its target up in the BTB.
    auto btb_charge = [&](Addr pc, Addr target)
        __attribute__((always_inline)) -> Cycles {
        if (btb_on && !obs.btb(pc, btb_.lookupAndUpdate(pc, target))) {
            ctrs.inc(Counter::BtbMisses);
            return btb_miss_pen;
        }
        return 0;
    };

    // Sequential fetch mostly stays within the current page; the
    // new-page work is kept out of line (as LaneMemory::fetch keeps
    // the new-line work) so only the cheap comparisons are replicated
    // per dispatch site.
    auto itlb_touch = [&](Addr pc, unsigned size)
        __attribute__((noinline)) -> Cycles {
        const unsigned misses = s_itlb.accessVpns(
            pc >> ipage_shift, (pc + size - 1) >> ipage_shift);
        obs.itlb(pc >> ipage_shift, misses);
        if (!misses)
            return 0;
        ctrs.inc(Counter::ItlbMisses, misses);
        return misses * itlb_miss_pen;
    };
    // Lane-invariant half of fetchAccounting(): fetch groups and the
    // ITLB, folded into one charge every lane adds (the ITLB page
    // number is a shift where the reference divides).
    auto front = [&](Addr pc, unsigned size) __attribute__((always_inline)) {
        fetch_charge = 0;
        if (force_new_group || group_slots == 0 ||
            (model_blocks && pc >= group_block_end)) {
            fetch_charge = 1;
            ctrs.inc(Counter::FetchGroups);
            group_slots = fetch_width;
            group_block_end =
                model_blocks
                    ? alignDown(pc, fetch_block_bytes) + fetch_block_bytes
                    : ~Addr(0);
            force_new_group = false;
        }
        group_slots -= 1;
        if (model_blocks && pc + size > group_block_end)
            group_slots = 0;
        line_first = alignDown(pc, iline);
        line_last = alignDown(pc + size - 1, iline);
        if (tlbs_on) {
            const Addr page = pc >> ipage_shift;
            if (page != last_code_page) {
                last_code_page = page;
                fetch_charge += itlb_touch(pc, size);
            }
        }
    };
    // The functional half of a register write (a live stream's value;
    // a recorded stream's values are dead).
    auto write_reg = [&](isa::Reg rd, std::uint64_t v)
        __attribute__((always_inline)) {
        if (rd != isa::reg::zero)
            regs[rd] = v;
    };

    // Functional memory through a small direct-mapped memo of page
    // data pointers: the reference pays a hash lookup on every access;
    // here only a page's first touch does (pointers stay valid until
    // clear() — pages are never freed).  Values are assembled exactly
    // like SparseMemory::read/write; cross-page accesses fall back.
    constexpr Addr page_bytes = SparseMemory::page_bytes;
    struct ReadMemo
    {
        Addr vpn = ~Addr(0);
        const std::uint8_t *data = nullptr;
    };
    struct WriteMemo
    {
        Addr vpn = ~Addr(0);
        std::uint8_t *data = nullptr;
    };
    std::array<ReadMemo, 8> rmemo{};
    std::array<WriteMemo, 8> wmemo{};

    auto mem_read = [&](Addr addr, unsigned size)
        __attribute__((always_inline)) -> std::uint64_t {
        const Addr off = addr & (page_bytes - 1);
        if (off + size <= page_bytes) {
            const Addr vpn = addr / page_bytes;
            ReadMemo &m = rmemo[vpn & 7];
            if (m.vpn != vpn) {
                // Absent pages are read as zero and not memoized (a
                // later store may allocate them).
                const std::uint8_t *p = mem.pageDataIfPresent(addr);
                if (!p)
                    return 0;
                m.vpn = vpn;
                m.data = p;
            }
            const std::uint8_t *b = m.data + off;
            switch (size) {
              case 1:
                return b[0];
              case 2:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8;
              case 4:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8 |
                       std::uint64_t(b[2]) << 16 | std::uint64_t(b[3]) << 24;
              default:
                return std::uint64_t(b[0]) | std::uint64_t(b[1]) << 8 |
                       std::uint64_t(b[2]) << 16 | std::uint64_t(b[3]) << 24 |
                       std::uint64_t(b[4]) << 32 | std::uint64_t(b[5]) << 40 |
                       std::uint64_t(b[6]) << 48 | std::uint64_t(b[7]) << 56;
            }
        }
        return mem.read(addr, size);
    };
    auto mem_write = [&](Addr addr, unsigned size, std::uint64_t value)
        __attribute__((always_inline)) {
        const Addr off = addr & (page_bytes - 1);
        if (off + size <= page_bytes) {
            const Addr vpn = addr / page_bytes;
            WriteMemo &m = wmemo[vpn & 7];
            if (m.vpn != vpn) {
                m.vpn = vpn;
                m.data = mem.pageData(addr);
            }
            std::uint8_t *b = m.data + off;
            switch (size) {
              case 8:
                b[7] = std::uint8_t(value >> 56);
                b[6] = std::uint8_t(value >> 48);
                b[5] = std::uint8_t(value >> 40);
                b[4] = std::uint8_t(value >> 32);
                [[fallthrough]];
              case 4:
                b[3] = std::uint8_t(value >> 24);
                b[2] = std::uint8_t(value >> 16);
                [[fallthrough]];
              case 2:
                b[1] = std::uint8_t(value >> 8);
                [[fallthrough]];
              default:
                b[0] = std::uint8_t(value);
            }
            return;
        }
        mem.write(addr, size, value);
    };

    // Record-mode stream sinks.  One running byte estimate caps the
    // footprint: past FunctionalTrace::kMaxBytes the streams stop
    // growing, the run completes normally, and the trace is marked
    // aborted (the caller then negative-caches the key).
    FunctionalTrace *const ft_rec = rec;
    std::uint64_t rec_bits = 0; ///< branch-bit accumulator, LSB first
    unsigned rec_nbits = 0;
    std::uint64_t rec_bytes = 0;
    bool rec_ok = true;
    auto rec_branch = [&](bool taken) __attribute__((always_inline)) {
        rec_bits |= std::uint64_t(taken) << rec_nbits;
        if (++rec_nbits == 64) {
            if (__builtin_expect(rec_ok, 1)) {
                ft_rec->branchBits.push_back(rec_bits);
                rec_ok = (rec_bytes += 8) < FunctionalTrace::kMaxBytes;
            }
            rec_bits = 0;
            rec_nbits = 0;
        }
        ++ft_rec->branchCount;
    };
    auto rec_mem = [&](Addr addr, unsigned size)
        __attribute__((always_inline)) {
        if (__builtin_expect(rec_ok, 1)) {
            ft_rec->memAddrs.push_back(addr);
            rec_ok = (rec_bytes += sizeof(Addr)) <
                     FunctionalTrace::kMaxBytes;
        }
        if (addr >= ft_rec->stackBoundary)
            ft_rec->lowestStackAddr =
                std::min(ft_rec->lowestStackAddr, addr);
        else
            ft_rec->highestDataByte =
                std::max(ft_rec->highestDataByte, addr + size - 1);
    };
    auto rec_ret = [&](std::uint32_t target) __attribute__((always_inline)) {
        if (__builtin_expect(rec_ok, 1)) {
            ft_rec->retTargets.push_back(target);
            rec_ok = (rec_bytes += 4) < FunctionalTrace::kMaxBytes;
        }
    };

    // Recorded-stream cursors.  The streams are exact by construction
    // (same program, same entry, same budget => same functional
    // execution), so exhaustion mid-run means the replay preconditions
    // were violated — assert, don't wander.
    const std::uint64_t *const bits =
        kLive ? nullptr : trace->branchBits.data();
    const std::size_t n_bitwords = kLive ? 0 : trace->branchBits.size();
    const Addr *const addrs = kLive ? nullptr : trace->memAddrs.data();
    const std::size_t n_addrs = kLive ? 0 : trace->memAddrs.size();
    const std::uint32_t *const rets =
        kLive ? nullptr : trace->retTargets.data();
    const std::size_t n_rets = kLive ? 0 : trace->retTargets.size();
    std::size_t bitword = 0, addr_at = 0, ret_at = 0;
    unsigned bit = 0;
    // The stream's next memory address, of an access of @p size
    // bytes: executed (and, in Record mode, captured) live, decoded
    // when recorded.
    auto stream_addr = [&](Addr live, unsigned size)
        __attribute__((always_inline)) -> Addr {
        if constexpr (kLive) {
            if (kRecord)
                rec_mem(live, size);
            return live;
        } else {
            mbias_assert(addr_at < n_addrs, "replay memory stream exhausted");
            return addrs[addr_at++];
        }
    };

    // The traced tier walks the TracePlan's rewritten op array; both
    // arrays decode the same program, only the dispatch tags of
    // superblock heads differ.
    const DecodedOp *const ops =
        Traced ? tplan->ops.data() : plan.ops.data();

    // Trace-tier tallies and replay scratch (unused on the fast tier):
    // tr_pens collects (position, penalty) pairs of replayed icache /
    // ITLB misses inside the current batch, so exit register-ready
    // times can include the penalties charged at or before each
    // register's last write.  The per-batch cursors live here — not in
    // the handler — because locals declared between computed-goto
    // labels defeat the compiler's initialization analysis.
    std::uint64_t tr_batched = 0, tr_fallbacks = 0;
    std::vector<std::pair<std::uint32_t, Cycles>> tr_pens;
    const TraceBlock *tb = nullptr;
    Cycles tr_now0 = 0;      ///< lane clock at batch entry
    std::uint32_t tr_srow = 0; ///< fetch-row index (entry group_slots)
    const TraceBlock::FnOp *fp = nullptr, *fe = nullptr;

    // Record mode: which bytes hold pushed return addresses.
    std::conditional_t<kRecord, ReturnSlots, Unused> return_slots(
        image.stackTop);
    bool code_visible = false;

    std::uint64_t icount = 0;
    std::uint32_t idx = kLive ? image.entryIdx : trace->entryIdx;
    bool halted = false;
    const DecodedOp *d = nullptr;

    // Shared half of every conditional branch (reference order:
    // BranchesExecuted, predict+train, then the taken path): the
    // outcome, executed live or decoded, and the charge every lane adds
    // after its operand waits.
    auto branch_charge = [&](const DecodedOp &b, bool taken)
        __attribute__((always_inline)) -> Cycles {
        if constexpr (kLive) {
            if (kRecord)
                rec_branch(taken);
        } else {
            mbias_assert(bitword < n_bitwords,
                         "replay branch stream exhausted");
            taken = (bits[bitword] >> bit) & 1;
            if (++bit == 64) {
                bit = 0;
                ++bitword;
            }
        }
        ctrs.inc(Counter::BranchesExecuted);
        if constexpr (kLinked) {
            codes.branch(idx, b.targetIdx, taken);
            if (taken) {
                ctrs.inc(Counter::TakenBranches);
                idx = b.targetIdx;
            } else {
                ++idx;
            }
            return Cycles(0);
        }
        Cycles charge = 0;
        if (bp_on) {
            obs.pht(b.pc);
            if (hot.mispredicted(b.pc, taken)) {
                ctrs.inc(Counter::BranchMispredicts);
                charge += mispredict_pen;
                force_new_group = true;
            }
        }
        if (taken) {
            ctrs.inc(Counter::TakenBranches);
            const Addr target = ops[b.targetIdx].pc;
            charge += btb_charge(b.pc, target) + realign(target);
            idx = b.targetIdx;
        } else {
            ++idx;
        }
        return charge;
    };

    // Handler addresses indexed by Opcode value; order must match the
    // enum exactly (plan.cc validated every op at build time).  One
    // extra slot handles the trace tier's batch pseudo-opcode — only
    // a TracePlan's rewritten array ever carries it, so the fast tier
    // pays nothing for the entry.
    static const void *const kDispatch[] = {
        &&op_add, &&op_sub, &&op_mul, &&op_divu, &&op_remu, &&op_and,
        &&op_or, &&op_xor, &&op_sll, &&op_srl, &&op_sra, &&op_slt,
        &&op_sltu, &&op_addi, &&op_andi, &&op_ori, &&op_xori, &&op_slli,
        &&op_srli, &&op_srai, &&op_slti, &&op_li, &&op_la, &&op_ld,
        &&op_ld, &&op_ld, &&op_ld, &&op_st, &&op_st, &&op_st, &&op_st,
        &&op_beq, &&op_bne, &&op_blt, &&op_bge, &&op_bltu, &&op_bgeu,
        &&op_jmp, &&op_call, &&op_ret, &&op_nop, &&op_halt, &&op_batch,
    };
    static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                      std::size_t(Opcode::NumOpcodes) + 1,
                  "dispatch table out of sync with the opcode enum");

// One budget check + fetch + threaded jump between every pair of
// instructions; each expansion gives its handler a private dispatch
// branch.  The noise check sits where the reference loop has it — after
// the budget check, before fetch — and the observer closes the previous
// op before a noise event and opens the next one after it.
#define MBIAS_DISPATCH()                                                    \
    do {                                                                    \
        if (__builtin_expect(icount >= max_insts, 0))                       \
            goto run_done;                                                  \
        if constexpr (Obs::kObserving)                                      \
            obs.close(lane.now, ctrs);                                      \
        lane.noise();                                                       \
        if constexpr (Obs::kObserving)                                      \
            obs.open(idx, lane.now, ctrs);                                  \
        d = ops + idx;                                                      \
        ++icount;                                                           \
        if constexpr (kLinked) {                                            \
            codes.front(idx, d->size);                                      \
            lane.front(codes);                                              \
        } else {                                                            \
            front(d->pc, d->size);                                          \
            lane.front(fetch_charge, line_first, line_last);                \
        }                                                                   \
        goto *kDispatch[std::size_t(d->op)];                                \
    } while (0)

// A value-producing op: every lane waits for its sources, then tags rd
// ready after the op's latency.
#define MBIAS_ALU(label, lat, value, waits)                                 \
  label:                                                                    \
    waits;                                                                  \
    lane.set(d->rd, lat);                                                   \
    if constexpr (kLive)                                                    \
        write_reg(d->rd, value);                                            \
    ++idx;                                                                  \
    MBIAS_DISPATCH();
#define MBIAS_RR(label, lat, value)                                         \
    MBIAS_ALU(label, lat, value, lane.wait(d->rs1, d->rs2))
#define MBIAS_RI(label, value) MBIAS_ALU(label, 1, value, lane.wait(d->rs1))

    MBIAS_DISPATCH();

    MBIAS_RR(op_add, 1, regs[d->rs1] + regs[d->rs2])
    MBIAS_RR(op_sub, 1, regs[d->rs1] - regs[d->rs2])
    MBIAS_RR(op_mul, mul_lat, regs[d->rs1] * regs[d->rs2])
    MBIAS_RR(op_divu, div_lat,
             regs[d->rs2] == 0 ? ~std::uint64_t(0)
                               : regs[d->rs1] / regs[d->rs2])
    MBIAS_RR(op_remu, div_lat,
             regs[d->rs2] == 0 ? regs[d->rs1] : regs[d->rs1] % regs[d->rs2])
    MBIAS_RR(op_and, 1, regs[d->rs1] & regs[d->rs2])
    MBIAS_RR(op_or, 1, regs[d->rs1] | regs[d->rs2])
    MBIAS_RR(op_xor, 1, regs[d->rs1] ^ regs[d->rs2])
    MBIAS_RR(op_sll, 1, regs[d->rs1] << (regs[d->rs2] & 63))
    MBIAS_RR(op_srl, 1, regs[d->rs1] >> (regs[d->rs2] & 63))
    MBIAS_RR(op_sra, 1,
             std::uint64_t(std::int64_t(regs[d->rs1]) >> (regs[d->rs2] & 63)))
    MBIAS_RR(op_slt, 1,
             std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]) ? 1 : 0)
    MBIAS_RR(op_sltu, 1, regs[d->rs1] < regs[d->rs2] ? 1 : 0)
    MBIAS_RI(op_addi, regs[d->rs1] + std::uint64_t(d->imm))
    MBIAS_RI(op_andi, regs[d->rs1] & std::uint64_t(d->imm))
    MBIAS_RI(op_ori, regs[d->rs1] | std::uint64_t(d->imm))
    MBIAS_RI(op_xori, regs[d->rs1] ^ std::uint64_t(d->imm))
    MBIAS_RI(op_slli, regs[d->rs1] << (std::uint64_t(d->imm) & 63))
    MBIAS_RI(op_srli, regs[d->rs1] >> (std::uint64_t(d->imm) & 63))
    MBIAS_RI(op_srai, std::uint64_t(std::int64_t(regs[d->rs1]) >>
                                    (std::uint64_t(d->imm) & 63)))
    MBIAS_RI(op_slti, std::int64_t(regs[d->rs1]) < d->imm ? 1 : 0)
    MBIAS_ALU(op_li, 1, std::uint64_t(d->imm), )
#undef MBIAS_RI
#undef MBIAS_RR
#undef MBIAS_ALU

  op_ld: {
      const Addr addr = stream_addr(regs[d->rs1] + std::uint64_t(d->imm),
                                    d->accessSize);
      if constexpr (kRecord)
          code_visible |= return_slots.load(addr, d->accessSize);
      ctrs.inc(Counter::Loads);
      lane.wait(d->rs1);
      lane.load(addr, d->accessSize, icount, d->rd);
      if constexpr (kLive)
          write_reg(d->rd, mem_read(addr, d->accessSize));
      ++idx;
      MBIAS_DISPATCH();
  }

  op_st: {
      const Addr addr = stream_addr(regs[d->rs1] + std::uint64_t(d->imm),
                                    d->accessSize);
      if constexpr (kRecord)
          return_slots.store(addr, d->accessSize);
      ctrs.inc(Counter::Stores);
      lane.wait(d->rs1, d->rd); // address and data registers
      lane.store(addr, d->accessSize, icount);
      if constexpr (kLive)
          mem_write(addr, d->accessSize, regs[d->rd]);
      ++idx;
      MBIAS_DISPATCH();
  }

// A conditional branch: the shared half, then every lane's operand
// waits and the charge.
#define MBIAS_BRANCH(label, taken)                                          \
  label: {                                                                  \
      const Cycles charge = branch_charge(*d, taken);                       \
      lane.wait(d->rs1, d->rs2);                                            \
      if constexpr (kLinked)                                                \
          lane.charge(codes);                                               \
      else                                                                  \
          lane.charge(charge);                                              \
      MBIAS_DISPATCH();                                                     \
  }

    MBIAS_BRANCH(op_beq, regs[d->rs1] == regs[d->rs2])
    MBIAS_BRANCH(op_bne, regs[d->rs1] != regs[d->rs2])
    MBIAS_BRANCH(op_blt,
                 std::int64_t(regs[d->rs1]) < std::int64_t(regs[d->rs2]))
    MBIAS_BRANCH(op_bge,
                 std::int64_t(regs[d->rs1]) >= std::int64_t(regs[d->rs2]))
    MBIAS_BRANCH(op_bltu, regs[d->rs1] < regs[d->rs2])
    MBIAS_BRANCH(op_bgeu, regs[d->rs1] >= regs[d->rs2])
#undef MBIAS_BRANCH

  op_jmp: {
      if constexpr (kLinked) {
          codes.transfer(idx, d->targetIdx);
          lane.charge(codes);
      } else {
          const Addr target = ops[d->targetIdx].pc;
          lane.charge(btb_charge(d->pc, target) + realign(target));
      }
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_call: {
      const Addr new_sp = stream_addr(regs[isa::reg::sp] - 8, 8);
      if constexpr (kRecord)
          return_slots.call(new_sp);
      ctrs.inc(Counter::Calls);
      ctrs.inc(Counter::Stores);
      Cycles charge = 0;
      if constexpr (kLinked) {
          codes.transfer(idx, d->targetIdx);
      } else {
          const Addr target = ops[d->targetIdx].pc;
          charge = btb_charge(d->pc, target) + realign(target);
      }
      lane.wait(isa::reg::sp);
      lane.store(new_sp, 8, icount);
      lane.set(isa::reg::sp, 1);
      if constexpr (kLinked)
          lane.charge(codes);
      else
          lane.charge(charge);
      if constexpr (kLive) {
          mem_write(new_sp, 8, d->pc + d->size);
          regs[isa::reg::sp] = new_sp;
      }
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_ret: {
      const Addr sp = stream_addr(regs[isa::reg::sp], 8);
      if constexpr (kRecord)
          code_visible |= return_slots.ret(sp);
      ctrs.inc(Counter::Loads);
      // Return-address stack: the target is predicted perfectly, so
      // the load latency is off the critical path (no destination), but
      // the access still exercises the cache/TLB.  A live stream
      // resolves the target through the O(1) return-address table
      // (same domain as the reference's indexAt() search); a recorded
      // one decodes it.
      std::uint32_t t = ExecutionPlan::kNoIndex;
      if constexpr (kLive) {
          const Addr off = mem_read(sp, 8) - plan.codeBase;
          if (off < plan.idxByOffset.size())
              t = plan.idxByOffset[std::size_t(off)];
          mbias_assert(t != ExecutionPlan::kNoIndex,
                       "corrupted return address 0x", std::hex,
                       off + plan.codeBase);
          if (kRecord)
              rec_ret(t);
      } else {
          mbias_assert(ret_at < n_rets, "replay return stream exhausted");
          t = rets[ret_at++];
      }
      Cycles charge = 0;
      if constexpr (kLinked)
          codes.ret(t);
      else
          charge = realign(ops[t].pc);
      lane.wait(isa::reg::sp);
      lane.load(sp, 8, icount, isa::reg::zero);
      lane.set(isa::reg::sp, 1);
      if constexpr (kLinked)
          lane.charge(codes);
      else
          lane.charge(charge);
      if constexpr (kLive)
          regs[isa::reg::sp] = sp + 8;
      idx = t;
      MBIAS_DISPATCH();
  }

  op_nop:
    ctrs.inc(Counter::NopsExecuted);
    ++idx;
    MBIAS_DISPATCH();

  op_halt:
    halted = true;
    goto run_done;

  op_la:
    mbias_panic("unresolved La reached the simulator");

  op_batch:
    if constexpr (!Traced) {
        mbias_panic("batch pseudo-op reached the fast tier");
    } else {
        tb = &tplan->blocks[d->targetIdx];

        // Guards: commit only when the per-op walk provably charges
        // zero stall cycles and runs to the block's end —
        //  (1) the instruction budget covers all len ops (the head is
        //      already counted by the dispatch that got us here);
        //  (2) every in-block producer read in-block has its latency
        //      hidden by the OoO window;
        //  (3) every live-in register is ready within the window at
        //      entry (now only grows, so the exposed stall at any
        //      later read is bounded by its slack here).
        Cycles max_lat = 0;
        if (tb->latClassMask & 1)
            max_lat = 1;
        if (tb->latClassMask & 2)
            max_lat = std::max(max_lat, mul_lat);
        if (tb->latClassMask & 4)
            max_lat = std::max(max_lat, div_lat);
        bool batch_ok =
            icount + tb->len - 1 <= max_insts && max_lat <= ooo_window;
        if (batch_ok) {
            const Cycles limit = lane.now + ooo_window;
            std::uint32_t m = tb->liveInMask;
            while (m) {
                const unsigned r = unsigned(std::countr_zero(m));
                m &= m - 1;
                if (lane.regReady[r] > limit) {
                    batch_ok = false;
                    break;
                }
            }
        }
        if (batch_ok && lane.nextEvent != ~Cycles(0)) {
            // (4) no OS interrupt or DVFS step can fire inside the
            // block: bound the batch's cycle advance from above (entry
            // fetch row plus every line/page touch missing) — now only
            // grows through the per-op walk and the guards above prove
            // zero stalls, so if even the bound stays short of the
            // next event, no mid-block dispatch could have fired it,
            // and the post-block dispatch re-checks with identical
            // state.
            const Cycles exit_base = lane.now + tb->rows[group_slots].groups;
            Cycles pen_ub =
                Cycles(tb->lines.size()) * line_miss_pen +
                Cycles(2 * tb->pages.size()) * itlb_miss_pen;
            if (exit_base + pen_ub >= lane.nextEvent) {
                // Near the interrupt the all-miss bound refuses almost
                // every block; tighten it with a read-only residency
                // probe.  If every block line (page) is resident right
                // now, the walk inserts nothing into that structure,
                // so nothing is evicted and — by induction over the
                // block's accesses — every one hits: that structure's
                // true penalty is exactly zero.  Any probe miss keeps
                // the pessimistic term (an insertion can cascade
                // evictions within the block).
                pen_ub = 0;
                for (const auto &lt : tb->lines) {
                    if (!lane.mem.icache.canon.contains(lt.line)) {
                        pen_ub += Cycles(tb->lines.size()) * line_miss_pen;
                        break;
                    }
                }
                for (const auto &pt : tb->pages) {
                    if (!s_itlb.containsVpns(pt.firstVpn, pt.lastVpn)) {
                        pen_ub += Cycles(2 * tb->pages.size()) *
                                  itlb_miss_pen;
                        break;
                    }
                }
                if (exit_base + pen_ub >= lane.nextEvent)
                    batch_ok = false;
            }
        }
        if (__builtin_expect(!batch_ok, 0)) {
            // Fall back before any state was touched: dispatch the
            // original head per-op; execution then walks the run
            // instruction by instruction, exactly like the fast tier.
            ++tr_fallbacks;
            d = &tb->headOp;
            goto *kDispatch[std::size_t(d->op)];
        }

        tr_now0 = lane.now;
        tr_srow = group_slots;

        // Replay the block's icache-line and ITLB-page crossings
        // against the live walk's memory and the ITLB (same accesses
        // in the same order as the per-op walk; the two never
        // interleave observably).  Misses keep their op position so
        // exit regReady times below can include them.
        tr_pens.clear();
        Cycles pen = 0;
        for (const auto &lt : tb->lines) {
            if (const Cycles p = lane.mem.fetch(lt.line)) {
                pen += p;
                tr_pens.emplace_back(lt.pos, p);
            }
        }
        if (!tb->lines.empty())
            lane.lastCodeLine = tb->lines.back().line;
        for (const auto &pt : tb->pages) {
            const unsigned misses =
                s_itlb.accessVpns(pt.firstVpn, pt.lastVpn);
            if (misses) {
                ctrs.inc(Counter::ItlbMisses, misses);
                const Cycles p = misses * itlb_miss_pen;
                pen += p;
                tr_pens.emplace_back(pt.pos, p);
            }
        }
        if (!tb->pages.empty())
            last_code_page = tb->pages.back().firstVpn;

        // One fused cycle/counter delta for ops 1..len-1.
        const TraceBlock::FetchRow &row = tb->rows[tr_srow];
        lane.now = tr_now0 + row.groups + pen;
        ctrs.inc(Counter::FetchGroups, row.groups);
        group_slots = row.exitSlots;
        group_block_end = row.exitBlockEnd;
        if (tb->nopCount)
            ctrs.inc(Counter::NopsExecuted, tb->nopCount);
        icount += tb->len - 1;
        tr_batched += tb->len;

        // One register-dataflow step: the same arithmetic the per-op
        // handlers do, minus dispatch, fetch and timing bookkeeping.
        // Direct-threaded like the outer interpreter — each fn handler
        // jumps straight to the next op's handler, so the loop costs
        // one (well-predicted) indirect branch per op instead of a
        // switch dispatch plus a back edge.  FnOp opcodes are the
        // first 22 enumerators, validated by TracePlan::build; there
        // is no range backstop, matching the outer dispatch table.
        {
            static_assert(std::size_t(Opcode::Li) == 21,
                          "fn dispatch assumes Add..Li are dense");
            static const void *const kFn[] = {
                &&fn_add, &&fn_sub, &&fn_mul, &&fn_divu, &&fn_remu,
                &&fn_and, &&fn_or, &&fn_xor, &&fn_sll, &&fn_srl,
                &&fn_sra, &&fn_slt, &&fn_sltu, &&fn_addi, &&fn_andi,
                &&fn_ori, &&fn_xori, &&fn_slli, &&fn_srli, &&fn_srai,
                &&fn_slti, &&fn_li,
            };
            static_assert(sizeof(kFn) / sizeof(kFn[0]) ==
                              std::size_t(Opcode::Li) + 1,
                          "one fn handler per value-producing op");
            fp = tb->fnOps.data();
            fe = fp + tb->fnOps.size();
            if (fp == fe)
                goto fn_done;
            goto *kFn[std::size_t(fp->op)];

#define MBIAS_FN(label, expr)                                           \
  label:                                                                \
    regs[fp->rd] = (expr);                                              \
    if (++fp == fe)                                                     \
        goto fn_done;                                                   \
    goto *kFn[std::size_t(fp->op)];

            MBIAS_FN(fn_add, regs[fp->rs1] + regs[fp->rs2])
            MBIAS_FN(fn_sub, regs[fp->rs1] - regs[fp->rs2])
            MBIAS_FN(fn_mul, regs[fp->rs1] * regs[fp->rs2])
          fn_divu: {
            const std::uint64_t bv = regs[fp->rs2];
            regs[fp->rd] =
                bv == 0 ? ~std::uint64_t(0) : regs[fp->rs1] / bv;
            if (++fp == fe)
                goto fn_done;
            goto *kFn[std::size_t(fp->op)];
          }
          fn_remu: {
            const std::uint64_t bv = regs[fp->rs2];
            regs[fp->rd] = bv == 0 ? regs[fp->rs1] : regs[fp->rs1] % bv;
            if (++fp == fe)
                goto fn_done;
            goto *kFn[std::size_t(fp->op)];
          }
            MBIAS_FN(fn_and, regs[fp->rs1] & regs[fp->rs2])
            MBIAS_FN(fn_or, regs[fp->rs1] | regs[fp->rs2])
            MBIAS_FN(fn_xor, regs[fp->rs1] ^ regs[fp->rs2])
            MBIAS_FN(fn_sll, regs[fp->rs1] << (regs[fp->rs2] & 63))
            MBIAS_FN(fn_srl, regs[fp->rs1] >> (regs[fp->rs2] & 63))
            MBIAS_FN(fn_sra,
                     std::uint64_t(std::int64_t(regs[fp->rs1]) >>
                                   (regs[fp->rs2] & 63)))
            MBIAS_FN(fn_slt, std::int64_t(regs[fp->rs1]) <
                                     std::int64_t(regs[fp->rs2])
                                 ? 1
                                 : 0)
            MBIAS_FN(fn_sltu, regs[fp->rs1] < regs[fp->rs2] ? 1 : 0)
            MBIAS_FN(fn_addi, regs[fp->rs1] + std::uint64_t(fp->imm))
            MBIAS_FN(fn_andi, regs[fp->rs1] & std::uint64_t(fp->imm))
            MBIAS_FN(fn_ori, regs[fp->rs1] | std::uint64_t(fp->imm))
            MBIAS_FN(fn_xori, regs[fp->rs1] ^ std::uint64_t(fp->imm))
            MBIAS_FN(fn_slli,
                     regs[fp->rs1] << (std::uint64_t(fp->imm) & 63))
            MBIAS_FN(fn_srli,
                     regs[fp->rs1] >> (std::uint64_t(fp->imm) & 63))
            MBIAS_FN(fn_srai,
                     std::uint64_t(std::int64_t(regs[fp->rs1]) >>
                                   (std::uint64_t(fp->imm) & 63)))
            MBIAS_FN(fn_slti,
                     std::int64_t(regs[fp->rs1]) < fp->imm ? 1 : 0)
            MBIAS_FN(fn_li, std::uint64_t(fp->imm))
#undef MBIAS_FN
        }
      fn_done:;

        // Exit readiness of every written register: issue cycle of
        // its last write (entry time + groups opened up to it + miss
        // penalties charged at or before it) plus its latency.
        const std::size_t wn = tb->writes.size();
        const std::size_t width = tb->rows.size();
        for (std::size_t w = 0; w < wn; ++w) {
            const TraceBlock::RegWrite &rw = tb->writes[w];
            Cycles at = tr_now0 + tb->writeGroups[w * width + tr_srow];
            for (const auto &pr : tr_pens)
                if (pr.first <= rw.pos)
                    at += pr.second;
            const Cycles lat = rw.latClass == 0 ? 1
                               : rw.latClass == 1 ? mul_lat
                                                  : div_lat;
            lane.regReady[rw.reg] = at + lat;
        }


        idx += tb->len;
        MBIAS_DISPATCH();
    }

#undef MBIAS_DISPATCH

  run_done:
    if constexpr (Obs::kObserving)
        obs.close(lane.now, ctrs);
    if constexpr (Traced)
        TraceCache::global().recordRun(tr_batched, icount - tr_batched,
                                       tr_fallbacks);
    if constexpr (kRecord) {
        if (rec_nbits && rec_ok)
            ft_rec->branchBits.push_back(rec_bits); // flush partial word
        ft_rec->aborted = !rec_ok;
        ft_rec->codeVisible = code_visible;
        ft_rec->icount = icount;
        ft_rec->halted = halted;
        ft_rec->resultA0 = regs[isa::reg::a0];
    }
    if constexpr (kLive) {
        out->counters = ctrs;
        out->counters.set(Counter::Cycles, lane.now);
        out->counters.set(Counter::Instructions, icount);
        out->halted = halted;
        out->result = regs[isa::reg::a0];
    } else {
        // The architectural outcome comes from the recording; the walk
        // only re-derived control flow from the streams.  a0 is taken
        // as recorded: a trace whose a0 may be a stack address never
        // serves another stack base (FunctionalTrace::resultOnStack).
        mbias_assert(icount == trace->icount && halted == trace->halted,
                     "replay diverged from its recording");
        if constexpr (kLinked)
            lane.finish(out, ctrs, icount, halted, trace->resultA0, &codes);
        else
            lane.finish(out, ctrs, icount, halted, trace->resultA0);
    }
}

} // namespace mbias::sim
