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
#include <optional>
#include <type_traits>
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
 * Fast-path twin of uarch::Cache's line touch with a packed slot
 * array: same geometry, same MRU-ordered hit/replacement decisions,
 * but one uint64 per way — (tag << 1) | valid — instead of parallel
 * vector<uint64> / vector<bool>, so the way scan and the MRU shift
 * are plain word moves.  Starting from the same (reset) state, every
 * access returns exactly what Cache::accessLine would, so the
 * counters derived from it are bitwise identical; only the reference
 * interpreter's own Cache instances accumulate internal hit/miss
 * statistics, which nothing outside the machine observes.
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

    /** Twin of uarch::Cache::invalidateSet: clearing valid bits there
     *  is observationally identical to zeroing the packed slots here —
     *  a stale tag can never hit again, and invalid ways shift through
     *  the MRU order exactly like empty ones.  An untouched set is
     *  already empty. */
    void invalidateSet(std::uint64_t set)
    {
        const std::uint32_t e = dir[set & setMask];
        if (!e)
            return;
        std::uint64_t *base = arena.data() + std::size_t(e - 1) * ways;
        for (unsigned w = 0; w < ways; ++w)
            base[w] = 0;
    }
};

/** Fast-path twin of uarch::Tlb (fully associative, LRU): one packed
 *  (vpn << 1) | valid word per entry, same MRU-ordered decisions. */
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
     *  contains() counterpart. */
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

/**
 * Store-buffer twin in SoA layout: same ring order, same head
 * rotation, same expiry and forwarding rules as uarch::StoreBuffer,
 * but the masked addresses sit in their own dense array, so the common
 * no-possible-alias case is one branchless scan of it; only a masked
 * match runs the exact per-entry check.  ~0 marks an empty slot
 * (masked addresses are <= aliasMask, so it never matches).
 */
struct ShadowStoreBuffer
{
    unsigned entries;
    std::uint64_t aliasMask;
    std::uint64_t maxAge;
    std::vector<std::uint64_t> masked;
    std::vector<Addr> addr;
    std::vector<std::uint32_t> size;
    std::vector<std::uint64_t> icount;
    unsigned head = 0;
    bool bitmapOk; ///< the ring's match bitmap fits a word
    /** Inverted index over the masked addresses: index[m] is the
     *  bitmap of ring slots currently holding masked address m, kept
     *  incrementally by record().  It turns the per-load scan of all
     *  slots into one table read; the bit order is ring-slot order,
     *  so the first-match walk is unchanged.  Only worth the table for
     *  the realistic alias-window sizes (<= 16 bits). */
    bool indexOk;
    std::vector<std::uint32_t> index;

    explicit ShadowStoreBuffer(const uarch::StoreBuffer &proto)
        : entries(proto.entries()), aliasMask(proto.aliasMask()),
          maxAge(proto.maxAge()), masked(entries, ~std::uint64_t(0)),
          addr(entries, 0), size(entries, 0), icount(entries, 0),
          bitmapOk(entries <= 32),
          indexOk(bitmapOk && aliasMask < (std::uint64_t(1) << 16)),
          index(indexOk ? std::size_t(aliasMask) + 1 : 0, 0)
    {
    }

    void record(Addr a, unsigned sz, std::uint64_t ic)
    {
        if (indexOk) {
            const std::uint64_t old = masked[head];
            if (old != ~std::uint64_t(0))
                index[old] &= ~(std::uint32_t(1) << head);
            index[a & aliasMask] |= std::uint32_t(1) << head;
        }
        masked[head] = a & aliasMask;
        addr[head] = a;
        size[head] = sz;
        icount[head] = ic;
        if (++head == entries)
            head = 0;
    }

    /** StoreBuffer::loadAliases: the first live, unexpired,
     *  masked-matching entry in ring order decides (clean covering
     *  forwarding is free, anything else stalls), exactly as the
     *  reference scan does. */
    bool aliases(Addr a, unsigned sz, std::uint64_t ic) const
    {
        const std::uint64_t want = a & aliasMask;
        if (!bitmapOk)
            return scan(a, sz, ic);
        // The masked-match bitmap comes straight from the inverted
        // index (or one scan pass when the window is too wide for a
        // table); expired matches are skipped, the walk continues.
        std::uint32_t match;
        if (indexOk) {
            match = index[want];
        } else {
            match = 0;
            for (unsigned i = 0; i < entries; ++i)
                match |= std::uint32_t(masked[i] == want) << i;
        }
        while (match) {
            const unsigned i = unsigned(std::countr_zero(match));
            match &= match - 1;
            if (icount[i] + maxAge >= ic)
                return !(addr[i] == a && size[i] >= sz);
        }
        return false;
    }

    __attribute__((noinline)) bool scan(Addr a, unsigned sz,
                                        std::uint64_t ic) const
    {
        const std::uint64_t want = a & aliasMask;
        for (unsigned i = 0; i < entries; ++i) {
            if (masked[i] != want || icount[i] + maxAge < ic)
                continue;
            return !(addr[i] == a && size[i] >= sz);
        }
        return false;
    }
};

/**
 * The knobs of the shadow memory hierarchy, hoisted from
 * MachineConfig, and its access order written once: each walk makes
 * the component accesses of fetchAccounting()/memoryAccess() in the
 * same order, so its outcomes (the only thing the counters observe)
 * match the reference's access for access.  The cache walks reach the
 * three cache levels through a policy @p Mem whose hitI/hitD/hitL2
 * touch a line and report a hit: a live walk's own caches
 * (ShadowMemory), or a lane pass's canonical caches or one lane's view
 * of them (LaneGroups).  Obs hooks report where each event landed
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

    /** The DTLB's half of a data access: its added latency. */
    template <class Obs>
    __attribute__((always_inline)) Cycles
    dtlbAccess(Obs &obs, ShadowTlb &dtlb, Addr addr, unsigned size,
               PerfCounters &ctrs) const
    {
        if (!tlbsOn)
            return 0;
        const unsigned misses = dtlb.accessVpns(
            addr >> dpageShift, (addr + size - 1) >> dpageShift);
        obs.dtlb(addr >> dpageShift, misses);
        if (!misses)
            return 0;
        ctrs.inc(Counter::DtlbMisses, misses);
        return misses * dtlbMissPen;
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

    /** The store buffer's half: a store is recorded (its latency is
     *  hidden), a load pays a false alias.  @p icount is the retiring
     *  instruction's (store-buffer ageing). */
    template <bool kStore>
    __attribute__((always_inline)) Cycles
    storeBuffer(ShadowStoreBuffer &sb, Addr addr, unsigned size,
                std::uint64_t icount, PerfCounters &ctrs) const
    {
        if (kStore) {
            sb.record(addr, size, icount);
            return 0;
        }
        if (sbAliasOn && sb.aliases(addr, size, icount)) {
            ctrs.inc(Counter::AliasStalls);
            return aliasPen;
        }
        return 0;
    }
};

/**
 * The shadow memory hierarchy of a live walk — icache, dcache, the L2
 * they share, DTLB and store buffer — through packed twins freshly
 * constructed = freshly reset.  (A lane pass shares one canonical
 * hierarchy among its lanes instead: LaneGroups.)
 */
struct ShadowMemory : MemoryTiming
{
    ShadowCache icache;
    ShadowCache dcache;
    ShadowCache l2;
    ShadowTlb dtlb;
    ShadowStoreBuffer sb;

    ShadowMemory(const MachineConfig &c, unsigned dpage_shift,
                 const uarch::StoreBuffer &sb_proto)
        : MemoryTiming(c, dpage_shift), icache(c.icache), dcache(c.dcache),
          l2(c.l2), dtlb(c.dtlb), sb(sb_proto)
    {
    }

    bool hitI(Addr line) { return icache.access(line); }
    bool hitD(Addr line) { return dcache.access(line); }
    bool hitL2(Addr line) { return l2.access(line); }

    /** Sequential fetch mostly stays within the current line, so the
     *  new-line walk is kept out of line and only the cheap comparison
     *  is replicated per dispatch site. */
    template <class Obs>
    __attribute__((noinline)) Cycles fetchLine(Obs &obs, Addr line,
                                               PerfCounters &ctrs)
    {
        return MemoryTiming::fetchLine(obs, *this, line, ctrs);
    }

    /** Transcription of memoryAccess(): returns the added load latency
     *  (0 for stores); a line-crossing store also takes the store
     *  port's extra cycle on @p now.  is_store is constant at every
     *  call site, so its branches fold away. */
    template <class Obs>
    __attribute__((always_inline)) Cycles
    access(Obs &obs, Addr addr, unsigned size, bool is_store,
           std::uint64_t icount, Cycles &now, PerfCounters &ctrs)
    {
        Cycles lat = is_store ? 0 : dHitLat;
        lat += dtlbAccess(obs, dtlb, addr, size, ctrs);
        const Addr first = alignDown(addr, dline);
        const Addr last = alignDown(addr + size - 1, dline);
        if (cachesOn)
            lat += dataLines(obs, *this, first, last, ctrs);
        lat += split(first, last, ctrs);
        if (is_store) {
            now += storePort(first, last);
            return storeBuffer<true>(sb, addr, size, icount, ctrs);
        }
        return lat + storeBuffer<false>(sb, addr, size, icount, ctrs);
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
     *  An interrupt's evictions go to @p evict(dcache set, icache set),
     *  each drawn raw (the cache reduces it modulo its set count).
     *  True when an interrupt fired: the caller's icache line memo must
     *  then re-access, as the reference resets lastCodeLine. */
    template <class Evict>
    __attribute__((noinline)) bool fire(Cycles &now, PerfCounters &ctrs,
                                        Evict evict)
    {
        const bool interrupt = now >= nextInterrupt;
        if (interrupt) {
            ctrs.inc(Counter::OsInterrupts);
            now += model->costCycles;
            for (unsigned e = 0; e < model->linesEvictedPerInterrupt; ++e) {
                const std::uint64_t dset = irqRng.next();
                evict(dset, irqRng.next());
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
 * LaneGroups holds a lane pass, four lanes per vector, over one
 * canonical memory hierarchy.
 */

/**
 * The lane state of a live walk (Src = Live): one lane, in 64-bit
 * cycles, with the reference loop's own arithmetic.  Its counters are
 * the run's counters, and the trace tier's batch handler reads and
 * writes its fields directly.
 */
template <class Core, class Obs>
struct LiveLane
{
    Obs &obs;
    ShadowMemory mem;
    NoiseClock clock;
    PerfCounters ctrs;
    const Cycles window;
    const Addr iline;
    const bool cachesOn;
    Cycles now = 0;
    Cycles nextEvent; ///< copy of clock.nextEvent
    Addr lastCodeLine = ~Addr(0);
    std::array<Cycles, isa::reg::numRegs> regReady{};

    LiveLane(Obs &o, const MachineConfig &c, unsigned dpage_shift,
             const uarch::StoreBuffer &sb, std::span<const ReplayLane> lanes,
             const FunctionalTrace *)
        : obs(o), mem(c, dpage_shift, sb), clock(lanes.front().noise),
          window(c.oooWindowCycles), iline(c.icache.lineBytes),
          cachesOn(c.enableCaches), nextEvent(clock.nextEvent)
    {
    }

    __attribute__((always_inline)) void noise()
    {
        if (__builtin_expect(now >= nextEvent, 0)) {
            const auto evict = [this](std::uint64_t dset,
                                      std::uint64_t iset) {
                mem.dcache.invalidateSet(dset);
                mem.icache.invalidateSet(iset);
            };
            if (clock.fire(now, ctrs, evict))
                lastCodeLine = ~Addr(0); // force an icache re-access
            nextEvent = clock.nextEvent;
        }
    }

    __attribute__((always_inline)) void front(Cycles charge, Addr first,
                                              Addr last)
    {
        now += charge;
        if (cachesOn) {
            for (Addr line = first; line <= last; line += iline) {
                if (line == lastCodeLine)
                    continue;
                lastCodeLine = line;
                now += mem.fetchLine(obs, line, ctrs);
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
                ctrs.inc(Counter::StallCycles, exposed);
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
                ctrs.inc(Counter::StallCycles, lat - 1);
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
        const Cycles lat = mem.access(obs, a, size, false, icount, now, ctrs);
        if (rd != isa::reg::zero)
            regReady[rd] = now + lat;
    }

    __attribute__((always_inline)) void store(Addr a, unsigned size,
                                              std::uint64_t icount)
    {
        mem.access(obs, a, size, true, icount, now, ctrs);
    }
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

    LaneCache(const uarch::CacheConfig &c, std::size_t n)
        : canon(c), mask(c.sets, 0), lanes(n)
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

    /** An interrupt's eviction of @p raw_set, in lane @p k only. */
    void evict(std::size_t k, std::uint64_t raw_set)
    {
        const std::uint64_t set = raw_set & canon.setMask;
        if (!owns(k, set) && !canon.findSet(set))
            return; // empty in the lane already
        std::uint64_t *w = own(k, set);
        std::fill(w, w + canon.ways, 0);
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
 * the non-stack pages are disjoint, which the stack boundary keeps so on
 * every preset layout.  So that it holds by construction, a class whose
 * lowest stack page could meet the highest non-stack page is first
 * given its own ShadowTlb, merged from the two lists (the n newest
 * pages of both), and walks every page on it from then on.
 */
struct LaneTlb
{
    struct Page
    {
        std::uint64_t vpn;
        std::uint64_t stamp; ///< of its last touch
    };
    struct Class
    {
        std::vector<Page> stack; ///< MRU-first, at most n
        std::uint64_t lo = ~std::uint64_t(0); ///< lowest stack page
        std::optional<ShadowTlb> own; ///< once its pages may meet data's
    };

    const uarch::TlbConfig config;
    const std::size_t n;
    const unsigned shift; ///< page size, log2
    const std::vector<std::uint64_t> deltas; ///< per class
    std::vector<Page> data; ///< non-stack pages, MRU-first, at most n
    std::vector<Class> classes;
    const std::uint32_t all; ///< every class
    std::uint32_t shared;    ///< classes on the two lists
    std::uint64_t dataHi = 0; ///< highest non-stack page touched
    std::uint64_t stackLo = ~std::uint64_t(0); ///< of the shared classes
    std::size_t deepest = 0; ///< bounds every shared class's stack pages
    std::uint64_t decisions = 0; ///< page outcomes decided per class

    LaneTlb(const uarch::TlbConfig &c, unsigned page_shift,
            std::vector<std::uint64_t> class_deltas)
        : config(c), n(c.entries), shift(page_shift),
          deltas(std::move(class_deltas)), classes(deltas.size()),
          all(std::uint32_t((std::uint64_t(1) << deltas.size()) - 1)),
          shared(all)
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
        // The newest non-stack page again, where no class holds enough
        // stack pages to push it out: a hit everywhere.
        if (!data.empty() && data[0].vpn == vpn && deepest < n &&
            shared == all) {
            data[0].stamp = stamp;
            return false;
        }
        return touchDataAnywhere(vpn, stamp, flips);
    }

    __attribute__((noinline)) bool
    touchDataAnywhere(std::uint64_t vpn, std::uint64_t stamp,
                      std::uint32_t &flips)
    {
        if (vpn > dataHi) {
            dataHi = vpn;
            if (dataHi >= stackLo)
                privatizeUpTo(dataHi);
        }
        const std::size_t pos = find(data, vpn);
        const bool miss = pos == data.size();
        if (!miss && pos + deepest >= n) {
            // Some class may hold enough newer stack pages to push the
            // page out: count each one's.
            const std::uint64_t last = data[pos].stamp;
            deepest = 0;
            eachIn(shared, [&](std::size_t c) {
                const std::vector<Page> &s = classes[c].stack;
                deepest = std::max(deepest, s.size());
                if (pos + newer(s, last) >= n)
                    flips |= std::uint32_t(1) << c;
            });
            decisions += std::uint64_t(std::popcount(shared));
        }
        toFront(data, pos, vpn, stamp);
        eachIn(~shared & all, [&](std::size_t c) {
            if (classes[c].own->touch(vpn) == miss)
                flips |= std::uint32_t(1) << c;
            ++decisions;
        });
        return miss;
    }

    /** A stack access of @p size bytes at recorded address @p a, its
     *  pages at @p stamp and @p stamp + 1: out(c, misses) for each
     *  class that misses. */
    template <class Out>
    __attribute__((always_inline)) void
    touchStacks(Addr a, unsigned size, std::uint64_t stamp, Out out)
    {
        decisions += classes.size();
        for (std::size_t c = 0; c < classes.size(); ++c) {
            const Addr la = a + deltas[c];
            const std::uint64_t first = la >> shift;
            const std::uint64_t last = (la + size - 1) >> shift;
            // Its newest stack page again, within n stamps: a hit (only
            // a shared class lists any, and it lies above every
            // non-stack page, or the class would have been made
            // private).
            std::vector<Page> &s = classes[c].stack;
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
        Class &k = classes[c];
        if (!k.own && vpn <= dataHi)
            privatize(c);
        if (k.own)
            return !k.own->touch(vpn);
        const std::size_t at = find(k.stack, vpn);
        bool miss = at == k.stack.size();
        if (!miss && stamp - k.stack[at].stamp > n)
            miss = at + newer(data, k.stack[at].stamp) >= n;
        toFront(k.stack, at, vpn, stamp);
        // n newer non-stack pages put a stack page out for good.
        if (data.size() == n)
            while (k.stack.back().stamp < data.back().stamp)
                k.stack.pop_back();
        deepest = std::max(deepest, k.stack.size());
        if (vpn < k.lo) {
            k.lo = vpn;
            stackLo = std::min(stackLo, vpn);
        }
        return miss;
    }

    void privatizeUpTo(std::uint64_t hi)
    {
        eachIn(shared, [&](std::size_t c) {
            if (classes[c].lo <= hi)
                privatize(c);
        });
    }

    /** Gives class @p c its own ShadowTlb: the n newest pages of the two
     *  lists, MRU-first. */
    void privatize(std::size_t c)
    {
        Class &k = classes[c];
        ShadowTlb &t = k.own.emplace(config);
        std::size_t i = 0, j = 0;
        for (std::size_t e = 0; e < n; ++e) {
            const bool fromData =
                i < data.size() &&
                (j == k.stack.size() || data[i].stamp > k.stack[j].stamp);
            if (fromData)
                t.slots[e] = (data[i++].vpn << 1) | 1;
            else if (j < k.stack.size())
                t.slots[e] = (k.stack[j++].vpn << 1) | 1;
        }
        k.stack.clear();
        shared &= ~(std::uint32_t(1) << c);
        stackLo = ~std::uint64_t(0);
        eachIn(shared, [&](std::size_t s) {
            stackLo = std::min(stackLo, classes[s].lo);
        });
    }
};

/**
 * The store buffer of a lane pass, for every delta class at once: one
 * ring in the recording's coordinates, each store recorded once with a
 * bit for whether it is a stack store.  In a class of stack delta d, a
 * stack entry sits at its recorded address plus d.  A common shift
 * cancels in (x ^ y) & aliasMask (a low-bit mask) and in address
 * equality, so among the entries of the load's own region the first
 * live match, and its verdict, is the same in every class.  Only an
 * entry of the other region can match in some classes and not others:
 * a stack entry at s matches a non-stack load at a where d == a - s,
 * and a non-stack entry at s a stack load at a where d == s - a, both
 * modulo the alias window.  byDelta maps that residue to the classes
 * whose delta has it, so a load walks the live other-region entries
 * ahead of its shared decider and reads which classes each one decides:
 * the paper's 4K-aliasing mechanism, computed per class only where it
 * fires.
 *
 * The index and the slot bitmaps need the ring to fit a word and the
 * window a table; past that, scan() decides each class on its own.
 * Stores enter in program order, so the live entries are always the
 * newest `live` ones, from slot `tail` on: a load first retires the
 * oldest that expired.
 */
struct LaneStoreBuffer
{
    const unsigned entries;
    const std::uint64_t aliasMask;
    const std::uint64_t maxAge;
    const bool indexed;
    std::vector<Addr> addr;
    std::vector<std::uint32_t> size;
    std::vector<std::uint64_t> icount;
    std::vector<std::uint8_t> stack; ///< 1 for a stack store
    std::uint32_t stackSlots = 0;    ///< bitmap of stack entries
    std::uint32_t alive = 0;         ///< bitmap of the live entries
    unsigned head = 0;
    unsigned tail = 0; ///< the oldest live entry, when live > 0
    unsigned live = 0; ///< the newest `live` entries are unexpired
    /** index[masked address]: bitmap of the slots holding it, in the
     *  first class's lane addresses (a stack entry at recorded s sits
     *  at s + deltas[0]), so that class reads its matches at once. */
    std::vector<std::uint32_t> index;
    /** byDelta[d & aliasMask]: the classes of stack delta d. */
    std::vector<std::uint32_t> byDelta;
    const std::vector<std::uint64_t> deltas; ///< per class
    std::uint64_t decisions = 0; ///< verdicts decided per class

    LaneStoreBuffer(const uarch::StoreBuffer &proto,
                    std::vector<std::uint64_t> class_deltas)
        : entries(proto.entries()), aliasMask(proto.aliasMask()),
          maxAge(proto.maxAge()),
          indexed(entries <= 32 && aliasMask < (std::uint64_t(1) << 16)),
          addr(entries, 0), size(entries, 0), icount(entries, 0),
          stack(entries, 0), deltas(std::move(class_deltas))
    {
        if (!indexed)
            return;
        index.assign(std::size_t(aliasMask) + 1, 0);
        if (deltas.size() == 1)
            return; // one class: load() reads only the index
        byDelta.assign(std::size_t(aliasMask) + 1, 0);
        for (std::size_t c = 0; c < deltas.size(); ++c)
            byDelta[deltas[c] & aliasMask] |= std::uint32_t(1) << c;
    }

    void record(Addr a, unsigned sz, std::uint64_t ic, bool on_stack)
    {
        if (indexed) {
            // An unrecorded slot's bit is in no index entry.
            const std::uint32_t bit = std::uint32_t(1) << head;
            index[keyOf(addr[head], stack[head])] &= ~bit;
            index[keyOf(a, on_stack)] |= bit;
            alive |= bit;
            stackSlots = on_stack ? stackSlots | bit : stackSlots & ~bit;
        }
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

    /** A load at recorded address @p a: whether it stalls in the
     *  classes decided once, and in @p flips every class where it does
     *  the other thing. */
    __attribute__((always_inline)) bool load(Addr a, unsigned sz,
                                             std::uint64_t ic, bool on_stack,
                                             std::uint32_t &flips)
    {
        flips = 0;
        if (indexed && deltas.size() == 1) {
            // One class: the index holds its lane addresses, so its
            // first live match decides, as in ShadowStoreBuffer.
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
    /** load() for several classes, or past the index's limits. */
    __attribute__((noinline)) bool loadClasses(Addr a, unsigned sz,
                                               std::uint64_t ic,
                                               bool on_stack,
                                               std::uint32_t &flips)
    {
        expire(ic);
        if (!indexed) {
            const bool stall = scan(0, a, sz, on_stack);
            for (std::size_t c = 1; c < deltas.size(); ++c)
                if (scan(c, a, sz, on_stack) != stall)
                    flips |= std::uint32_t(1) << c;
            decisions += deltas.size();
            return stall;
        }
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
            alive &= ~(std::uint32_t(1) << (tail & 31));
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

    /** StoreBuffer::loadAliases in class @p c's lane addresses. */
    bool scan(std::size_t c, Addr a, unsigned sz, bool on_stack) const
    {
        const Addr load = on_stack ? a + deltas[c] : a;
        for (unsigned i = 0; i < entries; ++i) {
            if ((i + entries - tail) % entries >= live)
                continue;
            const Addr entry = stack[i] ? addr[i] + deltas[c] : addr[i];
            if ((entry ^ load) & aliasMask)
                continue;
            return !(entry == load && size[i] >= sz);
        }
        return false;
    }
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
 * One memory hierarchy per pass.  The caches, DTLB and store buffer
 * update in access order and age by instruction count, never by a
 * lane's clock, so lanes that see the same addresses hold the same
 * state until a noise event splits them.
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
 *    canonical state skips it.
 * Lane k's counters are then its own plus the shared ones plus the
 * canonical ones.  Taking back is unsigned arithmetic whose sum at
 * finish() is exact, as is a lane's correction of a broadcast charge.
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
template <class Core>
class LaneGroups
{
  public:
    LaneGroups(NullObserver &, const MachineConfig &c, unsigned dpage_shift,
               const uarch::StoreBuffer &sb,
               std::span<const ReplayLane> lanes,
               const FunctionalTrace *trace)
        : groups_((lanes.size() + 3) / 4),
          deltas_(deltasOf(lanes, trace->recordedSp)),
          classes_(deltas_.size()),
          timing_(c, dpage_shift), icache_(c.icache, lanes.size()),
          dcache_(c.dcache, lanes.size()), l2_(c.l2, lanes.size()),
          tlb_(c.dtlb, dpage_shift, deltas_), sb_(sb, deltas_),
          boundary_(trace->stackBoundary), iline_(c.icache.lineBytes),
          window_(Lane4{} +
                  std::int32_t(std::min<Cycles>(c.oooWindowCycles, kSpan)))
    {
        mbias_assert(!lanes.empty() && lanes.size() <= LaneCache::kMaxLanes,
                     "a lane pass holds 1 to ", LaneCache::kMaxLanes,
                     " lanes, not ", lanes.size());
        lanes_.reserve(lanes.size());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            const std::uint64_t delta =
                lanes[k].image->initialSp - trace->recordedSp;
            const std::size_t cls = std::size_t(
                std::find(deltas_.begin(), deltas_.end(), delta) -
                deltas_.begin());
            lanes_.push_back({NoiseClock(lanes[k].noise), PerfCounters(),
                              cls});
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
        if (timing_.cachesOn &&
            (first != memo_ || last != first || anyStale_))
            fetchLines(first, last);
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
     *  canonical hierarchy's and its class's.  Notes the pass in the
     *  replay stats. */
    void finish(RunResult *out, const PerfCounters &shared,
                std::uint64_t icount, bool halted, std::uint64_t a0) const
    {
        for (std::size_t k = 0; k < lanes_.size(); ++k) {
            const Lane &l = lanes_[k];
            const Cycles now = l.epoch + Cycles(groups_[k / 4].now[k % 4]);
            PerfCounters &c = out[k].counters;
            c = l.ctrs;
            const PerfCounters &cls = classes_[l.cls].ctrs;
            for (const Counter id : allCounters())
                c.inc(id, shared.get(id) + canon_.get(id) + cls.get(id));
            c.inc(Counter::StallCycles, now - shared_ - l.own);
            c.set(Counter::Cycles, now);
            c.set(Counter::Instructions, icount);
            out[k].halted = halted;
            out[k].result = a0;
        }
        // With one class, every outcome was decided once for the pass.
        ReplayCache::global().noteLanePass(
            lanes_.size(), laneAccesses_, divergedAccesses_,
            classes_.size() > 1 ? tlb_.decisions + sb_.decisions : 0);
    }

  private:
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

    /** The events a cache walk books. */
    static constexpr Counter kCacheCounters[] = {
        Counter::IcacheMisses, Counter::DcacheMisses, Counter::L2Misses,
        Counter::PrefetchesIssued};

    struct Group
    {
        Lane4 now{};
        Lane4 deadline{};
        Lane4 ready[isa::reg::numRegs]{};
    };
    struct Lane
    {
        NoiseClock clock;
        PerfCounters ctrs;
        std::size_t cls; ///< its delta class
        Cycles epoch = 0;
        Cycles own = 0;     ///< charges of its own (see the class note)
        Cycles walked = 0;  ///< this access's cost on its own copies
        bool stale = false; ///< an interrupt reset its icache line memo
    };
    /** The lanes of one stack delta (deltas_[c]). */
    struct Class
    {
        PerfCounters ctrs; ///< its DTLB and store-buffer differences
        /** This access's DTLB misses and alias stalls past the ones
         *  booked once, and their latency. */
        std::int32_t misses = 0, stalls = 0;
        Cycles extra = 0;
    };

    /** The stack deltas (initialSp - recordedSp) of @p lanes, each
     *  once, in order of first lane. */
    static std::vector<std::uint64_t>
    deltasOf(std::span<const ReplayLane> lanes, Addr recorded_sp)
    {
        std::vector<std::uint64_t> out;
        for (const ReplayLane &lane : lanes) {
            const std::uint64_t delta = lane.image->initialSp - recorded_sp;
            if (std::find(out.begin(), out.end(), delta) == out.end())
                out.push_back(delta);
        }
        return out;
    }

    /** The canonical caches, as MemoryTiming's walk policy. */
    struct Canon
    {
        LaneGroups &p;
        bool hitI(Addr line) { return p.icache_.canon.access(line); }
        bool hitD(Addr line) { return p.dcache_.canon.access(line); }
        bool hitL2(Addr line) { return p.l2_.canon.access(line); }
    };
    /** Lane k's caches: its copies, taken on touch. */
    struct Own
    {
        LaneGroups &p;
        std::size_t k;
        bool hitI(Addr line) { return p.icache_.access(k, line); }
        bool hitD(Addr line) { return p.dcache_.access(k, line); }
        bool hitL2(Addr line) { return p.l2_.access(k, line); }
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

    /**
     * One cache walk at the same address in every lane, @p walk(mem,
     * ctrs) through a level policy; @p sets(f) names, as f(cache,
     * line), every set it can touch.  A lane that owns no copy of any
     * of those sets shares the canonical walk: step by step, its own
     * walk would touch the same sets in the same state.  The others,
     * left in @p diverged, first copy every one of those sets they
     * lack, so the canonical walk cannot change a set under them, walk
     * their copies and leave their cost in `walked`.  The canonical
     * walk then runs once and returns its cost; each diverged lane
     * takes back its events and drops the copies that equal the
     * canonical sets again.
     */
    template <class Walk, class Sets>
    __attribute__((always_inline)) Cycles
    walkShared(Walk walk, Sets sets, std::uint32_t &diverged)
    {
        laneAccesses_ += lanes_.size();
        diverged = 0;
        sets([&](const LaneCache &c, Addr line) {
            diverged |= c.mask[c.canon.setOf(line)];
        });
        if (__builtin_expect(diverged == 0, 1))
            return walk(Canon{*this}, canon_);
        divergedAccesses_ += std::uint64_t(std::popcount(diverged));
        eachIn(diverged, [&](std::size_t k) {
            sets([&](LaneCache &c, Addr line) {
                c.own(k, c.canon.setOf(line));
            });
            lanes_[k].walked = walk(Own{*this, k}, lanes_[k].ctrs);
        });
        std::uint64_t once[std::size(kCacheCounters)];
        for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
            once[i] = canon_.get(kCacheCounters[i]);
        const Cycles cost = walk(Canon{*this}, canon_);
        for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
            once[i] = canon_.get(kCacheCounters[i]) - once[i];
        eachIn(diverged, [&](std::size_t k) {
            for (std::size_t i = 0; i < std::size(kCacheCounters); ++i)
                lanes_[k].ctrs.inc(kCacheCounters[i],
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
     * canon_, each other class's difference to its misses/stalls, its
     * counters and its extra latency.  Returns the classes that differ.
     */
    template <bool kStore>
    __attribute__((always_inline)) std::uint32_t
    tlbAndStoreBuffer(Addr a, unsigned size, std::uint64_t icount, bool stack,
                      Cycles &base)
    {
        std::uint32_t differ = 0;
        if (timing_.tlbsOn) {
            const std::uint64_t t = stamp_;
            stamp_ += 2;
            const unsigned shift = timing_.dpageShift;
            if (!stack) {
                const std::uint64_t first = a >> shift;
                const std::uint64_t last = (a + size - 1) >> shift;
                unsigned misses = dtlbData(first, t, differ);
                if (last != first)
                    misses += dtlbData(last, t + 1, differ);
                if (misses) {
                    canon_.inc(Counter::DtlbMisses, misses);
                    base += misses * timing_.dtlbMissPen;
                }
            } else {
                tlb_.touchStacks(a, size, t, [&](std::size_t c, int misses) {
                    classes_[c].misses = misses;
                    differ |= std::uint32_t(1) << c;
                });
            }
        }
        if (kStore) {
            sb_.record(a, size, icount, stack);
        } else if (timing_.sbAliasOn) {
            std::uint32_t flips;
            const bool stall = sb_.load(a, size, icount, stack, flips);
            if (stall) {
                canon_.inc(Counter::AliasStalls);
                base += timing_.aliasPen;
            }
            eachIn(flips, [&](std::size_t c) {
                classes_[c].stalls = stall ? -1 : 1;
            });
            differ |= flips;
        }
        eachIn(differ, [&](std::size_t c) {
            Class &k = classes_[c];
            k.ctrs.inc(Counter::DtlbMisses, std::uint64_t(k.misses));
            k.ctrs.inc(Counter::AliasStalls, std::uint64_t(k.stalls));
            k.extra = Cycles(k.misses) * timing_.dtlbMissPen +
                      Cycles(k.stalls) * timing_.aliasPen;
            k.misses = k.stalls = 0;
        });
        return differ;
    }

    /** A non-stack DTLB touch: 1 on a miss in the classes decided once,
     *  each other class's difference in its misses. */
    unsigned dtlbData(std::uint64_t vpn, std::uint64_t stamp,
                      std::uint32_t &differ)
    {
        std::uint32_t flips;
        const bool miss = tlb_.touchData(vpn, stamp, flips);
        eachIn(flips, [&](std::size_t c) {
            classes_[c].misses += miss ? -1 : 1;
        });
        differ |= flips;
        return miss;
    }

    /** Class @p c's latency difference when it is in @p differ. */
    Cycles extra(std::uint32_t differ, std::size_t c) const
    {
        return (differ >> c) & 1 ? classes_[c].extra : 0;
    }

    /** The data side of one load or store. */
    template <bool kStore>
    __attribute__((noinline)) void data(Addr a, unsigned size,
                                        std::uint64_t icount, isa::Reg rd)
    {
        const bool stack = a >= boundary_;
        Cycles base = kStore ? 0 : timing_.dHitLat;
        const std::uint32_t differ =
            tlbAndStoreBuffer<kStore>(a, size, icount, stack, base);
        if (stack) {
            if (classes_.size() > 1)
                return stackData<kStore>(a, size, rd, base, differ);
            a += deltas_[0];
        }
        const Addr first = alignDown(a, timing_.dline);
        const Addr last = alignDown(a + size - 1, timing_.dline);
        base += timing_.split(first, last, canon_);
        std::uint32_t diverged = 0;
        Cycles cost = 0;
        if (timing_.cachesOn) {
            const auto sets = [&](auto f) {
                timing_.eachDataLine(first, last, [&](Addr line) {
                    f(dcache_, line);
                    f(l2_, line);
                });
            };
            cost = walkShared(
                [&](auto &&mem, PerfCounters &ctrs) {
                    return timing_.dataLines(obs_, mem, first, last, ctrs);
                },
                sets, diverged);
        } else {
            laneAccesses_ += lanes_.size();
        }

        if (kStore) {
            if (const Cycles port = timing_.storePort(first, last))
                charge(port);
            return;
        }
        if (rd == isa::reg::zero)
            return;
        if (differ) {
            for (std::size_t g = 0; g < groups_.size(); ++g) {
                const Lane4 lat = gather(g, [&](Lane &l, std::size_t k) {
                    return base + ((diverged >> k) & 1 ? l.walked : cost) +
                           extra(differ, l.cls);
                });
                groups_[g].ready[rd] = groups_[g].now + lat;
            }
            return;
        }
        const std::int32_t lat = std::int32_t(base + cost);
        each([&](Group &g) { g.ready[rd] = g.now + lat; });
        eachIn(diverged, [&](std::size_t k) {
            groups_[k / 4].ready[rd][k % 4] +=
                std::int32_t(lanes_[k].walked) - std::int32_t(cost);
        });
    }

    /** A stack access when the classes differ: each lane walks the
     *  caches at its own address, on its own copies; @p base and its
     *  class's extra latency carry the DTLB and the store buffer. */
    template <bool kStore>
    void stackData(Addr a, unsigned size, isa::Reg rd, Cycles base,
                   std::uint32_t differ)
    {
        laneAccesses_ += lanes_.size();
        divergedAccesses_ += lanes_.size();
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            const Lane4 v = gather(g, [&](Lane &l, std::size_t k) {
                const Addr la = a + deltas_[l.cls];
                const Addr first = alignDown(la, timing_.dline);
                const Addr last = alignDown(la + size - 1, timing_.dline);
                Cycles lat = base + extra(differ, l.cls);
                // Not settled: every copy this walk touched now holds
                // a stack line at its MRU way, which the canonical
                // caches (code and non-stack data only, in this pass)
                // do not hold.  An undropped equal copy would only
                // cost time.
                if (timing_.cachesOn)
                    lat += timing_.dataLines(obs_, Own{*this, k}, first,
                                             last, l.ctrs);
                lat += timing_.split(first, last, l.ctrs);
                if (kStore) {
                    const Cycles port = timing_.storePort(first, last);
                    l.own += port;
                    return port;
                }
                return lat;
            });
            if (kStore)
                groups_[g].now += v;
            else if (rd != isa::reg::zero)
                groups_[g].ready[rd] = groups_[g].now + v;
        }
    }

    /** Folds every element that was at or past its deadline before
     *  front() added @p c to it: the check comes first, as in the
     *  reference loop. */
    __attribute__((noinline)) void cross(std::int32_t c)
    {
        for (std::size_t g = 0; g < groups_.size(); ++g) {
            Group &grp = groups_[g];
            for (unsigned i = 0; i < 4; ++i) {
                if (grp.now[i] - c >= grp.deadline[i]) {
                    grp.now[i] -= c;
                    fold(grp, i, g * 4 + i);
                    grp.now[i] += c;
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
            const auto evict = [this, k](std::uint64_t dset,
                                         std::uint64_t iset) {
                dcache_.evict(k, dset);
                icache_.evict(k, iset);
            };
            if (now >= l.clock.nextEvent && l.clock.fire(now, l.ctrs, evict))
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
                Lane &l = lanes_[k];
                if (!l.stale)
                    continue;
                ++laneAccesses_;
                ++divergedAccesses_;
                const Cycles pen =
                    timing_.fetchLine(obs_, Own{*this, k}, line, l.ctrs);
                icache_.settle(k, icache_.canon.setOf(line));
                l2_.settle(k, l2_.canon.setOf(line));
                correct(k, std::int32_t(pen));
            }
            line += iline_;
        }
        for (; line <= last; line += iline_) {
            const auto sets = [&](auto f) {
                f(icache_, line);
                f(l2_, line);
            };
            std::uint32_t diverged;
            const Cycles pen = walkShared(
                [&](auto &&mem, PerfCounters &ctrs) {
                    return timing_.fetchLine(obs_, mem, line, ctrs);
                },
                sets, diverged);
            if (pen)
                charge(pen);
            eachIn(diverged, [&](std::size_t k) {
                correct(k, std::int32_t(lanes_[k].walked) -
                               std::int32_t(pen));
            });
        }
        for (Lane &l : lanes_)
            l.stale = false;
        anyStale_ = false;
        memo_ = last;
    }

    std::vector<Group> groups_;
    std::vector<Lane> lanes_;
    const std::vector<std::uint64_t> deltas_; ///< per class
    std::vector<Class> classes_;
    NullObserver obs_;
    const MemoryTiming timing_;
    LaneCache icache_, dcache_, l2_;
    LaneTlb tlb_;
    LaneStoreBuffer sb_;
    PerfCounters canon_; ///< events booked once for every lane
    const Addr boundary_;
    const Addr iline_;
    const Lane4 window_;
    Cycles shared_ = 0;    ///< charges every lane took
    std::uint64_t stamp_ = 0; ///< 2 x the data accesses the DTLB saw
    Addr memo_ = ~Addr(0); ///< every non-stale lane's lastCodeLine
    bool anyStale_ = false;
    std::uint64_t laneAccesses_ = 0;     ///< lanes x memory accesses
    std::uint64_t divergedAccesses_ = 0; ///< of them, on a lane's own copies
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
                                lanes[k].image->initialSp, lanes[k].noise,
                                out[k]});
    return out;
}

std::vector<RunResult>
Machine::runLanes(const FunctionalTrace &trace, std::uint64_t max_insts,
                  std::span<const ReplayLane> lanes)
{
    if (lanes.empty())
        return {};
    for (const ReplayLane &lane : lanes)
        mbias_assert(lane.image && trace.matches(*lane.image, max_insts),
                     "replaying a trace against a mismatched image");
    // The lane pass's span books every lane's instructions: a
    // runReplay() the pass serves later books none.
    obs::ScopedSpan span("sim.replay", "sim", nullptr,
                         runHistogram_ != nullptr);
    const auto plan = PlanCache::global().get(trace.program);
    std::vector<RunResult> out(lanes.size());
    NullObserver none;
    // A lane mask names LaneCache::kMaxLanes lanes: a wider pass walks
    // the stream once per chunk of that many.
    for (std::size_t at = 0; at < lanes.size(); at += LaneCache::kMaxLanes) {
        const auto chunk = lanes.subspan(
            at, std::min(LaneCache::kMaxLanes, lanes.size() - at));
        if (config_.core == CoreKind::InOrder)
            runPlanImpl<Source::Recorded, false, RunMode::Normal,
                        InOrderCore>(chunk, max_insts, *plan, nullptr, &trace,
                                     nullptr, none, out.data() + at);
        else
            runPlanImpl<Source::Recorded, false, RunMode::Normal, OooCore>(
                chunk, max_insts, *plan, nullptr, &trace, nullptr, none,
                out.data() + at);
    }
    std::uint64_t insts = 0;
    for (const RunResult &rr : out)
        insts += rr.instructions();
    span.arg("insts", insts);
    // The pass's wall time, shared out evenly: the run histogram keeps
    // one sample per lane, and its sum stays the time spent.
    const std::uint64_t share = span.stop() / lanes.size();
    if (runHistogram_)
        for (std::size_t k = 0; k < lanes.size(); ++k)
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
    //  - packed shadow twins of the caches, TLBs and store buffer,
    //    the predictor/BTB's header-inline hot twins (devirtualized),
    //    and hot config fields hoisted into locals;
    //  - functional memory through a small direct-mapped table of page
    //    pointers instead of a hash lookup per access.
    //
    // What the loop does per op splits in two.  Lane-invariant work
    // runs once per op: dispatch, stream decode, the budget check,
    // predictor and BTB (they see only pc, outcome and target),
    // fetch-group accounting (pc, size and redirects), the ITLB (code
    // pages only; noise never touches TLBs, ASLR moves only the stack)
    // and the counters those own.  Per-lane work — the noise check,
    // clock, register readiness, the icache line memo, ShadowMemory and
    // the NoiseClock — is one call per step on the lane-state object
    // (LiveLane or LaneGroups, above), written once for both sources.
    // Each lane applies the shared outcomes in the reference's order:
    // cycle charges are sums, and every charge lands before the next
    // read of that lane's clock (a stall check, a ready time, or the
    // next dispatch's noise check).
    //
    // Src = Live executes the values of exactly one lane (LiveLane):
    // the observer's hooks sit around its noise check, and its counters
    // are the shared ones.  Mode =
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
    // and lanes.size() lanes are timed in one walk (LaneGroups).
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

    const toolchain::ProcessImage &image = *lanes.front().image;
    const toolchain::LinkedProgram &prog = image.prog();
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
    const Cycles i_miss_pen = config_.icache.missPenalty;
    const Cycles l2_miss_pen = config_.l2.missPenalty;
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
    uarch::GsharePredictor *gshare = nullptr;
    uarch::BimodalPredictor *bimodal = nullptr;
    if (config_.predictor == PredictorKind::Gshare)
        gshare = static_cast<uarch::GsharePredictor *>(predictor_.get());
    else
        bimodal = static_cast<uarch::BimodalPredictor *>(predictor_.get());

    // Per-lane state: every lane's clock, register readiness, icache
    // line memo, noise clock, shadow hierarchy and own counters, behind
    // the per-lane steps the handlers call (LiveLane, LaneGroups).
    using LaneState =
        std::conditional_t<kLive, LiveLane<Core, Obs>, LaneGroups<Core>>;
    LaneState lane(obs, config_, dtlb_.pageShift(), storeBuffer_, lanes,
                   trace);

    // Lane-invariant state: front end, ITLB, and the counters only
    // shared work increments (a live lane's own).
    PerfCounters shared_ctrs;
    PerfCounters &ctrs = [&]() -> PerfCounters & {
        if constexpr (kLive)
            return lane.ctrs;
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

    // CoreModel policy: in-order front ends refetch when a taken
    // transfer lands inside a fetch block rather than at its start.
    auto realign = [&](Addr target)
        __attribute__((always_inline)) -> Cycles {
        force_new_group = true;
        if constexpr (Core::kInOrder) {
            if (model_blocks && (target & (fetch_block_bytes - 1)) != 0)
                return fetch_realign_pen;
        }
        (void)target;
        return Cycles(0);
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
    // new-page work is kept out of line (as ShadowMemory::fetchLine
    // keeps the new-line work) so only the cheap comparisons are
    // replicated per dispatch site.
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
    auto rec_mem = [&](Addr addr) __attribute__((always_inline)) {
        if (__builtin_expect(rec_ok, 1)) {
            ft_rec->memAddrs.push_back(addr);
            rec_ok = (rec_bytes += sizeof(Addr)) <
                     FunctionalTrace::kMaxBytes;
        }
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
    // The stream's next memory address: executed (and, in Record mode,
    // captured) live, decoded when recorded.
    auto stream_addr = [&](Addr live)
        __attribute__((always_inline)) -> Addr {
        if constexpr (kLive) {
            if (kRecord)
                rec_mem(live);
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

    std::uint64_t icount = 0;
    std::uint32_t idx = image.entryIdx;
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
        Cycles charge = 0;
        if (bp_on) {
            obs.pht(b.pc);
            bool pred;
            if (gshare) {
                pred = gshare->predict(b.pc);
                gshare->update(b.pc, taken);
            } else {
                pred = bimodal->predict(b.pc);
                bimodal->update(b.pc, taken);
            }
            if (pred != taken) {
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
        front(d->pc, d->size);                                              \
        lane.front(fetch_charge, line_first, line_last);                    \
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
      const Addr addr = stream_addr(regs[d->rs1] + std::uint64_t(d->imm));
      ctrs.inc(Counter::Loads);
      lane.wait(d->rs1);
      lane.load(addr, d->accessSize, icount, d->rd);
      if constexpr (kLive)
          write_reg(d->rd, mem_read(addr, d->accessSize));
      ++idx;
      MBIAS_DISPATCH();
  }

  op_st: {
      const Addr addr = stream_addr(regs[d->rs1] + std::uint64_t(d->imm));
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
      lane.charge(charge);                                                  \
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
      const Addr target = ops[d->targetIdx].pc;
      lane.charge(btb_charge(d->pc, target) + realign(target));
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_call: {
      const Addr new_sp = stream_addr(regs[isa::reg::sp] - 8);
      ctrs.inc(Counter::Calls);
      ctrs.inc(Counter::Stores);
      const Addr target = ops[d->targetIdx].pc;
      const Cycles charge = btb_charge(d->pc, target) + realign(target);
      lane.wait(isa::reg::sp);
      lane.store(new_sp, 8, icount);
      lane.set(isa::reg::sp, 1);
      lane.charge(charge);
      if constexpr (kLive) {
          mem_write(new_sp, 8, d->pc + d->size);
          regs[isa::reg::sp] = new_sp;
      }
      idx = d->targetIdx;
      MBIAS_DISPATCH();
  }

  op_ret: {
      const Addr sp = stream_addr(regs[isa::reg::sp]);
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
      const Cycles charge = realign(ops[t].pc);
      lane.wait(isa::reg::sp);
      lane.load(sp, 8, icount, isa::reg::zero);
      lane.set(isa::reg::sp, 1);
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
                Cycles(tb->lines.size()) * (i_miss_pen + l2_miss_pen) +
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
                    if (!lane.mem.icache.contains(lt.line)) {
                        pen_ub += Cycles(tb->lines.size()) *
                                  (i_miss_pen + l2_miss_pen);
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
        // against the shadow structures (same accesses in the same
        // order as the per-op walk; the two structures never
        // interleave observably).  Misses keep their op position so
        // exit regReady times below can include them.
        tr_pens.clear();
        Cycles pen = 0;
        for (const auto &lt : tb->lines) {
            if (!lane.mem.icache.access(lt.line)) {
                ctrs.inc(Counter::IcacheMisses);
                Cycles p = i_miss_pen;
                if (!lane.mem.l2.access(lt.line)) {
                    ctrs.inc(Counter::L2Misses);
                    p += l2_miss_pen;
                }
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
        lane.finish(out, ctrs, icount, halted, trace->resultA0);
    }
}

} // namespace mbias::sim
