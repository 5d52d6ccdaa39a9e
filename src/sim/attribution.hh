#ifndef MBIAS_SIM_ATTRIBUTION_HH
#define MBIAS_SIM_ATTRIBUTION_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hh"
#include "sim/config.hh"

namespace mbias::sim
{

/**
 * Per-set access/conflict/eviction counters for one set-indexed
 * structure (a cache level, or a TLB bucketed by VPN).
 *
 * Occupancy is mirrored here rather than read back from the cache:
 * for a cold-started, noise-free run the mirror is exact (a miss
 * either cold-fills an empty way or evicts the LRU line), and keeping
 * it outside the uarch components guarantees attribution can never
 * perturb their state.
 */
struct SetCounters
{
    unsigned sets = 0;
    unsigned ways = 0;

    std::vector<std::uint64_t> touches;   ///< accesses per set
    std::vector<std::uint64_t> misses;    ///< line/page fills per set
    std::vector<std::uint64_t> evictions; ///< fills past capacity per set

    void configure(unsigned set_count, unsigned way_count);
    void clear();

    void touch(std::size_t set) { ++touches[set]; }
    void miss(std::size_t set)
    {
        ++misses[set];
        if (occupancy_[set] < ways)
            ++occupancy_[set];
        else
            ++evictions[set];
    }

    std::uint64_t totalTouches() const;
    std::uint64_t totalMisses() const;
    std::uint64_t totalEvictions() const;

    /** Index of the set with the most misses (lowest index wins ties). */
    std::size_t hottestSet() const;

  private:
    std::vector<std::uint32_t> occupancy_; ///< live lines per set
};

/**
 * Per-entry aliasing counters for a PC-indexed prediction table (PHT
 * or BTB set).  Records which PCs collide in each entry — the concrete
 * mechanism behind link-order predictor bias — capped at a small
 * first-seen list per entry so memory stays O(table).
 */
struct TableCounters
{
    static constexpr unsigned kPcsPerEntry = 4;

    std::size_t entries = 0;

    std::vector<std::uint64_t> updates;       ///< accesses per entry
    std::vector<std::uint64_t> aliasSwitches; ///< accesses whose PC
                                              ///< differs from the last
    std::vector<Addr> pcs; ///< entries × kPcsPerEntry first-seen PCs
                           ///< (0 = empty slot)

    void configure(std::size_t entry_count);
    void clear();

    void record(std::size_t idx, Addr pc)
    {
        ++updates[idx];
        if (lastPc_[idx] != 0 && lastPc_[idx] != pc)
            ++aliasSwitches[idx];
        lastPc_[idx] = pc;
        Addr *slot = &pcs[idx * kPcsPerEntry];
        for (unsigned i = 0; i < kPcsPerEntry; ++i) {
            if (slot[i] == pc)
                return;
            if (slot[i] == 0) {
                slot[i] = pc;
                return;
            }
        }
    }

    /** Distinct PCs recorded for @p idx (saturates at kPcsPerEntry). */
    unsigned distinctPcs(std::size_t idx) const;

    std::uint64_t totalAliasSwitches() const;

    /** Entry with the most alias switches (lowest index wins ties). */
    std::size_t hottestEntry() const;

  private:
    std::vector<Addr> lastPc_; ///< 0 = no access yet
};

/**
 * Microarchitectural attribution for one run: which cache sets, TLB
 * buckets, and predictor entries the run's
 * events landed in.  This is the paper's missing microscope — two
 * runs of the same binary under different setups can be diffed
 * set-by-set to show *where* a layout change bites.
 *
 * Contract: attribution observes, never perturbs.  An attributed
 * Machine::run() takes the untraced plan loop with its observer policy
 * compiled in, whose hooks only append to these side structures;
 * RunResult stays bitwise identical with or without an Attribution
 * attached, and the tables themselves are pinned by digest (both
 * enforced by tests/sim/attribution_test.cc).
 *
 * TLBs are fully associative in this model (no sets), so "per-TLB-set
 * pressure" is modelled as VPN buckets: bucket = vpn & (sets - 1)
 * with ways = entries / sets.  Eviction counts there are a capacity
 * approximation by design; touch/miss counts are exact.
 */
struct Attribution
{
    SetCounters icache;
    SetCounters dcache;
    SetCounters itlb;
    SetCounters dtlb;
    TableCounters pht; ///< direction-predictor table, keyed by index
    TableCounters btb; ///< BTB *sets* (way conflicts are the mechanism)

    /** Number of VPN buckets used for each TLB. */
    static constexpr unsigned kTlbBuckets = 64;

    /** Sizes every structure to @p config and zeroes all counters. */
    void configure(const MachineConfig &config);

    /** Zeroes all counters, keeping the geometry. */
    void clear();

    /** Short deterministic text summary (totals + hottest set/entry
     *  per structure). */
    std::string str() const;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_ATTRIBUTION_HH
