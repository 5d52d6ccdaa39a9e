#include "sim/attribution.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace mbias::sim
{

void
SetCounters::configure(unsigned set_count, unsigned way_count)
{
    sets = set_count;
    ways = way_count;
    touches.assign(sets, 0);
    misses.assign(sets, 0);
    evictions.assign(sets, 0);
    occupancy_.assign(sets, 0);
}

void
SetCounters::clear()
{
    std::fill(touches.begin(), touches.end(), 0);
    std::fill(misses.begin(), misses.end(), 0);
    std::fill(evictions.begin(), evictions.end(), 0);
    std::fill(occupancy_.begin(), occupancy_.end(), 0);
}

std::uint64_t
SetCounters::totalTouches() const
{
    return std::accumulate(touches.begin(), touches.end(),
                           std::uint64_t(0));
}

std::uint64_t
SetCounters::totalMisses() const
{
    return std::accumulate(misses.begin(), misses.end(), std::uint64_t(0));
}

std::uint64_t
SetCounters::totalEvictions() const
{
    return std::accumulate(evictions.begin(), evictions.end(),
                           std::uint64_t(0));
}

std::size_t
SetCounters::hottestSet() const
{
    if (misses.empty())
        return 0;
    return std::size_t(std::max_element(misses.begin(), misses.end()) -
                       misses.begin());
}

void
TableCounters::configure(std::size_t entry_count)
{
    entries = entry_count;
    updates.assign(entries, 0);
    aliasSwitches.assign(entries, 0);
    pcs.assign(entries * kPcsPerEntry, 0);
    lastPc_.assign(entries, 0);
}

void
TableCounters::clear()
{
    std::fill(updates.begin(), updates.end(), 0);
    std::fill(aliasSwitches.begin(), aliasSwitches.end(), 0);
    std::fill(pcs.begin(), pcs.end(), 0);
    std::fill(lastPc_.begin(), lastPc_.end(), 0);
}

unsigned
TableCounters::distinctPcs(std::size_t idx) const
{
    const Addr *slot = &pcs[idx * kPcsPerEntry];
    unsigned n = 0;
    while (n < kPcsPerEntry && slot[n] != 0)
        ++n;
    return n;
}

std::uint64_t
TableCounters::totalAliasSwitches() const
{
    return std::accumulate(aliasSwitches.begin(), aliasSwitches.end(),
                           std::uint64_t(0));
}

std::size_t
TableCounters::hottestEntry() const
{
    if (aliasSwitches.empty())
        return 0;
    return std::size_t(std::max_element(aliasSwitches.begin(),
                                        aliasSwitches.end()) -
                       aliasSwitches.begin());
}

void
Attribution::configure(const MachineConfig &config)
{
    icache.configure(config.icache.sets, config.icache.ways);
    dcache.configure(config.dcache.sets, config.dcache.ways);

    const auto tlbBuckets = [](unsigned tlb_entries) {
        const unsigned buckets = std::min(kTlbBuckets, tlb_entries);
        return std::pair<unsigned, unsigned>(
            buckets, std::max(1u, tlb_entries / buckets));
    };
    const auto [ib, iw] = tlbBuckets(config.itlb.entries);
    itlb.configure(ib, iw);
    const auto [db, dw] = tlbBuckets(config.dtlb.entries);
    dtlb.configure(db, dw);

    pht.configure(std::size_t(1) << config.predictorTableBits);
    btb.configure(config.btbSets);
}

void
Attribution::clear()
{
    icache.clear();
    dcache.clear();
    itlb.clear();
    dtlb.clear();
    pht.clear();
    btb.clear();
}

std::string
Attribution::str() const
{
    char buf[256];
    std::string out;
    const auto setLine = [&](const char *name, const SetCounters &s) {
        std::snprintf(buf, sizeof buf,
                      "  %-6s sets=%-4u touches=%-10llu misses=%-8llu "
                      "evictions=%-8llu hottest=set %zu\n",
                      name, s.sets,
                      (unsigned long long)s.totalTouches(),
                      (unsigned long long)s.totalMisses(),
                      (unsigned long long)s.totalEvictions(),
                      s.hottestSet());
        out += buf;
    };
    const auto tblLine = [&](const char *name, const TableCounters &t) {
        const std::size_t hot = t.hottestEntry();
        std::snprintf(buf, sizeof buf,
                      "  %-6s entries=%-5zu alias-switches=%-8llu "
                      "hottest=entry %zu (%u pcs)\n",
                      name, t.entries,
                      (unsigned long long)t.totalAliasSwitches(), hot,
                      t.entries ? t.distinctPcs(hot) : 0);
        out += buf;
    };
    out += "attribution:\n";
    setLine("icache", icache);
    setLine("dcache", dcache);
    setLine("itlb", itlb);
    setLine("dtlb", dtlb);
    tblLine("pht", pht);
    tblLine("btb", btb);
    return out;
}

} // namespace mbias::sim
