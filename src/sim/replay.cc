#include "sim/replay.hh"

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <cstring>

#include "base/hash.hh"
#include "base/logging.hh"
#include "sim/machine.hh"

namespace mbias::sim
{

bool
replayDisabledByEnv()
{
    const char *env = std::getenv("MBIAS_SIM_REPLAY");
    return env && std::strcmp(env, "0") == 0;
}

bool
replayTierUsable(const Machine &machine)
{
    return machine.useFastPath() && !replayDisabledByEnv() &&
           !referenceForcedByEnv();
}

bool
sameDataLayout(const toolchain::LinkedProgram &a,
               const toolchain::LinkedProgram &b)
{
    if (a.modules != b.modules || a.dataBase != b.dataBase ||
        a.dataEnd != b.dataEnd || a.globals.size() != b.globals.size())
        return false;
    // Globals are placed module by module in link order: compare them
    // by definition, not by position.
    using Placed = std::pair<const isa::GlobalData *, Addr>;
    const auto placed = [](const toolchain::LinkedProgram &p) {
        std::vector<Placed> out;
        out.reserve(p.globals.size());
        for (const toolchain::LinkedGlobal &g : p.globals)
            out.emplace_back(g.def, g.addr);
        std::sort(out.begin(), out.end());
        return out;
    };
    return placed(a) == placed(b);
}

std::uint32_t
mapCodeIndex(const toolchain::LinkedProgram &from,
             const toolchain::LinkedProgram &to, std::uint32_t idx)
{
    mbias_assert(from.modules == to.modules,
                 "mapping a code index across module sets");
    if (&from == &to)
        return idx;
    // The function holding idx: the last one starting at or before it.
    const auto after = [](std::uint32_t i,
                          const toolchain::LinkedFunction &lf) {
        return i < lf.entryIdx;
    };
    const auto f = std::upper_bound(from.functions.begin(),
                                    from.functions.end(), idx, after) -
                   1;
    for (const toolchain::LinkedFunction &lf : to.functions)
        if (lf.def == f->def)
            return lf.entryIdx + (idx - f->entryIdx);
    mbias_panic("function ", f->name(), " missing from a link of its "
                "module set");
}

bool
FunctionalTrace::servesLayout(const toolchain::LinkedProgram &p) const
{
    return &p == program.get() ||
           (!codeVisible && sameDataLayout(*program, p));
}

bool
FunctionalTrace::matches(const toolchain::ProcessImage &image,
                         std::uint64_t max_insts) const
{
    return !aborted && budget == max_insts && gp == image.gp &&
           heapBase == image.heapBase &&
           (!resultOnStack || image.initialSp == recordedSp) &&
           servesLayout(image.prog()) &&
           mapCodeIndex(*program, image.prog(), entryIdx) == image.entryIdx;
}

std::uint64_t
FunctionalTrace::approxBytes() const
{
    return sizeof(*this) + branchBits.capacity() * sizeof(std::uint64_t) +
           retTargets.capacity() * sizeof(std::uint32_t) +
           memAddrs.capacity() * sizeof(Addr);
}

std::size_t
ReplayCache::KeyHash::operator()(const Key &k) const
{
    Fnv1a h;
    h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(k.modules)));
    h.u64(k.dataLayout);
    h.u64(k.gp);
    h.u64(k.heapBase);
    h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(k.entry)));
    h.u64(k.budget);
    h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(k.link)));
    return std::size_t(h.value());
}

ReplayCache::ReplayCache(std::size_t capacity) : cache_(capacity) {}

ReplayCache &
ReplayCache::global()
{
    static ReplayCache cache;
    return cache;
}

ReplayCache::Key
ReplayCache::keyOf(const toolchain::ProcessImage &image,
                   std::uint64_t budget, bool own_link)
{
    const toolchain::LinkedProgram &prog = image.prog();
    Key k;
    k.modules = prog.modules.get();
    // Order-free over the globals, which link order permutes; matches()
    // makes the exact check.
    k.dataLayout = prog.dataEnd;
    for (const toolchain::LinkedGlobal &g : prog.globals) {
        Fnv1a h;
        h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(g.def)));
        h.u64(g.addr);
        k.dataLayout += h.value();
    }
    k.gp = image.gp;
    k.heapBase = image.heapBase;
    k.entry = prog.code.at(image.entryIdx).body;
    k.budget = budget;
    if (own_link)
        k.link = image.program.get();
    return k;
}

std::shared_ptr<const FunctionalTrace>
ReplayCache::find(const toolchain::ProcessImage &image,
                  std::uint64_t budget, bool *unrecordable, bool own_link)
{
    const auto entry = cache_.find(keyOf(image, budget, own_link));
    if (unrecordable)
        *unrecordable = entry && !entry->trace;
    if (!entry || !entry->trace || !entry->trace->matches(image, budget))
        return nullptr;
    return entry->trace;
}

void
ReplayCache::insert(const toolchain::ProcessImage &image,
                    std::uint64_t budget,
                    std::shared_ptr<const FunctionalTrace> trace,
                    bool own_link)
{
    mbias_assert(!trace || trace->matches(image, budget),
                 "inserting a replay trace that mismatches its own key");
    const std::uint64_t bytes =
        trace ? trace->approxBytes() : sizeof(Entry);
    cache_.insert(keyOf(image, budget, own_link),
                  Entry{image.program, std::move(trace)}, bytes);
}

void
ReplayCache::noteRecord()
{
    records_.fetch_add(1, std::memory_order_relaxed);
}

void
ReplayCache::noteLanePass(std::uint64_t lanes, std::uint64_t code_classes,
                          std::uint64_t lane_accesses,
                          std::uint64_t diverged_accesses,
                          std::uint64_t class_decisions)
{
    replays_.fetch_add(lanes, std::memory_order_relaxed);
    lanePasses_.fetch_add(1, std::memory_order_relaxed);
    codeClasses_.fetch_add(code_classes, std::memory_order_relaxed);
    laneAccesses_.fetch_add(lane_accesses, std::memory_order_relaxed);
    divergedAccesses_.fetch_add(diverged_accesses, std::memory_order_relaxed);
    classDecisions_.fetch_add(class_decisions, std::memory_order_relaxed);
}

void
ReplayCache::noteFallback()
{
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

void
ReplayCache::noteLayoutFallback()
{
    layoutFallbacks_.fetch_add(1, std::memory_order_relaxed);
}

ReplayCache::Stats
ReplayCache::stats() const
{
    const auto c = cache_.stats();
    Stats s;
    s.hits = c.hits;
    s.misses = c.misses;
    s.evictions = c.evictions;
    s.records = records_.load(std::memory_order_relaxed);
    s.replays = replays_.load(std::memory_order_relaxed);
    s.lanePasses = lanePasses_.load(std::memory_order_relaxed);
    s.codeClasses = codeClasses_.load(std::memory_order_relaxed);
    s.laneAccesses = laneAccesses_.load(std::memory_order_relaxed);
    s.divergedAccesses = divergedAccesses_.load(std::memory_order_relaxed);
    s.classDecisions = classDecisions_.load(std::memory_order_relaxed);
    s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    s.layoutFallbacks = layoutFallbacks_.load(std::memory_order_relaxed);
    s.bytes = c.bytes;
    return s;
}

void
ReplayCache::clear()
{
    cache_.clear();
}

} // namespace mbias::sim
