#include "sim/replay.hh"

#include <cstdlib>
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
    h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(k.program)));
    h.u64(k.gp);
    h.u64(k.heapBase);
    h.u64(k.entryIdx);
    h.u64(k.budget);
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
                   std::uint64_t budget)
{
    Key k;
    k.program = image.program.get();
    k.gp = image.gp;
    k.heapBase = image.heapBase;
    k.entryIdx = image.entryIdx;
    k.budget = budget;
    return k;
}

std::shared_ptr<const FunctionalTrace>
ReplayCache::find(const toolchain::ProcessImage &image,
                  std::uint64_t budget, bool *unrecordable)
{
    const auto entry = cache_.find(keyOf(image, budget));
    if (unrecordable)
        *unrecordable = entry && !entry->trace;
    return entry ? entry->trace : nullptr;
}

void
ReplayCache::insert(const toolchain::ProcessImage &image,
                    std::uint64_t budget,
                    std::shared_ptr<const FunctionalTrace> trace)
{
    mbias_assert(!trace || trace->matches(image, budget),
                 "inserting a replay trace that mismatches its own key");
    const std::uint64_t bytes =
        trace ? trace->approxBytes() : sizeof(Entry);
    cache_.insert(keyOf(image, budget), Entry{image.program, std::move(trace)},
                  bytes);
}

void
ReplayCache::noteRecord()
{
    records_.fetch_add(1, std::memory_order_relaxed);
}

void
ReplayCache::noteLanePass(std::uint64_t lanes)
{
    replays_.fetch_add(lanes, std::memory_order_relaxed);
    lanePasses_.fetch_add(1, std::memory_order_relaxed);
}

void
ReplayCache::noteFallback()
{
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
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
    s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    s.bytes = c.bytes;
    return s;
}

void
ReplayCache::clear()
{
    cache_.clear();
}

} // namespace mbias::sim
