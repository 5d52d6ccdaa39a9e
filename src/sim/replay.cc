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
    return machine.useFastPath() && machine.useReplayPath() &&
           machine.tierSupport().replay && !replayDisabledByEnv() &&
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

ReplayCache::ReplayCache(std::size_t capacity) : capacity_(capacity)
{
    mbias_assert(capacity > 0, "replay cache capacity must be nonzero");
}

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

namespace
{

void
bump(const std::atomic<obs::Counter *> &c, std::uint64_t by = 1)
{
    if (obs::Counter *counter = c.load(std::memory_order_relaxed))
        counter->add(by);
}

} // namespace

std::shared_ptr<const FunctionalTrace>
ReplayCache::find(const toolchain::ProcessImage &image,
                  std::uint64_t budget, bool *unrecordable)
{
    if (unrecordable)
        *unrecordable = false;
    const Key key = keyOf(image, budget);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = map_.find(key);
    if (it == map_.end()) {
        ++misses_;
        bump(cMisses_);
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    bump(cHits_);
    if (!it->second->second.trace && unrecordable)
        *unrecordable = true;
    return it->second->second.trace;
}

void
ReplayCache::insert(const toolchain::ProcessImage &image,
                    std::uint64_t budget,
                    std::shared_ptr<const FunctionalTrace> trace)
{
    mbias_assert(!trace || trace->matches(image, budget),
                 "inserting a replay trace that mismatches its own key");
    const Key key = keyOf(image, budget);
    Entry entry;
    entry.pin = image.program;
    entry.trace = std::move(trace);
    const std::uint64_t entry_bytes =
        entry.trace ? entry.trace->approxBytes() : sizeof(Entry);

    std::lock_guard<std::mutex> lock(mutex_);
    if (map_.find(key) != map_.end())
        return; // first insert wins; racing recorders produce equal traces
    bytes_ += entry_bytes;
    lru_.emplace_front(key, std::move(entry));
    map_.emplace(key, lru_.begin());
    while (map_.size() > capacity_) {
        const Entry &victim = lru_.back().second;
        bytes_ -= victim.trace ? victim.trace->approxBytes()
                               : std::uint64_t(sizeof(Entry));
        map_.erase(lru_.back().first);
        lru_.pop_back();
        ++evictions_;
        bump(cEvictions_);
    }
}

void
ReplayCache::noteRecord()
{
    records_.fetch_add(1, std::memory_order_relaxed);
    bump(cRecords_);
}

void
ReplayCache::noteLanePass(std::uint64_t lanes)
{
    replays_.fetch_add(lanes, std::memory_order_relaxed);
    lanePasses_.fetch_add(1, std::memory_order_relaxed);
    bump(cReplays_, lanes);
    bump(cLanePasses_);
}

void
ReplayCache::noteFallback()
{
    fallbacks_.fetch_add(1, std::memory_order_relaxed);
    bump(cFallbacks_);
}

void
ReplayCache::attachMetrics(obs::Registry *metrics)
{
    std::lock_guard<std::mutex> lock(metricsMutex_);
    if (!metrics) {
        cHits_ = nullptr;
        cMisses_ = nullptr;
        cEvictions_ = nullptr;
        cRecords_ = nullptr;
        cReplays_ = nullptr;
        cLanePasses_ = nullptr;
        cFallbacks_ = nullptr;
        return;
    }
    cHits_ = &metrics->counter("sim.replay.hits");
    cMisses_ = &metrics->counter("sim.replay.misses");
    cEvictions_ = &metrics->counter("sim.replay.evictions");
    cRecords_ = &metrics->counter("sim.replay.records");
    cReplays_ = &metrics->counter("sim.replay.replays");
    cLanePasses_ = &metrics->counter("sim.replay.lane_passes");
    cFallbacks_ = &metrics->counter("sim.replay.fallbacks");
}

ReplayCache::Stats
ReplayCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.records = records_.load(std::memory_order_relaxed);
    s.replays = replays_.load(std::memory_order_relaxed);
    s.lanePasses = lanePasses_.load(std::memory_order_relaxed);
    s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    s.bytes = bytes_;
    return s;
}

void
ReplayCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
    bytes_ = 0;
}

} // namespace mbias::sim
