#include "uarch/cache.hh"

#include "base/bitutils.hh"
#include "base/logging.hh"

namespace mbias::uarch
{

Cache::Cache(const CacheConfig &config) : config_(config)
{
    mbias_assert(isPowerOf2(config.sets), "sets must be a power of two");
    mbias_assert(isPowerOf2(config.lineBytes),
                 "line size must be a power of two");
    mbias_assert(config.ways >= 1, "cache needs at least one way");
    setShift_ = floorLog2(config.lineBytes);
    setMask_ = config.sets - 1;
    tags_.assign(std::size_t(config.sets) * config.ways, 0);
    valid_.assign(tags_.size(), false);
}

void
Cache::reset()
{
    std::fill(valid_.begin(), valid_.end(), false);
    hits_ = misses_ = splits_ = 0;
}

void
Cache::invalidateSet(std::uint64_t set)
{
    const std::size_t base = std::size_t(set % config_.sets) * config_.ways;
    for (unsigned w = 0; w < config_.ways; ++w)
        valid_[base + w] = false;
}

bool
Cache::touchLine(Addr addr)
{
    const std::uint64_t set = (addr >> setShift_) & setMask_;
    const std::uint64_t tag = addr >> setShift_;
    const std::size_t base = std::size_t(set) * config_.ways;

    for (unsigned w = 0; w < config_.ways; ++w) {
        if (valid_[base + w] && tags_[base + w] == tag) {
            // Move to MRU position.
            for (unsigned k = w; k > 0; --k) {
                tags_[base + k] = tags_[base + k - 1];
                valid_[base + k] = valid_[base + k - 1];
            }
            tags_[base] = tag;
            valid_[base] = true;
            ++hits_;
            return true;
        }
    }
    // Miss: install at MRU, evicting LRU.
    for (unsigned k = config_.ways - 1; k > 0; --k) {
        tags_[base + k] = tags_[base + k - 1];
        valid_[base + k] = valid_[base + k - 1];
    }
    tags_[base] = tag;
    valid_[base] = true;
    ++misses_;
    return false;
}

Cache::Result
Cache::access(Addr addr, unsigned size)
{
    mbias_assert(size > 0, "zero-size cache access");
    Result r;
    const Addr first = alignDown(addr, config_.lineBytes);
    const Addr last = alignDown(addr + size - 1, config_.lineBytes);
    if (!touchLine(first))
        ++r.misses;
    if (last != first) {
        r.split = true;
        ++splits_;
        if (!touchLine(last))
            ++r.misses;
    }
    return r;
}

bool
Cache::accessLine(Addr addr)
{
    return touchLine(alignDown(addr, config_.lineBytes));
}

} // namespace mbias::uarch
