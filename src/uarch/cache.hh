#ifndef MBIAS_UARCH_CACHE_HH
#define MBIAS_UARCH_CACHE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace mbias::uarch
{

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    unsigned sets = 64;
    unsigned ways = 8;
    unsigned lineBytes = 64;
    Cycles hitLatency = 3;    ///< charged on loads (pipelined for code)
    Cycles missPenalty = 12;  ///< additional cycles to the next level

    std::uint64_t capacityBytes() const
    {
        return std::uint64_t(sets) * ways * lineBytes;
    }
};

/**
 * A set-associative, write-allocate, LRU cache model.
 *
 * Only tags are modelled (data values live in the simulator's
 * functional memory).  Placement is purely address-indexed, which is
 * what makes the model sensitive to code and data layout: two hot
 * objects whose addresses share index bits conflict, and whether they
 * do depends on link order and stack placement.
 */
class Cache
{
  public:
    /** Outcome of one access. */
    struct Result
    {
        unsigned misses = 0; ///< 0, 1, or 2 (line-crossing access)
        bool split = false;  ///< the access crossed a line boundary
    };

    explicit Cache(const CacheConfig &config);

    /**
     * Touches [addr, addr+size); returns how many distinct line fills
     * were needed and whether the access straddled two lines.
     */
    Result access(Addr addr, unsigned size);

    /** Touches a single line (instruction-fetch style). */
    bool accessLine(Addr addr); ///< returns true on hit

    /** Invalidates all lines and clears statistics. */
    void reset();

    /** Invalidates one set (index modulo the set count); models the
     *  cache pollution of an OS interrupt handler. */
    void invalidateSet(std::uint64_t set);

    /** Number of sets (for external eviction choices). */
    unsigned sets() const { return config_.sets; }

    /** Set the address maps to (for external attribution). */
    std::size_t setIndex(Addr addr) const
    {
        return std::size_t((addr >> setShift_) & setMask_);
    }

    const CacheConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t splits() const { return splits_; }

  private:
    bool touchLine(Addr line_addr); ///< returns true on hit

    CacheConfig config_;
    unsigned setShift_;
    std::uint64_t setMask_;

    /** tags_[set * ways + way]; ways ordered most- to least-recent. */
    std::vector<std::uint64_t> tags_;
    std::vector<bool> valid_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t splits_ = 0;
};

} // namespace mbias::uarch

#endif // MBIAS_UARCH_CACHE_HH
