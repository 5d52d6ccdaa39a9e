#ifndef MBIAS_UARCH_TLB_HH
#define MBIAS_UARCH_TLB_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace mbias::uarch
{

/** Geometry and penalty of a TLB. */
struct TlbConfig
{
    unsigned entries = 64;
    unsigned pageBytes = 4096;
    Cycles missPenalty = 30;
};

/**
 * Fully associative, LRU translation lookaside buffer.  The
 * environment-size factor moves the stack within and across pages, so
 * the number of distinct pages a frame touches — and hence DTLB
 * pressure — varies with a setup detail no paper reports.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /** Touches the page(s) covering [addr, addr+size); returns misses. */
    unsigned access(Addr addr, unsigned size);

    /** log2(pageBytes); lets the plan loop's shadow TLB shift. */
    unsigned pageShift() const { return pageShift_; }

    /** Invalidates all entries and clears statistics. */
    void reset();

    const TlbConfig &config() const { return config_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    bool touchPage(std::uint64_t vpn);

    TlbConfig config_;
    unsigned pageShift_;
    /** Virtual page numbers, most- to least-recently used. */
    std::vector<std::uint64_t> vpns_;
    std::vector<bool> valid_;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace mbias::uarch

#endif // MBIAS_UARCH_TLB_HH
