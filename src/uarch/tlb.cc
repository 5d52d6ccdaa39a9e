#include "uarch/tlb.hh"

#include "base/bitutils.hh"
#include "base/logging.hh"

namespace mbias::uarch
{

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    mbias_assert(isPowerOf2(config.pageBytes),
                 "page size must be a power of two");
    mbias_assert(config.entries >= 1, "TLB needs at least one entry");
    pageShift_ = floorLog2(config.pageBytes);
    vpns_.assign(config.entries, 0);
    valid_.assign(config.entries, false);
}

void
Tlb::reset()
{
    std::fill(valid_.begin(), valid_.end(), false);
    hits_ = misses_ = 0;
}

bool
Tlb::touchPage(std::uint64_t vpn)
{
    for (unsigned e = 0; e < config_.entries; ++e) {
        if (valid_[e] && vpns_[e] == vpn) {
            for (unsigned k = e; k > 0; --k) {
                vpns_[k] = vpns_[k - 1];
                valid_[k] = valid_[k - 1];
            }
            vpns_[0] = vpn;
            valid_[0] = true;
            ++hits_;
            return true;
        }
    }
    for (unsigned k = config_.entries - 1; k > 0; --k) {
        vpns_[k] = vpns_[k - 1];
        valid_[k] = valid_[k - 1];
    }
    vpns_[0] = vpn;
    valid_[0] = true;
    ++misses_;
    return false;
}

unsigned
Tlb::access(Addr addr, unsigned size)
{
    mbias_assert(size > 0, "zero-size TLB access");
    const std::uint64_t first = addr >> pageShift_;
    const std::uint64_t last = (addr + size - 1) >> pageShift_;
    unsigned miss_count = 0;
    if (!touchPage(first))
        ++miss_count;
    if (last != first && !touchPage(last))
        ++miss_count;
    return miss_count;
}

} // namespace mbias::uarch
