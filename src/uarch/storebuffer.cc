#include "uarch/storebuffer.hh"

#include "base/bitutils.hh"
#include "base/logging.hh"

namespace mbias::uarch
{

StoreBuffer::StoreBuffer(unsigned entries, unsigned alias_window_bits,
                         std::uint64_t max_age_insts)
    : entries_(entries), aliasMask_(mask(alias_window_bits)),
      maxAge_(max_age_insts)
{
    mbias_assert(entries >= 1, "store buffer needs an entry");
    ring_.assign(entries, Entry{});
}

void
StoreBuffer::reset()
{
    std::fill(ring_.begin(), ring_.end(), Entry{});
    head_ = 0;
}

void
StoreBuffer::recordStore(Addr addr, unsigned size, std::uint64_t icount)
{
    ring_[head_] = Entry{addr, size, icount, true};
    head_ = (head_ + 1) % entries_;
}

bool
StoreBuffer::loadAliases(Addr addr, unsigned size, std::uint64_t icount) const
{
    for (const Entry &e : ring_) {
        if (!e.valid || e.icount + maxAge_ < icount)
            continue;
        if ((e.addr & aliasMask_) != (addr & aliasMask_))
            continue;
        if (e.addr == addr && e.size >= size)
            return false; // clean store-to-load forwarding
        return true;      // false (or partial) alias: stall
    }
    return false;
}

} // namespace mbias::uarch
