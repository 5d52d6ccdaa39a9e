#include "uarch/branch.hh"

#include "base/bitutils.hh"
#include "base/logging.hh"

namespace mbias::uarch
{

// ---------------------------------------------------------------------
// BimodalPredictor
// ---------------------------------------------------------------------

BimodalPredictor::BimodalPredictor(unsigned table_bits)
    : tableBits_(table_bits)
{
    mbias_assert(table_bits >= 1 && table_bits <= 24,
                 "unreasonable bimodal table size");
    counters_.assign(std::size_t(1) << table_bits, 2); // weakly taken
}

void
BimodalPredictor::reset()
{
    std::fill(counters_.begin(), counters_.end(), 2);
}

// ---------------------------------------------------------------------
// GsharePredictor
// ---------------------------------------------------------------------

GsharePredictor::GsharePredictor(unsigned table_bits, unsigned history_bits)
    : tableBits_(table_bits), historyBits_(history_bits)
{
    mbias_assert(table_bits >= 1 && table_bits <= 24,
                 "unreasonable gshare table size");
    mbias_assert(history_bits <= table_bits,
                 "history longer than index");
    counters_.assign(std::size_t(1) << table_bits, 2);
}

void
GsharePredictor::reset()
{
    std::fill(counters_.begin(), counters_.end(), 2);
    history_ = 0;
}

// ---------------------------------------------------------------------
// Btb
// ---------------------------------------------------------------------

template <class A>
BasicBtb<A>::BasicBtb(unsigned sets, unsigned ways) : sets_(sets), ways_(ways)
{
    mbias_assert(isPowerOf2(sets), "BTB sets must be a power of two");
    mbias_assert(ways >= 1, "BTB needs at least one way");
    entries_.assign(std::size_t(sets) * ways, Entry{});
}

template <class A>
void
BasicBtb<A>::reset()
{
    std::fill(entries_.begin(), entries_.end(), Entry{});
    hits_ = misses_ = 0;
}

template class BasicBtb<Addr>;
template class BasicBtb<std::uint32_t>;

} // namespace mbias::uarch
