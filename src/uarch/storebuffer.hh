#ifndef MBIAS_UARCH_STOREBUFFER_HH
#define MBIAS_UARCH_STOREBUFFER_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace mbias::uarch
{

/**
 * A small in-flight store queue that models the classic "4K aliasing"
 * false dependence: a load whose address matches an in-flight store in
 * the low 12 bits — but is actually a different line — is conservatively
 * stalled by the memory pipeline (notoriously expensive on the
 * Pentium 4).  Whether the stack and the globals collide modulo 4 KiB
 * depends on the environment size, which is precisely the paper's
 * env-size bias mechanism.
 *
 * Entries expire: a store only stays "in flight" for a bounded number
 * of subsequent instructions (it retires), so a load can alias only
 * with recent stores.
 */
class StoreBuffer
{
  public:
    /**
     * @p entries in-flight stores are tracked; @p alias_window_bits is
     * the number of low address bits compared (12 => 4 KiB aliasing);
     * @p max_age_insts is the instruction distance after which a store
     * counts as retired.
     */
    StoreBuffer(unsigned entries, unsigned alias_window_bits = 12,
                std::uint64_t max_age_insts = 40);

    /** Records a store to [addr, addr+size) at instruction @p icount. */
    void recordStore(Addr addr, unsigned size, std::uint64_t icount);

    /**
     * Checks a load at instruction @p icount against in-flight stores.
     * Returns true when the load falsely aliases (same low bits,
     * different address), which costs the machine's alias penalty.
     * Exact (same-address, covering) forwarding is free.
     */
    bool loadAliases(Addr addr, unsigned size, std::uint64_t icount) const;

    /** Drains all in-flight stores. */
    void reset();

    unsigned entries() const { return entries_; }
    std::uint64_t aliasMask() const { return aliasMask_; }
    std::uint64_t maxAge() const { return maxAge_; }

  private:
    struct Entry
    {
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t icount = 0;
        bool valid = false;
    };

    unsigned entries_;
    std::uint64_t aliasMask_;
    std::uint64_t maxAge_;
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
};

} // namespace mbias::uarch

#endif // MBIAS_UARCH_STOREBUFFER_HH
