#ifndef MBIAS_UARCH_BRANCH_HH
#define MBIAS_UARCH_BRANCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/bitutils.hh"
#include "base/types.hh"

namespace mbias::uarch
{

/**
 * Direction predictor interface.  Predictors index prediction tables
 * with (hashed) branch addresses, so distinct branches can alias — and
 * *which* branches alias depends on where the linker put them.  That
 * address dependence is one of the causal mechanisms behind link-order
 * measurement bias.
 */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predicted direction for the branch at @p pc. */
    virtual bool predict(Addr pc) const = 0;

    /** Trains the predictor with the resolved direction. */
    virtual void update(Addr pc, bool taken) = 0;

    /** Clears all state. */
    virtual void reset() = 0;

    /**
     * Table entry the branch at @p pc currently indexes (for history-
     * folding predictors this depends on the live history, so call it
     * at prediction time).  Read-only: attribution uses it to name the
     * entries where distinct branches collide.
     */
    virtual std::size_t tableIndex(Addr pc) const = 0;

    /** Number of table entries. */
    virtual std::size_t tableSize() const = 0;
};

/**
 * Classic 2-bit-counter bimodal predictor.  Final, with predict() and
 * update() defined here and always inlined: the simulator's plan loop
 * resolves the concrete predictor once per run and runs them in its
 * branch handlers, without a call, let alone the per-branch virtual
 * dispatch.
 */
class BimodalPredictor final : public BranchPredictor
{
  public:
    /** @p table_bits log2 of the number of counters. */
    explicit BimodalPredictor(unsigned table_bits);

    __attribute__((always_inline)) bool predict(Addr pc) const override
    {
        return counters_[index(pc)] >= 2;
    }
    __attribute__((always_inline)) void update(Addr pc, bool taken) override
    {
        std::uint8_t &c = counters_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }
    void reset() override;
    std::size_t tableIndex(Addr pc) const override { return index(pc); }
    std::size_t tableSize() const override { return counters_.size(); }

  private:
    std::size_t index(Addr pc) const
    {
        // Variable-length ISA: no bits are guaranteed zero, use the
        // low bits directly (as real fetch-address-indexed tables do).
        return std::size_t(pc ^ (pc >> tableBits_)) & mask(tableBits_);
    }

    unsigned tableBits_;
    std::vector<std::uint8_t> counters_;
};

/** Gshare: global history XOR-folded into the table index.  Final
 *  for the same reason as BimodalPredictor. */
class GsharePredictor final : public BranchPredictor
{
  public:
    GsharePredictor(unsigned table_bits, unsigned history_bits);

    __attribute__((always_inline)) bool predict(Addr pc) const override
    {
        return counters_[index(pc)] >= 2;
    }
    __attribute__((always_inline)) void update(Addr pc, bool taken) override
    {
        std::uint8_t &c = counters_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }
    void reset() override;
    std::size_t tableIndex(Addr pc) const override { return index(pc); }
    std::size_t tableSize() const override { return counters_.size(); }

  private:
    std::size_t index(Addr pc) const
    {
        const std::uint64_t h = history_ & mask(historyBits_);
        return std::size_t((pc ^ (pc >> tableBits_) ^ h)) & mask(tableBits_);
    }

    unsigned tableBits_;
    unsigned historyBits_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> counters_;
};

/**
 * Branch target buffer: a set-associative cache of branch target
 * addresses.  A taken control transfer whose target is absent costs a
 * fetch bubble.  lookupAndUpdate() is always inlined, like the
 * predictors' hot pair.
 *
 * @p A is the type the entries hold addresses in: Addr for the
 * machine's own BTB (Btb), and 32 bits where every code address of a
 * run fits them, so that many BTBs side by side (a lane pass's code
 * classes) take a third of the memory.  An entry whose pc is ~A(0) is
 * empty: no instruction is ever placed at the last address.
 */
template <class A>
class BasicBtb
{
  public:
    BasicBtb(unsigned sets, unsigned ways);

    /** True iff pc hits with the correct target; updates the entry. */
    __attribute__((always_inline)) bool lookupAndUpdate(A pc, A target)
    {
        const std::size_t set = std::size_t(pc ^ (pc >> 16)) & (sets_ - 1);
        const std::size_t base = set * ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            Entry &e = entries_[base + w];
            if (e.pc == pc) {
                const bool correct = e.target == target;
                // Move to MRU and refresh the target.
                Entry updated = e;
                updated.target = target;
                for (unsigned k = w; k > 0; --k)
                    entries_[base + k] = entries_[base + k - 1];
                entries_[base] = updated;
                if (correct) {
                    ++hits_;
                    return true;
                }
                ++misses_;
                return false;
            }
        }
        // Install at MRU.
        for (unsigned k = ways_ - 1; k > 0; --k)
            entries_[base + k] = entries_[base + k - 1];
        entries_[base] = Entry{pc, target};
        ++misses_;
        return false;
    }

    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Set the control transfer at @p pc maps to (for attribution). */
    std::size_t setIndex(A pc) const
    {
        return std::size_t(pc ^ (pc >> 16)) & (sets_ - 1);
    }

    unsigned sets() const { return sets_; }

  private:
    struct Entry
    {
        A pc = ~A(0); ///< ~0: empty
        A target = 0;
    };

    unsigned sets_;
    unsigned ways_;
    std::vector<Entry> entries_; ///< MRU-ordered within each set

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/** The machine's BTB, over full addresses. */
using Btb = BasicBtb<Addr>;

} // namespace mbias::uarch

#endif // MBIAS_UARCH_BRANCH_HH
