#ifndef MBIAS_SIM_MEMORY_HH
#define MBIAS_SIM_MEMORY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/types.hh"

namespace mbias::toolchain
{
struct LinkedProgram;
}

namespace mbias::sim
{

/**
 * Sparse byte-addressable memory for the functional side of the
 * simulator.  Pages are allocated on first touch and zero-filled,
 * which matches anonymous-mapping semantics and lets workloads use
 * multi-megabyte zero-initialized globals cheaply.
 */
class SparseMemory
{
  public:
    static constexpr unsigned page_bytes = 4096;

    /** Reads @p size (1/2/4/8) bytes, little-endian, zero-extended. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Writes the low @p size bytes of @p value, little-endian. */
    void write(Addr addr, unsigned size, std::uint64_t value);

    /** Bulk-copies @p bytes into memory starting at @p addr (one page
     *  lookup and one copy per page). */
    void writeBlock(Addr addr, const std::vector<std::uint8_t> &bytes);

    /**
     * Raw data of the page containing @p addr, allocated (zero-filled)
     * if absent.  Fast-path accessor: the simulator's hot loop memoizes
     * the returned pointer per page, skipping the hash lookup that
     * read()/write() repeat on every access.  Pointers stay valid until
     * clear() — pages are never freed and a rehash moves only the
     * vector headers, not their heap buffers.
     */
    std::uint8_t *pageData(Addr addr);

    /** Same, without allocating: nullptr if the page was never
     *  touched (its bytes all read as zero). */
    const std::uint8_t *pageDataIfPresent(Addr addr) const;

    /** Releases all pages. */
    void clear();

    /** Number of pages currently allocated. */
    std::size_t pagesAllocated() const { return pages_.size(); }

  private:
    using Page = std::vector<std::uint8_t>;

    Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    mutable std::unordered_map<std::uint64_t, Page> pages_;
};

/**
 * Writes @p prog's initial data into @p mem: each global's init bytes
 * at its linked address (the rest of the segment reads as zero).  The
 * plan loop, record mode and the reference oracle all start a run's
 * memory from it.
 */
void loadProgramData(SparseMemory &mem, const toolchain::LinkedProgram &prog);

} // namespace mbias::sim

#endif // MBIAS_SIM_MEMORY_HH
