#include "sim/memory.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "toolchain/linker.hh"

namespace mbias::sim
{

SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    auto it = pages_.find(addr / page_bytes);
    return it == pages_.end() ? nullptr : &it->second;
}

SparseMemory::Page &
SparseMemory::touchPage(Addr addr)
{
    Page &p = pages_[addr / page_bytes];
    if (p.empty())
        p.assign(page_bytes, 0);
    return p;
}

std::uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    mbias_assert(size == 1 || size == 2 || size == 4 || size == 8,
                 "bad access size ", size);
    std::uint64_t v = 0;
    // Fast path: access within one page.
    const std::uint64_t off = addr % page_bytes;
    if (off + size <= page_bytes) {
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        for (unsigned i = 0; i < size; ++i)
            v |= std::uint64_t((*p)[off + i]) << (8 * i);
        return v;
    }
    for (unsigned i = 0; i < size; ++i) {
        const Page *p = findPage(addr + i);
        const std::uint8_t b =
            p ? (*p)[(addr + i) % page_bytes] : std::uint8_t(0);
        v |= std::uint64_t(b) << (8 * i);
    }
    return v;
}

void
SparseMemory::write(Addr addr, unsigned size, std::uint64_t value)
{
    mbias_assert(size == 1 || size == 2 || size == 4 || size == 8,
                 "bad access size ", size);
    const std::uint64_t off = addr % page_bytes;
    if (off + size <= page_bytes) {
        Page &p = touchPage(addr);
        for (unsigned i = 0; i < size; ++i)
            p[off + i] = std::uint8_t(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        touchPage(addr + i)[(addr + i) % page_bytes] =
            std::uint8_t(value >> (8 * i));
}

void
SparseMemory::writeBlock(Addr addr, const std::vector<std::uint8_t> &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        const Addr a = addr + done;
        const std::size_t off = a % page_bytes;
        const std::size_t n =
            std::min<std::size_t>(page_bytes - off, bytes.size() - done);
        std::memcpy(touchPage(a).data() + off, bytes.data() + done, n);
        done += n;
    }
}

std::uint8_t *
SparseMemory::pageData(Addr addr)
{
    return touchPage(addr).data();
}

const std::uint8_t *
SparseMemory::pageDataIfPresent(Addr addr) const
{
    const Page *p = findPage(addr);
    return p && !p->empty() ? p->data() : nullptr;
}

void
SparseMemory::clear()
{
    pages_.clear();
}

void
loadProgramData(SparseMemory &mem, const toolchain::LinkedProgram &prog)
{
    for (const auto &g : prog.globals)
        mem.writeBlock(g.addr, g.init());
}

} // namespace mbias::sim
