#ifndef MBIAS_TOOLCHAIN_LOADER_HH
#define MBIAS_TOOLCHAIN_LOADER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "toolchain/linker.hh"

namespace mbias::toolchain
{

/**
 * Loader configuration.  @c envBytes is the paper's first "innocuous"
 * setup factor: on UNIX the environment strings are copied to the top
 * of the stack, so their total size shifts the initial stack pointer —
 * and with it the alignment and cache-set placement of every stack
 * access the program ever makes.
 */
struct LoaderConfig
{
    /** Total size of the environment block, in bytes. */
    std::uint64_t envBytes = 0;

    /**
     * Alignment the OS guarantees for the initial stack pointer.  Small
     * on purpose (the historical 32-bit SysV ABI guaranteed only 4):
     * a coarser guarantee would mask part of the env-size effect.
     */
    std::uint64_t spAlign = 4;

    /** Top of the stack region. */
    Addr stackTop = 0x7ff0'0000'0000;

    /** Bytes reserved between env block and initial sp (argv/auxv). */
    std::uint64_t argvReserve = 64;

    /** Guard gap between the data segment and the heap. */
    std::uint64_t heapGap = 4096;

    /**
     * Stack address-space randomization: when nonzero, the stack
     * region is shifted down by a seed-derived offset (up to ~16 KiB
     * in 4-byte steps, so alignment classes are resampled too) before
     * the environment is placed, like a kernel's stack ASLR.  Randomizing this *per run* is the
     * Stabilizer-style remedy this paper inspired: each run samples a
     * fresh layout, turning bias into visible variance that averaging
     * can remove.
     */
    std::uint64_t aslrSeed = 0;

    bool operator==(const LoaderConfig &) const = default;
};

/**
 * A process ready to run: the linked program plus the memory layout
 * decisions the loader made (stack placement, heap base, global
 * pointer).
 *
 * The program is held by shared_ptr and never copied per image: many
 * images (one per environment size, say) can share one immutable
 * linked program, which is what lets the artifact cache hand the same
 * link result to every task of an env sweep — and what gives the
 * simulator's execution-plan cache a stable identity to key on.
 */
struct ProcessImage
{
    std::shared_ptr<const LinkedProgram> program;
    LoaderConfig loaderConfig;

    Addr initialSp = 0; ///< stack pointer at entry
    Addr stackTop = 0;  ///< top of the stack region
    Addr heapBase = 0;  ///< first heap address
    Addr gp = 0;        ///< global pointer (= program.dataBase)

    /** Entry instruction index ("main"). */
    std::uint32_t entryIdx = 0;

    /** The linked program (must be loaded). */
    const LinkedProgram &prog() const { return *program; }

    /** Offset of the initial sp within a 4 KiB page. */
    std::uint64_t spPageOffset() const { return initialSp & 0xfff; }
};

/**
 * The program loader: computes the process memory image for a linked
 * program under a given environment size, mirroring how execve() builds
 * a stack on UNIX.
 */
class Loader
{
  public:
    /** Builds the image; @p entry names the entry function. */
    static ProcessImage load(LinkedProgram program,
                             const LoaderConfig &config = {},
                             const std::string &entry = "main");

    /**
     * Same, over an already-shared program: the image references
     * @p program instead of copying it.  This is the overload the
     * artifact cache uses — loading is then pure layout arithmetic,
     * no O(code size) work.
     */
    static ProcessImage load(std::shared_ptr<const LinkedProgram> program,
                             const LoaderConfig &config = {},
                             const std::string &entry = "main");
};

} // namespace mbias::toolchain

#endif // MBIAS_TOOLCHAIN_LOADER_HH
