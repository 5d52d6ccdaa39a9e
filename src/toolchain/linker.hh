#ifndef MBIAS_TOOLCHAIN_LINKER_HH
#define MBIAS_TOOLCHAIN_LINKER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"
#include "isa/module.hh"
#include "toolchain/linkorder.hh"

namespace mbias::toolchain
{

/**
 * One instruction placed at its final address: what the link decided
 * about it.  The instruction itself stays in the module set the
 * program was linked from (LinkedProgram::modules keeps it alive).
 */
struct PlacedInst
{
    const isa::Instruction *body = nullptr; ///< in the shared module set
    Addr pc = 0;

    /**
     * Branches, Jmp and Call: the resolved target as an index into
     * LinkedProgram::code.  La: the linked address of its global.
     * Unused (zero) otherwise.
     */
    std::uint32_t target = 0;
    std::uint8_t size = 0;

    /** The unlinked instruction (an La still names its global). */
    const isa::Instruction &inst() const { return *body; }

    /** The instruction as linked: an La becomes the Li of its
     *  global's address, everything else is inst(). */
    isa::Instruction resolved() const;
};

/** Layout record for one linked function. */
struct LinkedFunction
{
    const isa::Function *def = nullptr; ///< in the shared module set
    Addr base = 0;
    std::uint64_t bytes = 0;
    std::uint32_t entryIdx = 0; ///< index of the first instruction

    const std::string &name() const { return def->name(); }
};

/** Layout record for one linked global. */
struct LinkedGlobal
{
    const isa::GlobalData *def = nullptr; ///< in the shared module set
    Addr addr = 0;

    const std::string &name() const { return def->name; }
    std::uint64_t size() const { return def->size; }
    /** Initial bytes at addr (the rest of size() starts zeroed). */
    const std::vector<std::uint8_t> &init() const { return def->init; }
};

/** A module set shared by every program linked from it. */
using ModuleSetPtr = std::shared_ptr<const std::vector<isa::Module>>;

/**
 * A linked program is a layout over a shared module set: where each
 * instruction, function and global landed and what each reference
 * resolved to.  Instruction bodies and initial data bytes are read
 * from @c modules, so two link orders of one module set share all of
 * their code and data and differ only in these records.  A program's
 * initial memory is each global's init() at its addr, zero elsewhere.
 */
struct LinkedProgram
{
    /** The module set this program was linked from (kept alive here;
     *  every body/def pointer below points into it). */
    ModuleSetPtr modules;

    /** Placed instructions, in ascending pc order. */
    std::vector<PlacedInst> code;
    Addr codeBase = 0;
    Addr codeEnd = 0;

    std::vector<LinkedFunction> functions;

    std::vector<LinkedGlobal> globals;
    Addr dataBase = 0;
    Addr dataEnd = 0;

    /** Names of the modules in their linked order. */
    std::vector<std::string> moduleOrder;

    static constexpr std::uint32_t kNoIndex = ~std::uint32_t(0);

    /** Code index of the instruction placed at @p pc, or kNoIndex if
     *  no instruction starts there (binary search over code). */
    std::uint32_t indexAt(Addr pc) const;

    /** Layout of function @p name; panics if absent. */
    const LinkedFunction &function(const std::string &name) const;

    /** Entry instruction index of function @p name; panics if absent. */
    std::uint32_t entryOf(const std::string &name) const;

    /** Address of global @p name; panics if absent. */
    Addr globalAddr(const std::string &name) const;
};

/** Linker configuration. */
struct LinkerConfig
{
    Addr codeBase = 0x400000;
    /** Data is placed on the next page boundary after the code. */
    std::uint64_t dataPageAlign = 4096;
    std::uint64_t dataGap = 4096; ///< guard gap between code and data
};

/**
 * The µRISC static linker.  Places each module's functions and globals
 * in link order, honouring per-function alignment, and resolves label,
 * call, and global-address references.
 *
 * Link order changes code addresses, which changes I-cache sets,
 * branch-predictor indices, and fetch-block alignment — the paper's
 * Figure-1/2 bias mechanism.
 */
class Linker
{
  public:
    explicit Linker(LinkerConfig config = {});

    /**
     * Links @p modules in @p order.  Every Call/La symbol must resolve
     * and function/global names must be unique program-wide.
     */
    LinkedProgram link(ModuleSetPtr modules,
                       const LinkOrder &order = LinkOrder::asGiven()) const;

    /** Same, for a module set the program alone owns (a copy of an
     *  lvalue, or the moved rvalue). */
    LinkedProgram link(std::vector<isa::Module> modules,
                       const LinkOrder &order = LinkOrder::asGiven()) const;

  private:
    LinkerConfig config_;
};

} // namespace mbias::toolchain

#endif // MBIAS_TOOLCHAIN_LINKER_HH
