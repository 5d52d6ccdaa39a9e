#ifndef MBIAS_SIM_PLAN_HH
#define MBIAS_SIM_PLAN_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/lru_cache.hh"
#include "base/types.hh"
#include "isa/opcode.hh"
#include "toolchain/linker.hh"

namespace mbias::sim
{

/**
 * One pre-decoded instruction of an ExecutionPlan: the fields the
 * simulator's hot loop actually reads, packed into 40 bytes with no
 * indirection — where the linker's PlacedInst points at an
 * instruction body (with its std::string symbol, dead weight after
 * linking) in the module set.
 *
 * `op` doubles as the dispatch tag: µRISC opcodes are already a flat
 * uint8 enum, so it indexes the fast interpreter's direct-threaded
 * handler table with no re-decode (build() validates every op, since
 * threaded dispatch has no `default:` backstop).
 */
struct DecodedOp
{
    Addr pc = 0;            ///< placed address
    std::int64_t imm = 0;   ///< immediate / memory offset
    std::uint32_t targetIdx = 0; ///< resolved control-flow target
    isa::Opcode op = isa::Opcode::Nop;
    isa::Reg rd = 0;
    isa::Reg rs1 = 0;
    isa::Reg rs2 = 0;
    std::uint8_t size = 0;       ///< encoded bytes (fetch accounting)
    std::uint8_t accessSize = 0; ///< bytes moved by loads/stores

    /**
     * Length of the *simple run* starting here: the number of
     * consecutive ALU/Li/Nop instructions (this one included) with no
     * memory access and no control flow; 0 for non-simple
     * instructions, saturating at 65535.  Structural metadata (plan
     * tests and the throughput microbench report run/block shape); the
     * interpreter itself keys everything off `op`.
     */
    std::uint16_t runLen = 0;
};

static_assert(sizeof(DecodedOp) <= 40, "DecodedOp must stay dense");

/**
 * A per-program execution plan: everything the simulator can derive
 * from a LinkedProgram *once* instead of per run — decoded
 * instructions, straight-line basic blocks, and an O(1) return-address
 * table replacing the reference interpreter's per-Ret hash lookup.
 *
 * A plan is a pure function of the program: it contains nothing
 * derived from a MachineConfig, so one plan serves every machine model
 * and every (envBytes, aslr, ...) load of the program.  Address
 * alignment and page arithmetic — which *are* config-dependent — stay
 * inline in the fast loop, reduced to shifts/masks when the config's
 * line and page sizes are powers of two (they are, in every preset).
 *
 * The plan never influences simulated semantics or timing: the fast
 * interpreter performs the same component accesses in the same order
 * with the same arguments as the reference interpreter, so every
 * RunResult — cycles and all performance counters — is bitwise
 * identical (tests/sim/fastpath_differential_test.cc holds the line).
 */
struct ExecutionPlan
{
    std::vector<DecodedOp> ops;

    /**
     * Basic-block leader indices, ascending: instruction i starts a
     * block iff it is an entry point, a control-flow target, or the
     * fall-through successor of a control-flow instruction.
     */
    std::vector<std::uint32_t> blockStarts;

    /**
     * Return-address table: idxByOffset[pc - codeBase] is the code
     * index of the instruction placed at pc (kNoIndex between
     * instructions).  Semantically identical to the program's
     * indexAt() binary search, in O(1).
     */
    std::vector<std::uint32_t> idxByOffset;
    Addr codeBase = 0;

    static constexpr std::uint32_t kNoIndex =
        toolchain::LinkedProgram::kNoIndex;

    /** The decoded program; pins the pointer the plan was keyed by. */
    std::shared_ptr<const toolchain::LinkedProgram> program;

    /** Decodes @p program (shared so the plan can pin it). */
    static std::shared_ptr<const ExecutionPlan>
    build(std::shared_ptr<const toolchain::LinkedProgram> program);
};

/**
 * A small LRU cache of ExecutionPlans keyed by program identity (the
 * LinkedProgram's address), bounded by entry count.  Pointer keying is
 * sound because every entry pins its program's shared_ptr: a cached
 * key can never be freed and reallocated while the entry lives.  The
 * artifact cache hands all tasks of a campaign the *same* shared
 * program, so a whole env sweep decodes each side exactly once.
 *
 * The policy is LruCache's: thread-safe, plans build outside the lock,
 * and on racing misses the first insert wins (plans for one program
 * are interchangeable).  Hits, misses and evictions are counted once,
 * in stats(); a campaign books the difference over its run as
 * `sim.plan.*`.
 */
class PlanCache
{
  public:
    explicit PlanCache(std::size_t capacity = 64);

    /** The process-wide cache Machine::run uses. */
    static PlanCache &global();

    /** The plan for @p program, building it on a miss. */
    std::shared_ptr<const ExecutionPlan>
    get(const std::shared_ptr<const toolchain::LinkedProgram> &program);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    Stats stats() const;
    void clear();

  private:
    LruCache<const void *, std::shared_ptr<const ExecutionPlan>> cache_;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_PLAN_HH
