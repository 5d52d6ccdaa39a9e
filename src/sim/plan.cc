#include "sim/plan.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::sim
{

using isa::Opcode;

namespace
{

/** Simple = no memory access, no control flow. */
bool
isSimple(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Divu:
      case Opcode::Remu:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Sra:
      case Opcode::Slt:
      case Opcode::Sltu:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Srai:
      case Opcode::Slti:
      case Opcode::Li:
      case Opcode::Nop:
        return true;
      default:
        return false;
    }
}

bool
isControlFlow(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::Jmp:
      case Opcode::Call:
      case Opcode::Ret:
      case Opcode::Halt:
        return true;
      default:
        return false;
    }
}

bool
hasTarget(Opcode op)
{
    switch (op) {
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Bltu:
      case Opcode::Bgeu:
      case Opcode::Jmp:
      case Opcode::Call:
        return true;
      default:
        return false;
    }
}

} // namespace

std::shared_ptr<const ExecutionPlan>
ExecutionPlan::build(std::shared_ptr<const toolchain::LinkedProgram> program)
{
    mbias_assert(program, "cannot build a plan for a null program");
    const toolchain::LinkedProgram &prog = *program;
    const std::size_t n = prog.code.size();

    auto plan = std::make_shared<ExecutionPlan>();
    plan->codeBase = prog.codeBase;

    plan->ops.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const toolchain::PlacedInst &pi = prog.code[i];
        const isa::Instruction &in = pi.inst();
        // The fast interpreter jumps through a handler table indexed
        // by the opcode with no default case, so reject out-of-range
        // ops here rather than there.
        mbias_assert(std::size_t(in.op) < std::size_t(Opcode::NumOpcodes),
                     "bad opcode in linked program");
        DecodedOp &d = plan->ops[i];
        d.pc = pi.pc;
        d.op = in.op;
        d.imm = in.imm;
        d.targetIdx = pi.target;
        if (in.op == Opcode::La) {
            // Decoded as the Li of the global's linked address.
            d.op = Opcode::Li;
            d.imm = std::int64_t(pi.target);
            d.targetIdx = 0;
        }
        d.rd = in.rd;
        d.rs1 = in.rs1;
        d.rs2 = in.rs2;
        d.size = pi.size;
        d.accessSize = std::uint8_t(isa::memAccessSize(d.op));
    }

    // Simple-run lengths, in one backward pass: a run ends at the
    // first memory or control-flow instruction.
    std::uint32_t run = 0;
    for (std::size_t i = n; i-- > 0;) {
        DecodedOp &d = plan->ops[i];
        run = isSimple(d.op) ? std::min<std::uint32_t>(run + 1, 0xffff) : 0;
        d.runLen = std::uint16_t(run);
    }

    // Basic-block leaders: entries, control-flow targets, fall-throughs.
    std::vector<std::uint32_t> leaders;
    leaders.reserve(prog.functions.size() * 4 + 1);
    leaders.push_back(0);
    for (const auto &fn : prog.functions)
        leaders.push_back(fn.entryIdx);
    for (std::size_t i = 0; i < n; ++i) {
        const DecodedOp &d = plan->ops[i];
        if (hasTarget(d.op))
            leaders.push_back(d.targetIdx);
        if (isControlFlow(d.op) && i + 1 < n)
            leaders.push_back(std::uint32_t(i + 1));
    }
    std::sort(leaders.begin(), leaders.end());
    leaders.erase(std::unique(leaders.begin(), leaders.end()),
                  leaders.end());
    plan->blockStarts = std::move(leaders);

    // Return-address table over the code segment's byte range.
    mbias_assert(prog.codeEnd >= prog.codeBase, "bad code extent");
    plan->idxByOffset.assign(std::size_t(prog.codeEnd - prog.codeBase),
                             kNoIndex);
    for (std::size_t i = 0; i < n; ++i) {
        const Addr off = plan->ops[i].pc - prog.codeBase;
        mbias_assert(off < plan->idxByOffset.size(),
                     "instruction placed outside the code segment");
        plan->idxByOffset[std::size_t(off)] = std::uint32_t(i);
    }

    plan->program = std::move(program);
    return plan;
}

PlanCache::PlanCache(std::size_t capacity) : cache_(capacity) {}

PlanCache &
PlanCache::global()
{
    static PlanCache cache;
    return cache;
}

std::shared_ptr<const ExecutionPlan>
PlanCache::get(const std::shared_ptr<const toolchain::LinkedProgram> &program)
{
    mbias_assert(program, "plan lookup for a null program");
    return cache_.getOrBuild(program.get(), [&] {
        obs::ScopedSpan span("sim.plan_build", "sim");
        span.arg("insts", 0); // building retires nothing
        return std::pair(ExecutionPlan::build(program), std::uint64_t(1));
    });
}

PlanCache::Stats
PlanCache::stats() const
{
    const auto s = cache_.stats();
    return Stats{s.hits, s.misses, s.evictions};
}

void
PlanCache::clear()
{
    cache_.clear();
}

} // namespace mbias::sim
