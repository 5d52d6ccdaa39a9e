#include "toolchain/linker.hh"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "base/bitutils.hh"
#include "base/logging.hh"

namespace mbias::toolchain
{

using isa::Instruction;
using isa::Module;
using isa::Opcode;

Instruction
PlacedInst::resolved() const
{
    Instruction in = inst();
    if (in.op == Opcode::La) {
        in.op = Opcode::Li;
        in.imm = std::int64_t(target);
        in.sym.clear();
    }
    return in;
}

std::uint32_t
LinkedProgram::indexAt(Addr pc) const
{
    auto it = std::lower_bound(
        code.begin(), code.end(), pc,
        [](const PlacedInst &pi, Addr a) { return pi.pc < a; });
    if (it == code.end() || it->pc != pc)
        return kNoIndex;
    return std::uint32_t(it - code.begin());
}

const LinkedFunction &
LinkedProgram::function(const std::string &name) const
{
    for (const auto &lf : functions)
        if (lf.name() == name)
            return lf;
    mbias_panic("no such function: ", name);
}

std::uint32_t
LinkedProgram::entryOf(const std::string &name) const
{
    return function(name).entryIdx;
}

Addr
LinkedProgram::globalAddr(const std::string &name) const
{
    for (const auto &g : globals)
        if (g.name() == name)
            return g.addr;
    mbias_panic("no such global: ", name);
}

Linker::Linker(LinkerConfig config) : config_(config) {}

LinkedProgram
Linker::link(std::vector<Module> modules, const LinkOrder &order) const
{
    return link(std::make_shared<const std::vector<Module>>(
                    std::move(modules)),
                order);
}

LinkedProgram
Linker::link(ModuleSetPtr module_set, const LinkOrder &order) const
{
    mbias_assert(module_set, "cannot link a null module set");
    const std::vector<Module> &modules = *module_set;
    LinkedProgram prog;
    prog.codeBase = config_.codeBase;

    std::vector<std::string> names;
    names.reserve(modules.size());
    std::size_t num_insts = 0, num_functions = 0, num_globals = 0;
    for (const auto &m : modules) {
        names.push_back(m.name());
        for (const auto &f : m.functions())
            num_insts += f.insts().size();
        num_functions += m.functions().size();
        num_globals += m.globals().size();
    }
    const auto perm = order.permutation(names);
    prog.moduleOrder.reserve(perm.size());
    for (std::size_t p : perm)
        prog.moduleOrder.push_back(names[p]);
    prog.code.reserve(num_insts);
    prog.functions.reserve(num_functions);
    prog.globals.reserve(num_globals);

    // Symbol tables for resolution; the names live in the module set.
    std::unordered_map<std::string_view, std::uint32_t> function_by_name;
    std::unordered_map<std::string_view, std::uint32_t> global_by_name;

    // ---- pass 1: place code ----
    Addr cur = prog.codeBase;
    for (std::size_t p : perm) {
        for (const auto &f : modules[p].functions()) {
            mbias_assert(isPowerOf2(f.alignment()),
                         "function alignment must be a power of two");
            cur = alignUp(cur, f.alignment());
            LinkedFunction lf;
            lf.def = &f;
            lf.base = cur;
            lf.entryIdx = std::uint32_t(prog.code.size());
            mbias_assert(function_by_name
                             .emplace(f.name(),
                                      std::uint32_t(prog.functions.size()))
                             .second,
                         "duplicate function ", f.name());
            for (const auto &inst : f.insts()) {
                PlacedInst pi;
                pi.body = &inst;
                pi.pc = cur;
                pi.size = std::uint8_t(inst.encodedSize());
                prog.code.push_back(pi);
                cur += pi.size;
            }
            lf.bytes = cur - lf.base;
            prog.functions.push_back(lf);
        }
    }
    prog.codeEnd = cur;

    // ---- pass 1b: place data ----
    prog.dataBase = alignUp(prog.codeEnd + config_.dataGap,
                            config_.dataPageAlign);
    Addr dcur = prog.dataBase;
    for (std::size_t p : perm) {
        for (const auto &g : modules[p].globals()) {
            mbias_assert(isPowerOf2(g.alignment),
                         "global alignment must be a power of two");
            dcur = alignUp(dcur, g.alignment);
            mbias_assert(global_by_name
                             .emplace(g.name,
                                      std::uint32_t(prog.globals.size()))
                             .second,
                         "duplicate global ", g.name);
            prog.globals.push_back({&g, dcur});
            dcur += g.size;
        }
    }
    prog.dataEnd = dcur;

    // ---- pass 2: resolve references ----
    for (const LinkedFunction &lf : prog.functions) {
        const isa::Function &f = *lf.def;
        for (std::size_t i = 0; i < f.insts().size(); ++i) {
            PlacedInst &pi = prog.code[lf.entryIdx + i];
            const Instruction &in = pi.inst();
            switch (isa::opClass(in.op)) {
              case isa::OpClass::CondBranch:
              case isa::OpClass::Jump: {
                  const std::uint32_t t = f.labelTarget(in.target);
                  mbias_assert(t <= f.insts().size(),
                               "label beyond function in ", f.name());
                  mbias_assert(t < f.insts().size(),
                               "branch to end-of-function in ", f.name(),
                               " (must target an instruction)");
                  pi.target = lf.entryIdx + t;
                  break;
              }
              case isa::OpClass::Call: {
                  auto it = function_by_name.find(in.sym);
                  mbias_assert(it != function_by_name.end(),
                               "unresolved call to ", in.sym, " from ",
                               f.name());
                  pi.target = prog.functions[it->second].entryIdx;
                  break;
              }
              default:
                if (in.op == Opcode::La) {
                    auto it = global_by_name.find(in.sym);
                    mbias_assert(it != global_by_name.end(),
                                 "unresolved global ", in.sym, " in ",
                                 f.name());
                    // An La executes as the Li of its global's
                    // address.  The encoded size must not change (both
                    // are 6 bytes for 32-bit immediates); data
                    // addresses always fit.
                    const Addr a = prog.globals[it->second].addr;
                    mbias_assert(a <= 0x7fffffff,
                                 "data address exceeds La encoding");
                    pi.target = std::uint32_t(a);
                }
                break;
            }
        }
    }

    prog.modules = std::move(module_set);
    return prog;
}

} // namespace mbias::toolchain
