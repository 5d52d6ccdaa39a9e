/** @file Tests for link order, linker layout, and the loader. */
#include <gtest/gtest.h>

#include <set>

#include "isa/builder.hh"
#include "sim/memory.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/linkorder.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using namespace mbias::isa;
using namespace mbias::isa::reg;
using toolchain::LinkedProgram;
using toolchain::Linker;
using toolchain::LinkOrder;
using toolchain::Loader;
using toolchain::LoaderConfig;

Module
simpleModule(const std::string &name, unsigned body_insts,
             const std::string &global = "")
{
    ProgramBuilder b(name);
    if (!global.empty())
        b.global(global, 64, 8);
    b.func(name + "_fn");
    for (unsigned i = 0; i < body_insts; ++i)
        b.addi(t0, t0, 1);
    b.ret();
    b.endFunc();
    return b.build();
}

/** The program's initial data segment [dataBase, dataEnd), read back
 *  from the memory a simulated run starts with. */
std::vector<std::uint8_t>
initialData(const LinkedProgram &prog)
{
    sim::SparseMemory mem;
    sim::loadProgramData(mem, prog);
    std::vector<std::uint8_t> bytes;
    for (Addr a = prog.dataBase; a < prog.dataEnd; ++a)
        bytes.push_back(std::uint8_t(mem.read(a, 1)));
    return bytes;
}

std::vector<Module>
threeModules()
{
    std::vector<Module> mods;
    mods.push_back(simpleModule("beta", 3, "gb"));
    mods.push_back(simpleModule("alpha", 5, "ga"));
    mods.push_back(simpleModule("gamma", 7, "gc"));
    return mods;
}

// ----------------------------------------------------------- LinkOrder

TEST(LinkOrder, AsGivenIsIdentity)
{
    auto p = LinkOrder::asGiven().permutation({"b", "a", "c"});
    EXPECT_EQ(p, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(LinkOrder, AlphabeticalSortsByName)
{
    auto p = LinkOrder::alphabetical().permutation({"b", "a", "c"});
    EXPECT_EQ(p, (std::vector<std::size_t>{1, 0, 2}));
}

TEST(LinkOrder, SeededIsDeterministicPermutation)
{
    std::vector<std::string> names{"a", "b", "c", "d", "e", "f"};
    auto p1 = LinkOrder::shuffled(9).permutation(names);
    auto p2 = LinkOrder::shuffled(9).permutation(names);
    EXPECT_EQ(p1, p2);
    std::set<std::size_t> s(p1.begin(), p1.end());
    EXPECT_EQ(s.size(), names.size());
}

TEST(LinkOrder, DifferentSeedsUsuallyDiffer)
{
    std::vector<std::string> names{"a", "b", "c", "d", "e", "f", "g"};
    int distinct = 0;
    auto base = LinkOrder::shuffled(0).permutation(names);
    for (std::uint64_t s = 1; s <= 10; ++s)
        distinct += LinkOrder::shuffled(s).permutation(names) != base;
    EXPECT_GE(distinct, 8);
}

TEST(LinkOrder, ExplicitValidated)
{
    auto order = LinkOrder::explicitOrder({2, 0, 1});
    auto p = order.permutation({"a", "b", "c"});
    EXPECT_EQ(p, (std::vector<std::size_t>{2, 0, 1}));
}

TEST(LinkOrder, Str)
{
    EXPECT_EQ(LinkOrder::asGiven().str(), "as-given");
    EXPECT_EQ(LinkOrder::alphabetical().str(), "alphabetical");
    EXPECT_EQ(LinkOrder::shuffled(5).str(), "shuffled(5)");
}

// -------------------------------------------------------------- Linker

TEST(Linker, FunctionsDoNotOverlapAndAreAligned)
{
    auto mods = threeModules();
    for (auto &m : mods)
        for (auto &f : m.functions())
            f.setAlignment(16);
    auto prog = Linker().link(mods);

    ASSERT_EQ(prog.functions.size(), 3u);
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
        EXPECT_EQ(prog.functions[i].base % 16, 0u);
        if (i > 0) {
            EXPECT_GE(prog.functions[i].base,
                      prog.functions[i - 1].base +
                          prog.functions[i - 1].bytes);
        }
    }
}

TEST(Linker, InstructionAddressesAreContiguous)
{
    auto prog = Linker().link(threeModules());
    for (const auto &lf : prog.functions) {
        Addr expect = lf.base;
        for (std::uint32_t i = lf.entryIdx;
             i < lf.entryIdx + 1 || (i < prog.code.size() &&
                                     prog.code[i].pc < lf.base + lf.bytes);
             ++i) {
            if (prog.code[i].pc >= lf.base + lf.bytes)
                break;
            EXPECT_EQ(prog.code[i].pc, expect);
            expect += prog.code[i].size;
        }
    }
}

TEST(Linker, PermutationPreservesTotalCodeBytes)
{
    auto mods = threeModules();
    auto a = Linker().link(mods, LinkOrder::asGiven());
    auto b = Linker().link(mods, LinkOrder::shuffled(3));
    std::uint64_t bytes_a = 0, bytes_b = 0;
    for (const auto &f : a.functions)
        bytes_a += f.bytes;
    for (const auto &f : b.functions)
        bytes_b += f.bytes;
    EXPECT_EQ(bytes_a, bytes_b);
}

TEST(Linker, PermutationMovesFunctions)
{
    auto mods = threeModules();
    auto a = Linker().link(mods, LinkOrder::asGiven());
    auto b = Linker().link(mods, LinkOrder::alphabetical());
    // alpha_fn is placed second in as-given order, first alphabetically.
    const Addr base_a = a.function("alpha_fn").base;
    const Addr base_b = b.function("alpha_fn").base;
    EXPECT_NE(base_a, base_b);
    EXPECT_EQ(base_b, a.codeBase); // first function starts the text
}

TEST(Linker, CallsResolveToEntryPoints)
{
    ProgramBuilder m1("m1");
    m1.func("main");
    m1.call("callee");
    m1.halt();
    m1.endFunc();
    ProgramBuilder m2("m2");
    m2.func("callee");
    m2.ret();
    m2.endFunc();
    std::vector<Module> mods;
    mods.push_back(m1.build());
    mods.push_back(m2.build());

    auto prog = Linker().link(mods);
    const auto &call = prog.code[prog.entryOf("main")];
    ASSERT_EQ(call.inst().op, Opcode::Call);
    EXPECT_EQ(call.target, prog.entryOf("callee"));
}

TEST(Linker, BranchTargetsResolveWithinFunction)
{
    ProgramBuilder b("m");
    b.func("f");
    b.label("top");
    b.addi(t0, t0, 1);
    b.bne(t0, t1, "top");
    b.ret();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = Linker().link(mods);
    const auto &br = prog.code[1];
    ASSERT_TRUE(isCondBranch(br.inst().op));
    EXPECT_EQ(br.target, 0u);
}

TEST(Linker, LaRewrittenToAbsoluteLi)
{
    ProgramBuilder b("m");
    b.global("table", 256, 64);
    b.func("f");
    b.la(t0, "table");
    b.ret();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = Linker().link(mods);
    const auto &li = prog.code[0];
    EXPECT_EQ(li.resolved().op, Opcode::Li);
    EXPECT_EQ(Addr(li.resolved().imm), prog.globalAddr("table"));
    EXPECT_EQ(li.size, 6u);
}

TEST(Linker, DataSegmentLayout)
{
    auto prog = Linker().link(threeModules());
    EXPECT_EQ(prog.dataBase % 4096, 0u);
    EXPECT_GE(prog.dataBase, prog.codeEnd);
    // Globals in module order, aligned, non-overlapping.
    EXPECT_EQ(prog.globals.size(), 3u);
    for (std::size_t i = 0; i < prog.globals.size(); ++i) {
        EXPECT_EQ(prog.globals[i].addr % 8, 0u);
        if (i > 0) {
            EXPECT_GE(prog.globals[i].addr,
                      prog.globals[i - 1].addr + prog.globals[i - 1].size());
        }
    }
    // The segment ends with its last global, and its initial memory
    // (all three globals are zero-initialized) reads as zero.
    EXPECT_EQ(prog.globals.back().addr + prog.globals.back().size(),
              prog.dataEnd);
    const auto data = initialData(prog);
    EXPECT_EQ(data, std::vector<std::uint8_t>(
                        prog.dataEnd - prog.dataBase, 0));
}

TEST(Linker, DataInitPlacedAtGlobalOffset)
{
    ProgramBuilder b("m");
    b.globalInit("blob", std::vector<std::uint8_t>{0xaa, 0xbb}, 8);
    b.func("f");
    b.ret();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = Linker().link(mods);
    const Addr off = prog.globalAddr("blob") - prog.dataBase;
    const auto data = initialData(prog);
    EXPECT_EQ(data[off], 0xaa);
    EXPECT_EQ(data[off + 1], 0xbb);
}

TEST(Linker, IndexAtInvertsPlacement)
{
    auto prog = Linker().link(threeModules());
    // Exactly the placed pcs map to an index, each to its own.
    std::size_t found = 0;
    for (Addr pc = prog.codeBase; pc < prog.codeEnd; ++pc)
        found += prog.indexAt(pc) != LinkedProgram::kNoIndex;
    EXPECT_EQ(found, prog.code.size());
    for (std::uint32_t i = 0; i < prog.code.size(); ++i)
        EXPECT_EQ(prog.indexAt(prog.code[i].pc), i);
}

TEST(Linker, IndexAtFindsEveryInstruction)
{
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    for (const auto *w : workloads::suite()) {
        const auto mods = std::make_shared<const std::vector<Module>>(
            cc.compile(w->build({})));
        for (const auto &order :
             {LinkOrder::asGiven(), LinkOrder::alphabetical(),
              LinkOrder::shuffled(7)}) {
            const auto prog = Linker().link(mods, order);
            for (std::uint32_t i = 0; i < prog.code.size(); ++i)
                ASSERT_EQ(prog.indexAt(prog.code[i].pc), i)
                    << w->name() << " " << order.str();
            EXPECT_EQ(prog.indexAt(prog.codeBase - 1),
                      LinkedProgram::kNoIndex);
            EXPECT_EQ(prog.indexAt(prog.codeEnd), LinkedProgram::kNoIndex);
        }
    }
}

TEST(Linker, OrdersShareModuleStorage)
{
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    const auto mods = std::make_shared<const std::vector<Module>>(
        cc.compile(workloads::findWorkload("mcf").build({})));
    const auto a = Linker().link(mods, LinkOrder::asGiven());
    const auto b = Linker().link(mods, LinkOrder::shuffled(3));
    EXPECT_EQ(a.modules.get(), mods.get());
    EXPECT_EQ(b.modules.get(), mods.get());

    // Every instruction body of both layouts lives in the module set:
    // the same set of addresses, one per instruction.
    std::set<const Instruction *> bodies_a, bodies_b;
    for (const auto &pi : a.code)
        bodies_a.insert(&pi.inst());
    for (const auto &pi : b.code)
        bodies_b.insert(&pi.inst());
    std::set<const Instruction *> in_modules;
    for (const auto &m : *mods)
        for (const auto &f : m.functions())
            for (const auto &inst : f.insts())
                in_modules.insert(&inst);
    EXPECT_EQ(bodies_a, in_modules);
    EXPECT_EQ(bodies_b, in_modules);

    // Init bytes too: each global reads its module's storage.
    ASSERT_EQ(a.globals.size(), b.globals.size());
    for (const auto &ga : a.globals) {
        bool found = false;
        for (const auto &gb : b.globals) {
            if (gb.name() != ga.name())
                continue;
            found = true;
            EXPECT_EQ(gb.init().data(), ga.init().data()) << ga.name();
        }
        EXPECT_TRUE(found) << ga.name();
    }

    // What a link adds on top of its module set is small.
    EXPECT_LT(toolchain::approxBytes(a), 16u * 1024);
    EXPECT_LT(toolchain::approxBytes(b), 16u * 1024);
}

TEST(Linker, ModuleOrderRecorded)
{
    auto prog = Linker().link(threeModules(), LinkOrder::alphabetical());
    EXPECT_EQ(prog.moduleOrder,
              (std::vector<std::string>{"alpha", "beta", "gamma"}));
}

// -------------------------------------------------------------- Loader

std::vector<Module>
mainOnly()
{
    ProgramBuilder b("m");
    b.func("main");
    b.halt();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    return mods;
}

TEST(Loader, EnvSizeShiftsStackPointer)
{
    auto prog0 = Linker().link(mainOnly());
    auto prog1 = Linker().link(mainOnly());
    LoaderConfig c0, c1;
    c0.envBytes = 0;
    c1.envBytes = 100;
    auto i0 = Loader::load(std::move(prog0), c0);
    auto i1 = Loader::load(std::move(prog1), c1);
    EXPECT_EQ(i0.initialSp - i1.initialSp, 100u);
}

TEST(Loader, SpRespectsOnlyTheAbiAlignment)
{
    auto prog = Linker().link(mainOnly());
    LoaderConfig c;
    c.envBytes = 3; // odd size: sp must drop to the 4-byte grid
    auto img = Loader::load(std::move(prog), c);
    EXPECT_EQ(img.initialSp % 4, 0u);
    // Not rounded further than the ABI demands: env 3 + argv 64 = 67
    // below the (aligned) top -> alignDown(top - 67, 4) == top - 68.
    EXPECT_EQ(img.stackTop - img.initialSp, 68u);
}

TEST(Loader, GpAndHeapDerivedFromProgram)
{
    auto mods = threeModules();
    auto prog = Linker().link(mods);
    const Addr data_base = prog.dataBase;
    const Addr data_end = prog.dataEnd;
    auto img = Loader::load(std::move(prog), {}, "beta_fn");
    EXPECT_EQ(img.gp, data_base);
    EXPECT_GE(img.heapBase, data_end + 4096);
    EXPECT_EQ(img.heapBase % 4096, 0u);
}

TEST(Loader, EntrySelectsFunction)
{
    ProgramBuilder b("m");
    b.func("other");
    b.ret();
    b.endFunc();
    b.func("main");
    b.halt();
    b.endFunc();
    std::vector<Module> mods;
    mods.push_back(b.build());
    auto prog = Linker().link(mods);
    const auto main_idx = prog.entryOf("main");
    auto img = Loader::load(std::move(prog), {});
    EXPECT_EQ(img.entryIdx, main_idx);
}

TEST(Loader, SpPageOffsetTracksEnv)
{
    for (std::uint64_t env : {0ull, 64ull, 128ull, 4096ull}) {
        auto prog = Linker().link(mainOnly());
        LoaderConfig c;
        c.envBytes = env;
        auto img = Loader::load(std::move(prog), c);
        EXPECT_EQ(img.spPageOffset(), img.initialSp & 0xfff);
    }
}

} // namespace
