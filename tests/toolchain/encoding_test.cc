/** @file Round-trip tests for the binary codec. */
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "isa/builder.hh"
#include "toolchain/compiler.hh"
#include "toolchain/encoding.hh"
#include "toolchain/linker.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using namespace mbias::isa;
using isa::Function;
using isa::Instruction;
using toolchain::decode;
using toolchain::encode;
using toolchain::encodeProgram;
using toolchain::LinkedProgram;

LinkedProgram
linkWorkload(const std::string &name, toolchain::OptLevel level)
{
    const auto &w = workloads::findWorkload(name);
    workloads::WorkloadConfig cfg;
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike, level);
    return toolchain::Linker().link(cc.compile(w.build(cfg)));
}

TEST(Encoding, SizesMatchTheModel)
{
    auto prog = linkWorkload("perl", toolchain::OptLevel::O3);
    for (const auto &pi : prog.code)
        EXPECT_EQ(encode(pi, prog).size(), pi.size) << pi.inst().str();
}

TEST(Encoding, ImageCoversTextSegment)
{
    auto prog = linkWorkload("bzip", toolchain::OptLevel::O2);
    auto image = encodeProgram(prog);
    EXPECT_EQ(image.size(), prog.codeEnd - prog.codeBase);
    // The first byte of every instruction carries its encoding id, so
    // non-gap bytes are not all zero.
    unsigned nonzero = 0;
    for (auto b : image)
        nonzero += b != 0;
    EXPECT_GT(nonzero, image.size() / 3);
}

/** True for the ALU ops that carry an immediate (Li included). */
bool
hasAluImmediate(Opcode op)
{
    switch (op) {
      case Opcode::Li:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Srai:
      case Opcode::Slti:
        return true;
      default:
        return false;
    }
}

/** Decodes @p pi out of @p image and checks every encoded field
 *  against the linked instruction. */
void
expectDecodes(const LinkedProgram &prog,
              const std::vector<std::uint8_t> &image,
              const toolchain::PlacedInst &pi)
{
    const auto in = pi.resolved();
    const auto d = decode(image, pi.pc - prog.codeBase, prog.codeBase);
    ASSERT_EQ(d.size, pi.size) << in.str();
    EXPECT_EQ(d.inst.op, in.op) << in.str();
    switch (opClass(in.op)) {
      case OpClass::CondBranch:
        EXPECT_EQ(d.inst.rs1, in.rs1) << in.str();
        EXPECT_EQ(d.inst.rs2, in.rs2) << in.str();
        EXPECT_EQ(Addr(d.inst.imm), prog.code[pi.target].pc) << in.str();
        break;
      case OpClass::Jump:
      case OpClass::Call:
        EXPECT_EQ(Addr(d.inst.imm), prog.code[pi.target].pc) << in.str();
        break;
      case OpClass::Ret:
      case OpClass::Halt:
        break;
      case OpClass::Nop:
        EXPECT_EQ(d.inst.imm, std::int64_t(pi.size)) << in.str();
        break;
      case OpClass::Load:
      case OpClass::Store:
        EXPECT_EQ(d.inst.rd, in.rd) << in.str();
        EXPECT_EQ(d.inst.rs1, in.rs1) << in.str();
        EXPECT_EQ(d.inst.imm, in.imm) << in.str();
        break;
      default:
        EXPECT_EQ(d.inst.rd, in.rd) << in.str();
        EXPECT_EQ(d.inst.rs1, in.rs1) << in.str();
        if (hasAluImmediate(in.op)) {
            EXPECT_EQ(d.inst.imm, in.imm) << in.str();
        } else {
            EXPECT_EQ(d.inst.rs2, in.rs2) << in.str();
        }
        break;
    }
}

/** Round trip every instruction of every workload at both levels. */
class EncodingRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EncodingRoundTrip, DecodeInvertsEncode)
{
    for (auto level :
         {toolchain::OptLevel::O2, toolchain::OptLevel::O3}) {
        auto prog = linkWorkload(GetParam(), level);
        auto image = encodeProgram(prog);
        for (const auto &pi : prog.code)
            expectDecodes(prog, image, pi);
    }
}

TEST(Encoding, ExhaustiveFieldRoundTrip)
{
    // Every opcode; every register value 0-31 in each field its form
    // encodes (the other fields vary along); and, for each immediate
    // form, both sides of its narrow/wide boundary: int8 against
    // int32 for the ALU-immediate and memory forms, int32 against
    // int64 for Li.  Branches and jumps alternate between a backward
    // and a forward label, so displacements of both signs decode.
    const std::int64_t kImm32[] = {-128, -1, 0, 127, -129, 128,
                                   INT32_MIN, INT32_MAX};
    const std::int64_t kLi[] = {-128,
                                -1,
                                0,
                                127,
                                -129,
                                128,
                                INT32_MIN,
                                INT32_MAX,
                                std::int64_t(INT32_MAX) + 1,
                                std::int64_t(INT32_MIN) - 1,
                                INT64_MIN,
                                INT64_MAX};

    Function main_fn("main"), flow("flow");
    const std::int32_t back = flow.newLabel("back");
    const std::int32_t fwd = flow.newLabel("fwd");
    flow.bindLabel(back, 0);
    for (unsigned o = 0; o < unsigned(Opcode::NumOpcodes); ++o) {
        const Opcode op = Opcode(o);
        const OpClass cls = opClass(op);
        // The register fields the form encodes (0 rd, 1 rs1, 2 rs2).
        std::vector<unsigned> fields;
        std::vector<std::int64_t> imms = {0};
        switch (cls) {
          case OpClass::CondBranch:
            fields = {1, 2};
            break;
          case OpClass::Load:
          case OpClass::Store:
            fields = {0, 1};
            imms.assign(std::begin(kImm32), std::end(kImm32));
            break;
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::IntDiv:
            if (op == Opcode::Li) {
                fields = {0};
                imms.assign(std::begin(kLi), std::end(kLi));
            } else if (op == Opcode::La) {
                fields = {0};
            } else if (hasAluImmediate(op)) {
                fields = {0, 1};
                imms.assign(std::begin(kImm32), std::end(kImm32));
            } else {
                fields = {0, 1, 2};
            }
            break;
          case OpClass::Nop:
            imms.clear();
            for (std::int64_t w = 1; w <= 15; ++w)
                imms.push_back(w);
            break;
          default:
            break;
        }
        Function &fn = cls == OpClass::CondBranch || cls == OpClass::Jump
                           ? flow
                           : main_fn;
        auto emit = [&](unsigned field, unsigned v, std::int64_t imm) {
            Instruction in;
            in.op = op;
            Reg r[3] = {Reg((v + 5) % 32), Reg((v + 11) % 32),
                        Reg((v + 17) % 32)};
            r[field] = Reg(v);
            for (const unsigned f : fields)
                (f == 0 ? in.rd : f == 1 ? in.rs1 : in.rs2) = r[f];
            in.imm = imm;
            if (cls == OpClass::CondBranch || cls == OpClass::Jump)
                in.target = v % 2 ? back : fwd;
            // Appended to the fresh, empty sym: GCC 12 inlines `=` from a
            // literal into a false -Wrestrict warning here.
            if (cls == OpClass::Call)
                in.sym.append("flow");
            if (op == Opcode::La)
                in.sym.append("g");
            fn.insts().push_back(in);
        };
        for (const std::int64_t imm : imms) {
            if (fields.empty()) {
                emit(0, 0, imm);
                emit(0, 1, imm); // both branch directions for Jmp
                continue;
            }
            for (const unsigned f : fields)
                for (unsigned v = 0; v < 32; ++v)
                    emit(f, v, imm);
        }
    }
    flow.bindLabel(fwd, std::uint32_t(flow.insts().size()));
    Instruction ret;
    ret.op = Opcode::Ret;
    flow.insts().push_back(ret);
    Instruction halt;
    halt.op = Opcode::Halt;
    main_fn.insts().push_back(halt);

    isa::Module mod("exhaustive");
    mod.addGlobal("g", 8);
    mod.addFunction(std::move(main_fn));
    mod.addFunction(std::move(flow));
    std::vector<isa::Module> mods;
    mods.push_back(std::move(mod));
    const auto prog = toolchain::Linker().link(mods);
    const auto image = encodeProgram(prog);

    EXPECT_GT(prog.code.size(), 10'000u);
    std::map<Opcode, std::set<unsigned>> sizes;
    std::set<Opcode> seen;
    for (const auto &pi : prog.code) {
        expectDecodes(prog, image, pi);
        seen.insert(pi.inst().op);
        sizes[pi.inst().op].insert(pi.size);
    }
    EXPECT_EQ(seen.size(), std::size_t(Opcode::NumOpcodes));
    for (const auto &[op, widths] : sizes) {
        // Every immediate form shows both its narrow and wide size.
        const bool two_forms = op != Opcode::La &&
                               (hasAluImmediate(op) ||
                                opClass(op) == OpClass::Load ||
                                opClass(op) == OpClass::Store);
        if (two_forms) {
            EXPECT_EQ(widths.size(), 2u) << opcodeName(op);
        }
        if (op == Opcode::Nop) {
            EXPECT_EQ(widths.size(), 15u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EncodingRoundTrip,
    ::testing::ValuesIn(mbias::workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(Encoding, NegativeImmediatesSurvive)
{
    // Direct unit check on sign extension via a tiny program.
    isa::ProgramBuilder b("t");
    b.func("main");
    b.addi(reg::sp, reg::sp, -520); // wide (won't fit int8)
    b.ld8(reg::t0, reg::sp, -8);    // narrow negative
    b.li(reg::t1, -1);              // 32-bit negative
    b.li(reg::t2, std::int64_t(0x8000000000000001ULL)); // 64-bit
    b.halt();
    b.endFunc();
    std::vector<isa::Module> mods;
    mods.push_back(b.build());
    auto prog = toolchain::Linker().link(mods);
    auto image = encodeProgram(prog);
    std::size_t off = 0;
    for (const auto &pi : prog.code) {
        auto d = decode(image, off, prog.codeBase);
        EXPECT_EQ(d.inst.imm, pi.resolved().imm) << pi.inst().str();
        off += d.size;
    }
}

TEST(Encoding, DecodeSequentiallyWalksAFunction)
{
    auto prog = linkWorkload("milc", toolchain::OptLevel::O2);
    auto image = encodeProgram(prog);
    // Walk the first function byte-exactly.
    const auto &lf = prog.functions.front();
    std::size_t off = lf.base - prog.codeBase;
    std::uint32_t idx = lf.entryIdx;
    while (off < lf.base - prog.codeBase + lf.bytes) {
        auto d = decode(image, off, prog.codeBase);
        EXPECT_EQ(d.inst.op, prog.code[idx].resolved().op);
        off += d.size;
        ++idx;
    }
    EXPECT_EQ(off, lf.base - prog.codeBase + lf.bytes);
}

} // namespace
