/** @file Round-trip tests for the binary codec. */
#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "toolchain/compiler.hh"
#include "toolchain/encoding.hh"
#include "toolchain/linker.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using namespace mbias::isa;
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
        for (const auto &pi : prog.code) {
            const auto in = pi.resolved();
            const auto d =
                decode(image, pi.pc - prog.codeBase, prog.codeBase);
            ASSERT_EQ(d.size, pi.size) << in.str();
            EXPECT_EQ(d.inst.op, in.op) << in.str();
            switch (opClass(in.op)) {
              case OpClass::CondBranch:
                EXPECT_EQ(d.inst.rs1, in.rs1);
                EXPECT_EQ(d.inst.rs2, in.rs2);
                EXPECT_EQ(Addr(d.inst.imm),
                          prog.code[pi.target].pc)
                    << in.str();
                break;
              case OpClass::Jump:
              case OpClass::Call:
                EXPECT_EQ(Addr(d.inst.imm),
                          prog.code[pi.target].pc)
                    << in.str();
                break;
              case OpClass::Ret:
              case OpClass::Halt:
                break;
              case OpClass::Nop:
                EXPECT_EQ(d.size, pi.size);
                break;
              case OpClass::Load:
              case OpClass::Store:
                EXPECT_EQ(d.inst.rd, in.rd);
                EXPECT_EQ(d.inst.rs1, in.rs1);
                EXPECT_EQ(d.inst.imm, in.imm);
                break;
              default:
                EXPECT_EQ(d.inst.rd, in.rd);
                EXPECT_EQ(d.inst.rs1, in.rs1);
                if (in.op != Opcode::Li &&
                    in.op != Opcode::Addi &&
                    in.op != Opcode::Andi &&
                    in.op != Opcode::Ori &&
                    in.op != Opcode::Xori &&
                    in.op != Opcode::Slli &&
                    in.op != Opcode::Srli &&
                    in.op != Opcode::Srai &&
                    in.op != Opcode::Slti) {
                    EXPECT_EQ(d.inst.rs2, in.rs2);
                } else {
                    EXPECT_EQ(d.inst.imm, in.imm);
                }
                break;
            }
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
