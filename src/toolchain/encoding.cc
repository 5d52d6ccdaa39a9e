#include "toolchain/encoding.hh"

#include "base/logging.hh"

namespace mbias::toolchain
{

using isa::Instruction;
using isa::Opcode;

namespace
{

// ---------------------------------------------------------------------
// Encoding opcode space: the 6-bit instruction identifier.  Plain
// opcodes map to their enum value; wide-immediate forms get dedicated
// numbers above them so the decoder can derive both format and size
// from the identifier alone.
// ---------------------------------------------------------------------

constexpr unsigned num_plain = unsigned(Opcode::NumOpcodes);

/** Wide variants, in a fixed order; index + num_plain = encoding id. */
constexpr Opcode wide_table[] = {
    Opcode::Addi, Opcode::Andi, Opcode::Ori,  Opcode::Xori,
    Opcode::Slli, Opcode::Srli, Opcode::Srai, Opcode::Slti,
    Opcode::Li, // the 64-bit form
    Opcode::Ld1,  Opcode::Ld2,  Opcode::Ld4,  Opcode::Ld8,
    Opcode::St1,  Opcode::St2,  Opcode::St4,  Opcode::St8,
    Opcode::Nop, // the multi-byte form
};
constexpr unsigned num_wide = sizeof(wide_table) / sizeof(wide_table[0]);
static_assert(num_plain + num_wide <= 64, "encoding id must fit 6 bits");

int
wideIndexOf(Opcode op)
{
    for (unsigned i = 0; i < num_wide; ++i)
        if (wide_table[i] == op)
            return int(i);
    return -1;
}

bool
fitsInt8(std::int64_t v)
{
    return v >= -128 && v <= 127;
}

bool
fitsInt32(std::int64_t v)
{
    return v >= INT32_MIN && v <= INT32_MAX;
}

/** Whether this instruction encodes with the wide form. */
bool
isWideForm(const Instruction &in)
{
    switch (in.op) {
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Srai:
      case Opcode::Slti:
      case Opcode::Ld1:
      case Opcode::Ld2:
      case Opcode::Ld4:
      case Opcode::Ld8:
      case Opcode::St1:
      case Opcode::St2:
      case Opcode::St4:
      case Opcode::St8:
        return !fitsInt8(in.imm);
      case Opcode::Li:
        return !fitsInt32(in.imm);
      case Opcode::Nop:
        return in.encodedSize() > 1;
      default:
        return false;
    }
}

/** LSB-first bit writer over a fixed-size byte buffer. */
class BitWriter
{
  public:
    explicit BitWriter(unsigned bytes) : buf_(bytes, 0) {}

    void
    put(std::uint64_t value, unsigned bits)
    {
        for (unsigned i = 0; i < bits; ++i) {
            const unsigned pos = cursor_ + i;
            mbias_assert(pos < buf_.size() * 8, "encoding overflow");
            if ((value >> i) & 1)
                buf_[pos / 8] |= std::uint8_t(1u << (pos % 8));
        }
        cursor_ += bits;
    }

    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<std::uint8_t> buf_;
    unsigned cursor_ = 0;
};

/** LSB-first bit reader. */
class BitReader
{
  public:
    BitReader(const std::vector<std::uint8_t> &image, std::size_t offset)
        : image_(image), base_(offset * 8)
    {
    }

    std::uint64_t
    get(unsigned bits)
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bits; ++i) {
            const std::size_t pos = base_ + cursor_ + i;
            mbias_assert(pos / 8 < image_.size(), "decoding overrun");
            if ((image_[pos / 8] >> (pos % 8)) & 1)
                v |= std::uint64_t(1) << i;
        }
        cursor_ += bits;
        return v;
    }

    std::int64_t
    getSigned(unsigned bits)
    {
        std::uint64_t v = get(bits);
        if (bits < 64 && (v >> (bits - 1)) & 1)
            v |= ~((std::uint64_t(1) << bits) - 1);
        return std::int64_t(v);
    }

  private:
    const std::vector<std::uint8_t> &image_;
    std::size_t base_;
    unsigned cursor_ = 0;
};

} // namespace

std::vector<std::uint8_t>
encode(const PlacedInst &pi, const LinkedProgram &prog)
{
    const Instruction in = pi.resolved();
    const unsigned size = pi.size;
    BitWriter w(size);

    const bool wide = isWideForm(in);
    const unsigned encoding_id =
        wide ? num_plain + unsigned(wideIndexOf(in.op))
             : unsigned(in.op);
    w.put(encoding_id, 6);

    switch (isa::opClass(in.op)) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntMul:
      case isa::OpClass::IntDiv:
        if (in.op == Opcode::Li) {
            w.put(in.rd, 5);
            w.put(std::uint64_t(in.imm), wide ? 64 : 32);
        } else if (in.op == Opcode::Addi || in.op == Opcode::Andi ||
                   in.op == Opcode::Ori || in.op == Opcode::Xori ||
                   in.op == Opcode::Slli || in.op == Opcode::Srli ||
                   in.op == Opcode::Srai || in.op == Opcode::Slti) {
            w.put(in.rd, 5);
            w.put(in.rs1, 5);
            w.put(std::uint64_t(in.imm), wide ? 32 : 8);
        } else {
            w.put(in.rd, 5);
            w.put(in.rs1, 5);
            w.put(in.rs2, 5);
        }
        break;
      case isa::OpClass::Load:
      case isa::OpClass::Store:
        w.put(in.rd, 5);
        w.put(in.rs1, 5);
        w.put(std::uint64_t(in.imm), wide ? 32 : 8);
        break;
      case isa::OpClass::CondBranch: {
          const Addr target = prog.code[pi.target].pc;
          const std::int64_t rel =
              std::int64_t(target) - std::int64_t(pi.pc + size);
          mbias_assert(rel >= INT16_MIN && rel <= INT16_MAX,
                       "branch displacement exceeds rel16");
          w.put(in.rs1, 5);
          w.put(in.rs2, 5);
          w.put(std::uint64_t(rel), 16);
          break;
      }
      case isa::OpClass::Jump:
      case isa::OpClass::Call: {
          const Addr target = prog.code[pi.target].pc;
          mbias_assert(target <= UINT32_MAX, "target exceeds abs32");
          w.put(target, 32);
          break;
      }
      case isa::OpClass::Ret:
      case isa::OpClass::Halt:
        break;
      case isa::OpClass::Nop:
        if (wide)
            w.put(size, 8);
        break;
    }
    return w.take();
}

std::vector<std::uint8_t>
encodeProgram(const LinkedProgram &prog)
{
    std::vector<std::uint8_t> image(prog.codeEnd - prog.codeBase, 0);
    for (const auto &pi : prog.code) {
        const auto bytes = encode(pi, prog);
        const std::size_t off = pi.pc - prog.codeBase;
        for (std::size_t i = 0; i < bytes.size(); ++i)
            image[off + i] = bytes[i];
    }
    return image;
}

DecodedInst
decode(const std::vector<std::uint8_t> &image, std::size_t offset,
       Addr image_base)
{
    BitReader r(image, offset);
    const unsigned encoding_id = unsigned(r.get(6));
    mbias_assert(encoding_id < num_plain + num_wide,
                 "bad encoding id ", encoding_id);
    const bool wide = encoding_id >= num_plain;
    const Opcode op = wide ? wide_table[encoding_id - num_plain]
                           : Opcode(encoding_id);

    DecodedInst d;
    d.inst.op = op;

    switch (isa::opClass(op)) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntMul:
      case isa::OpClass::IntDiv:
        if (op == Opcode::Li) {
            d.inst.rd = isa::Reg(r.get(5));
            d.inst.imm = r.getSigned(wide ? 64 : 32);
            d.size = wide ? 10 : 6;
        } else if (op == Opcode::Addi || op == Opcode::Andi ||
                   op == Opcode::Ori || op == Opcode::Xori ||
                   op == Opcode::Slli || op == Opcode::Srli ||
                   op == Opcode::Srai || op == Opcode::Slti) {
            d.inst.rd = isa::Reg(r.get(5));
            d.inst.rs1 = isa::Reg(r.get(5));
            d.inst.imm = r.getSigned(wide ? 32 : 8);
            d.size = wide ? 6 : 4;
        } else {
            d.inst.rd = isa::Reg(r.get(5));
            d.inst.rs1 = isa::Reg(r.get(5));
            d.inst.rs2 = isa::Reg(r.get(5));
            d.size = 3;
        }
        break;
      case isa::OpClass::Load:
      case isa::OpClass::Store:
        d.inst.rd = isa::Reg(r.get(5));
        d.inst.rs1 = isa::Reg(r.get(5));
        d.inst.imm = r.getSigned(wide ? 32 : 8);
        d.size = wide ? 6 : 4;
        break;
      case isa::OpClass::CondBranch: {
          d.inst.rs1 = isa::Reg(r.get(5));
          d.inst.rs2 = isa::Reg(r.get(5));
          const std::int64_t rel = r.getSigned(16);
          d.size = 4;
          d.inst.imm = std::int64_t(image_base + offset + d.size) + rel;
          break;
      }
      case isa::OpClass::Jump:
      case isa::OpClass::Call:
        d.inst.imm = std::int64_t(r.get(32));
        d.size = 5;
        break;
      case isa::OpClass::Ret:
        d.size = 1;
        break;
      case isa::OpClass::Halt:
        d.size = 2;
        break;
      case isa::OpClass::Nop:
        if (wide) {
            d.size = unsigned(r.get(8));
            d.inst.imm = d.size;
        } else {
            d.size = 1;
            d.inst.imm = 1;
        }
        break;
    }
    return d;
}

} // namespace mbias::toolchain
