#include "lang/assembler.hh"

#include <array>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "isa/instruction.hh"
#include "isa/opcode.hh"
#include "lang/lexer.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace mbias::lang
{

namespace
{

using isa::Opcode;
using isa::Reg;

/** ABI register names, indexed by register number (see isa::reg). */
constexpr std::array<std::string_view, isa::reg::numRegs> kRegNames = {
    "zero", "ra", "sp", "gp", "hp", "t0", "t1", "t2", "t3", "t4",
    "a0",   "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s0", "s1",
    "s2",   "s3", "s4", "s5", "s6", "s7", "s8", "s9", "t5", "t6",
    "t7",   "t8",
};

std::optional<Reg>
regByName(std::string_view name)
{
    for (unsigned i = 0; i < kRegNames.size(); ++i)
        if (name == kRegNames[i])
            return Reg(i);
    if (name.size() >= 2 && name[0] == 'x') {
        unsigned v = 0;
        for (char c : name.substr(1)) {
            if (c < '0' || c > '9')
                return std::nullopt;
            v = v * 10 + unsigned(c - '0');
        }
        if (v < isa::reg::numRegs)
            return Reg(v);
    }
    return std::nullopt;
}

std::optional<Opcode>
opcodeByName(std::string_view name)
{
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i)
        if (name == isa::opcodeName(Opcode(i)))
            return Opcode(i);
    // "mv rd, rs" is accepted as sugar for "addi rd, rs, 0" at parse
    // level (see parseInstruction).
    return std::nullopt;
}

/** Operand shapes an opcode expects, used to drive the parser. */
enum class Shape
{
    RRR,      ///< add rd, rs1, rs2
    RRI,      ///< addi rd, rs1, imm
    RI,       ///< li rd, imm
    RSym,     ///< la rd, sym
    Mem,      ///< ld4/st4 rdata, rbase, off
    RRLabel,  ///< beq rs1, rs2, label
    Label,    ///< jmp label
    Sym,      ///< call sym
    None,     ///< ret, halt
    NopShape, ///< nop [width]
};

Shape
shapeOf(Opcode op)
{
    switch (isa::opClass(op)) {
      case isa::OpClass::IntAlu:
      case isa::OpClass::IntMul:
      case isa::OpClass::IntDiv:
        switch (op) {
          case Opcode::Li:
            return Shape::RI;
          case Opcode::La:
            return Shape::RSym;
          case Opcode::Addi:
          case Opcode::Andi:
          case Opcode::Ori:
          case Opcode::Xori:
          case Opcode::Slli:
          case Opcode::Srli:
          case Opcode::Srai:
          case Opcode::Slti:
            return Shape::RRI;
          default:
            return Shape::RRR;
        }
      case isa::OpClass::Load:
      case isa::OpClass::Store:
        return Shape::Mem;
      case isa::OpClass::CondBranch:
        return Shape::RRLabel;
      case isa::OpClass::Jump:
        return Shape::Label;
      case isa::OpClass::Call:
        return Shape::Sym;
      case isa::OpClass::Ret:
      case isa::OpClass::Halt:
        return Shape::None;
      case isa::OpClass::Nop:
        return Shape::NopShape;
    }
    return Shape::None;
}

/** One pending label reference, for undefined-label diagnostics. */
struct LabelRef
{
    unsigned line = 0;
    unsigned col = 0;
};

class Parser
{
  public:
    explicit Parser(std::string_view text) : toks_(lex(text)) {}

    AsmResult
    run()
    {
        while (!at(Token::Kind::End)) {
            if (at(Token::Kind::Newline)) {
                ++pos_;
                continue;
            }
            parseStatement();
        }
        if (inFunction_)
            error(toks_.back(), "missing .endfunc at end of input (in "
                                "function '" +
                                    fn_.name() + "')");
        else if (openModule_)
            finishModule();
        return std::move(result_);
    }

  private:
    const Token &cur() const { return toks_[pos_]; }
    bool at(Token::Kind k) const { return cur().is(k); }

    void
    error(const Token &tok, std::string message)
    {
        result_.errors.push_back({tok.line, tok.col, std::move(message)});
    }

    /** Skips to the next statement boundary (error recovery). */
    void
    sync()
    {
        while (!at(Token::Kind::End) && !at(Token::Kind::Newline))
            ++pos_;
    }

    /** Consumes a comma, or reports what was found instead. */
    bool
    expectComma()
    {
        if (at(Token::Kind::Comma)) {
            ++pos_;
            return true;
        }
        error(cur(), "expected ',' before '" + spell(cur()) + "'");
        return false;
    }

    static std::string
    spell(const Token &t)
    {
        switch (t.kind) {
          case Token::Kind::Newline:
            return "end of line";
          case Token::Kind::End:
            return "end of input";
          case Token::Kind::Comma:
            return ",";
          case Token::Kind::Colon:
            return ":";
          default:
            return t.text;
        }
    }

    /** Statement end: newline or EOF; anything else is junk. */
    bool
    endStatement()
    {
        if (at(Token::Kind::Newline) || at(Token::Kind::End)) {
            if (at(Token::Kind::Newline))
                ++pos_;
            return true;
        }
        error(cur(), "trailing junk '" + spell(cur()) + "'");
        sync();
        return false;
    }

    std::optional<std::int64_t>
    parseInt()
    {
        if (at(Token::Kind::Int)) {
            const std::int64_t v = cur().value;
            ++pos_;
            return v;
        }
        error(cur(), "expected integer, got '" + spell(cur()) + "'");
        return std::nullopt;
    }

    std::optional<Reg>
    parseReg()
    {
        if (at(Token::Kind::Ident)) {
            if (auto r = regByName(cur().text)) {
                ++pos_;
                return r;
            }
            error(cur(), "unknown register '" + cur().text + "'");
            return std::nullopt;
        }
        error(cur(), "expected register, got '" + spell(cur()) + "'");
        return std::nullopt;
    }

    std::optional<std::string>
    parseName(const char *what)
    {
        if (at(Token::Kind::Ident)) {
            std::string name = cur().text;
            ++pos_;
            return name;
        }
        error(cur(),
              std::string("expected ") + what + ", got '" + spell(cur()) +
                  "'");
        return std::nullopt;
    }

    // --- label bookkeeping (mirrors isa::ProgramBuilder) ---

    /** Label id for @p name, allocated at first use (reference or
     *  binding) so reassembled listings reproduce original ids. */
    std::int32_t
    labelId(const std::string &name)
    {
        auto it = labelIds_.find(name);
        if (it != labelIds_.end())
            return it->second;
        const std::int32_t id = fn_.newLabel(name);
        labelIds_.emplace(name, id);
        return id;
    }

    // --- statements ---

    void
    parseStatement()
    {
        const Token tok = cur();
        if (tok.is(Token::Kind::Ident) && tok.text[0] == '.') {
            parseDirective();
            return;
        }
        if (tok.is(Token::Kind::Ident) &&
            toks_[pos_ + 1].is(Token::Kind::Colon)) {
            parseLabel();
            return;
        }
        if (tok.is(Token::Kind::Ident)) {
            parseInstruction();
            return;
        }
        error(tok, "expected directive, label, or instruction, got '" +
                       spell(tok) + "'");
        sync();
    }

    /** Closes an open .data block: the buffered bytes become the
     *  global.  Module::addGlobal rejects empty initializers, so a
     *  .data with no .hex lines is a source error. */
    void
    flushData()
    {
        if (!pending_)
            return;
        if (pending_->bytes.empty())
            error(pending_->tok, ".data block for '" + pending_->name +
                                     "' has no .hex bytes");
        else
            mod_.addGlobal(pending_->name, std::move(pending_->bytes),
                           pending_->align);
        pending_.reset();
    }

    void
    finishModule()
    {
        flushData();
        result_.modules.push_back(std::move(mod_));
        openModule_ = false;
    }

    void
    parseDirective()
    {
        const Token tok = cur();
        const std::string &d = tok.text;
        ++pos_;
        if (d == ".module") {
            if (inFunction_) {
                error(tok, ".module inside function '" + fn_.name() + "'");
                sync();
                return;
            }
            auto name = parseName("module name");
            if (!name || !endStatement())
                return;
            if (openModule_)
                finishModule();
            mod_ = isa::Module(*name);
            openModule_ = true;
            return;
        }
        if (!openModule_) {
            error(tok, "'" + d + "' before any .module directive");
            sync();
            return;
        }
        if (d == ".zero") {
            flushData();
            auto name = parseName("global name");
            if (!name || !expectComma())
                return sync();
            auto size = parseInt();
            if (!size)
                return sync();
            std::int64_t align = 8;
            if (at(Token::Kind::Comma)) {
                ++pos_;
                auto a = parseInt();
                if (!a)
                    return sync();
                align = *a;
            }
            if (*size < 0 || align <= 0 ||
                (align & (align - 1)) != 0) {
                error(tok, ".zero needs size >= 0 and a power-of-two "
                           "alignment");
                return sync();
            }
            if (!endStatement())
                return;
            mod_.addGlobal(*name, std::uint64_t(*size), unsigned(align));
            return;
        }
        if (d == ".data") {
            auto name = parseName("global name");
            if (!name)
                return sync();
            std::int64_t align = 8;
            if (at(Token::Kind::Comma)) {
                ++pos_;
                auto a = parseInt();
                if (!a)
                    return sync();
                align = *a;
            }
            if (align <= 0 || (align & (align - 1)) != 0) {
                error(tok, ".data needs a power-of-two alignment");
                return sync();
            }
            if (!endStatement())
                return;
            flushData();
            pending_ = PendingData{*name, unsigned(align), {}, tok};
            return;
        }
        if (d == ".hex") {
            if (!pending_) {
                error(tok, ".hex outside a .data block");
                return sync();
            }
            if (!at(Token::Kind::Ident) && !at(Token::Kind::Int)) {
                error(cur(), "expected hex digits after .hex");
                return sync();
            }
            // A hex run like "00ff10" lexes as digit/letter fragments
            // (Int then Ident); concatenating the raw spellings up to
            // the end of line reconstructs the byte string exactly.
            const Token data = cur();
            std::string s;
            while (at(Token::Kind::Ident) || at(Token::Kind::Int)) {
                s += cur().text;
                ++pos_;
            }
            if (s.size() % 2 != 0) {
                error(data, ".hex needs an even number of hex digits");
                return sync();
            }
            std::vector<std::uint8_t> bytes;
            bytes.reserve(s.size() / 2);
            for (std::size_t i = 0; i < s.size(); i += 2) {
                int hi = hexVal(s[i]), lo = hexVal(s[i + 1]);
                if (hi < 0 || lo < 0) {
                    error(data, std::string(".hex has a non-hex digit '") +
                                    s[i + (hi < 0 ? 0 : 1)] + "'");
                    return sync();
                }
                bytes.push_back(std::uint8_t(hi * 16 + lo));
            }
            if (!endStatement())
                return;
            pending_->bytes.insert(pending_->bytes.end(), bytes.begin(),
                                   bytes.end());
            return;
        }
        if (d == ".func") {
            flushData();
            if (inFunction_) {
                error(tok, ".func inside function '" + fn_.name() +
                               "' (missing .endfunc?)");
                sync();
                return;
            }
            auto name = parseName("function name");
            if (!name || !endStatement())
                return;
            fn_ = isa::Function(*name);
            labelIds_.clear();
            labelRefs_.clear();
            boundLabels_.clear();
            inFunction_ = true;
            return;
        }
        if (d == ".align") {
            if (!inFunction_) {
                error(tok, ".align outside a function");
                sync();
                return;
            }
            auto a = parseInt();
            if (!a)
                return sync();
            if (*a <= 0 || (*a & (*a - 1)) != 0) {
                error(tok, ".align needs a power-of-two value");
                return sync();
            }
            if (!endStatement())
                return;
            fn_.setAlignment(unsigned(*a));
            return;
        }
        if (d == ".endfunc") {
            if (!inFunction_) {
                error(tok, ".endfunc without .func");
                sync();
                return;
            }
            if (!endStatement())
                return;
            // Undefined labels: every allocated-but-unbound id was
            // first used by a reference; report each at that site.
            for (const auto &[name, id] : labelIds_) {
                if (boundLabels_.count(id))
                    continue;
                const auto &ref = labelRefs_[id];
                result_.errors.push_back(
                    {ref.line, ref.col,
                     "undefined label '" + name + "' in function '" +
                         fn_.name() + "'"});
            }
            mod_.addFunction(std::move(fn_));
            inFunction_ = false;
            return;
        }
        error(tok, "unknown directive '" + d + "'");
        sync();
    }

    void
    parseLabel()
    {
        const Token tok = cur();
        const std::string name = tok.text;
        pos_ += 2; // ident, colon
        if (!inFunction_) {
            error(tok, "label '" + name + "' outside a function");
            sync();
            return;
        }
        const std::int32_t id = labelId(name);
        if (boundLabels_.count(id)) {
            error(tok, "duplicate label '" + name + "' in function '" +
                           fn_.name() + "'");
            sync();
            return;
        }
        fn_.bindLabel(id, std::uint32_t(fn_.insts().size()));
        boundLabels_.insert(id);
        // A label may share a line with its instruction.
        if (at(Token::Kind::Newline))
            ++pos_;
    }

    std::int32_t
    refLabel()
    {
        const Token tok = cur();
        auto name = parseName("label");
        if (!name)
            return isa::no_target;
        const bool fresh = !labelIds_.count(*name);
        const std::int32_t id = labelId(*name);
        if (fresh)
            labelRefs_[id] = {tok.line, tok.col};
        return id;
    }

    void
    parseInstruction()
    {
        const Token tok = cur();
        if (!inFunction_) {
            error(tok, "instruction '" + tok.text + "' outside a function");
            sync();
            return;
        }
        // "mv rd, rs" assembles as "addi rd, rs, 0", matching
        // ProgramBuilder::mv (there is no Mv opcode).
        if (tok.text == "mv") {
            ++pos_;
            auto rd = parseReg();
            if (!rd || !expectComma())
                return sync();
            auto rs = parseReg();
            if (!rs || !endStatement())
                return;
            fn_.insts().push_back(
                isa::makeRI(Opcode::Addi, *rd, *rs, 0));
            return;
        }
        auto op = opcodeByName(tok.text);
        if (!op) {
            error(tok, "unknown opcode '" + tok.text + "'");
            sync();
            return;
        }
        ++pos_;
        switch (shapeOf(*op)) {
          case Shape::RRR: {
            auto rd = parseReg();
            if (!rd || !expectComma())
                return sync();
            auto rs1 = parseReg();
            if (!rs1 || !expectComma())
                return sync();
            auto rs2 = parseReg();
            if (!rs2 || !endStatement())
                return;
            fn_.insts().push_back(isa::makeRR(*op, *rd, *rs1, *rs2));
            return;
          }
          case Shape::RRI: {
            auto rd = parseReg();
            if (!rd || !expectComma())
                return sync();
            auto rs1 = parseReg();
            if (!rs1 || !expectComma())
                return sync();
            auto imm = parseInt();
            if (!imm || !endStatement())
                return;
            fn_.insts().push_back(isa::makeRI(*op, *rd, *rs1, *imm));
            return;
          }
          case Shape::RI: {
            auto rd = parseReg();
            if (!rd || !expectComma())
                return sync();
            auto imm = parseInt();
            if (!imm || !endStatement())
                return;
            fn_.insts().push_back(isa::makeLi(*rd, *imm));
            return;
          }
          case Shape::RSym: {
            auto rd = parseReg();
            if (!rd || !expectComma())
                return sync();
            auto sym = parseName("global name");
            if (!sym || !endStatement())
                return;
            fn_.insts().push_back(isa::makeLa(*rd, std::move(*sym)));
            return;
          }
          case Shape::Mem: {
            auto rdata = parseReg();
            if (!rdata || !expectComma())
                return sync();
            auto rbase = parseReg();
            if (!rbase)
                return sync();
            std::int64_t off = 0;
            if (at(Token::Kind::Comma)) {
                ++pos_;
                auto o = parseInt();
                if (!o)
                    return sync();
                off = *o;
            }
            if (!endStatement())
                return;
            fn_.insts().push_back(isa::makeMem(*op, *rdata, *rbase, off));
            return;
          }
          case Shape::RRLabel: {
            auto rs1 = parseReg();
            if (!rs1 || !expectComma())
                return sync();
            auto rs2 = parseReg();
            if (!rs2 || !expectComma())
                return sync();
            const std::int32_t id = refLabel();
            if (id == isa::no_target || !endStatement())
                return;
            fn_.insts().push_back(isa::makeBranch(*op, *rs1, *rs2, id));
            return;
          }
          case Shape::Label: {
            const std::int32_t id = refLabel();
            if (id == isa::no_target || !endStatement())
                return;
            fn_.insts().push_back(isa::makeJmp(id));
            return;
          }
          case Shape::Sym: {
            auto sym = parseName("function name");
            if (!sym || !endStatement())
                return;
            fn_.insts().push_back(isa::makeCall(std::move(*sym)));
            return;
          }
          case Shape::None: {
            if (!endStatement())
                return;
            fn_.insts().push_back(*op == Opcode::Ret ? isa::makeRet()
                                                     : isa::makeHalt());
            return;
          }
          case Shape::NopShape: {
            std::int64_t width = 1;
            if (at(Token::Kind::Int)) {
                auto w = parseInt();
                if (!w)
                    return sync();
                width = *w;
            }
            if (width < 1 || width > 15) {
                error(tok, "nop width must be 1..15");
                return sync();
            }
            if (!endStatement())
                return;
            fn_.insts().push_back(isa::makeNop(unsigned(width)));
            return;
          }
        }
    }

    static int
    hexVal(char c)
    {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    }

    std::vector<Token> toks_;
    std::size_t pos_ = 0;
    AsmResult result_;

    isa::Module mod_;
    bool openModule_ = false;

    /** An open .data block, buffered until its .hex lines end. */
    struct PendingData
    {
        std::string name;
        unsigned align = 8;
        std::vector<std::uint8_t> bytes;
        Token tok; ///< the .data token, for diagnostics
    };
    std::optional<PendingData> pending_;

    isa::Function fn_;
    bool inFunction_ = false;
    std::map<std::string, std::int32_t> labelIds_;
    std::map<std::int32_t, LabelRef> labelRefs_;
    std::set<std::int32_t> boundLabels_;
};

} // namespace

std::string
AsmError::str(std::string_view filename) const
{
    std::ostringstream os;
    if (!filename.empty())
        os << filename << ':';
    os << line << ':' << col << ": " << message;
    return os.str();
}

std::string
AsmResult::errorText(std::string_view filename) const
{
    std::string out;
    for (const auto &e : errors) {
        out += e.str(filename);
        out += '\n';
    }
    return out;
}

AsmResult
assemble(std::string_view text)
{
    auto &reg = obs::Registry::global();
    reg.counter("asm.assemble").add();
    obs::ScopedSpan span("asm.assemble", "lang",
                         &reg.histogram("asm.assemble_us"));
    return Parser(text).run();
}

AsmResult
assembleFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        AsmResult r;
        r.errors.push_back({0, 0, "cannot open '" + path + "'"});
        return r;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return assemble(ss.str());
}

} // namespace mbias::lang
