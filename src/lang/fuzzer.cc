#include "lang/fuzzer.hh"

#include <algorithm>
#include <sstream>

#include "base/logging.hh"
#include "base/random.hh"
#include "isa/builder.hh"
#include "lang/disassembler.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "workloads/workload.hh"

namespace mbias::lang
{

using namespace isa::reg;

namespace
{

/** Emits one drawn body op over x (t1) and the loaded word (t4),
 *  using t5 as scratch.  Returns its instruction count. */
unsigned
emitBodyOp(isa::ProgramBuilder &b, Rng &r)
{
    switch (r.nextBounded(6)) {
      case 0:
        b.add(t1, t1, t4);
        return 1;
      case 1:
        b.xor_(t1, t1, t4);
        return 1;
      case 2:
        b.sub(t1, t4, t1);
        return 1;
      case 3:
        b.li(t5, std::int64_t(r.nextBounded(127) * 2 + 3));
        b.mul(t1, t1, t5);
        return 2;
      case 4: {
        const std::int64_t sh = std::int64_t(1 + r.nextBounded(7));
        b.slli(t5, t1, sh);
        b.xor_(t1, t1, t5);
        return 2;
      }
      default: {
        const std::int64_t sh = std::int64_t(1 + r.nextBounded(7));
        b.srli(t5, t4, sh);
        b.add(t1, t1, t5);
        return 2;
      }
    }
}

} // namespace

FuzzedProgram
fuzzProgram(const FuzzConfig &cfg, unsigned index)
{
    mbias_assert(index < cfg.count, "fuzz index ", index,
                 " out of range for a corpus of ", cfg.count);
    auto &reg = obs::Registry::global();
    reg.counter("fuzz.generate").add();
    obs::ScopedSpan span("fuzz.generate", "lang",
                         &reg.histogram("fuzz.generate_us"));
    Rng r = Rng(cfg.seed).splitAt(index);

    FuzzedProgram prog;
    prog.name =
        "fz" + std::to_string(cfg.seed) + "_" + std::to_string(index);

    FuzzKnobs &k = prog.knobs;
    k.kernels = unsigned(1 + r.nextBounded(3));
    k.bodyOps = unsigned(2 + r.nextBounded(9));
    k.innerTrips = unsigned(32 + r.nextBounded(481));
    k.wsWords = 1u << (6 + r.nextBounded(8)); // 512 B .. 64 KiB
    k.entropyBits = unsigned(r.nextBounded(7));
    k.doStores = r.nextBounded(2) == 1;
    k.padNops = unsigned(r.nextBounded(4));
    k.stackSlots = unsigned(r.nextBounded(3));

    // Pick a dynamic-instruction budget and derive the outer trip
    // count from the (estimated) cost of everything inside it, so
    // every program lands in the same simulate-in-milliseconds band
    // no matter how heavy its inner loop came out.
    const std::uint64_t budget = 20000 + r.nextBounded(130001);
    const std::uint64_t perIter =
        11 + k.bodyOps * 3 / 2 + 2 * k.stackSlots;
    const std::uint64_t perOuter =
        std::uint64_t(k.kernels) * (k.innerTrips * perIter + 20);
    k.outerTrips = unsigned(
        std::clamp<std::uint64_t>(budget / std::max<std::uint64_t>(
                                               perOuter, 1),
                                  2, 200));

    const unsigned ws_bytes = k.wsWords * 8;

    {
        Rng rdata = r.splitAt(0x6461'7461); // "data"
        std::vector<std::uint64_t> words(k.wsWords);
        for (auto &w : words)
            w = rdata.next();
        isa::ProgramBuilder b(prog.name + "_data");
        b.globalWords("ws", words, 64);
        prog.modules.push_back(b.build());
    }

    {
        Rng rbody = r.splitAt(0x626f'6479); // "body"
        isa::ProgramBuilder b(prog.name + "_kern");
        for (unsigned j = 0; j < k.kernels; ++j) {
            const std::string p = "k" + std::to_string(j);
            // p(a0 = ws base, a1 = byte mask, a2 = entry value):
            // innerTrips sweeps of a masked pointer chase with a drawn
            // ALU body; returns the fold of everything it computed.
            b.func(p);
            b.li(t0, k.innerTrips);
            b.mv(t1, a2);
            b.li(t2, 0);
            for (unsigned n = 0; n < k.padNops; ++n)
                b.nop();
            b.label(p + "_loop");
            b.and_(t3, t1, a1);
            b.andi(t3, t3, -8);
            b.add(t3, a0, t3);
            b.ld8(t4, t3, 0);
            // The stack-slot knob makes the loop spill through memory
            // just below sp (free scratch in a leaf): the slot address
            // follows the loader's stack placement, so these programs
            // feel environment-size shifts the way register-resident
            // kernels cannot.
            if (k.stackSlots >= 1)
                b.st8(t1, sp, -8);
            if (k.stackSlots >= 2)
                b.st8(t4, sp, -16);
            for (unsigned n = 0; n < k.bodyOps; ++n)
                emitBodyOp(b, rbody);
            if (k.stackSlots >= 1) {
                b.ld8(t7, sp, -8);
                b.xor_(t2, t2, t7);
            }
            if (k.stackSlots >= 2) {
                b.ld8(t7, sp, -16);
                b.add(t1, t1, t7);
            }
            if (k.entropyBits > 0) {
                // The taken/not-taken split follows the low bits of
                // the loaded word: more mask bits, rarer taken path —
                // the branch-entropy knob.
                b.andi(t6, t4, (std::int64_t(1) << k.entropyBits) - 1);
                b.beq(t6, zero, p + "_skip");
                b.xor_(t2, t2, t1);
                b.jmp(p + "_join");
                b.label(p + "_skip");
                b.add(t2, t2, t1);
                b.label(p + "_join");
            } else {
                b.xor_(t2, t2, t1);
            }
            if (k.doStores)
                b.st8(t1, t3, 0);
            b.addi(t0, t0, -1);
            b.bne(t0, zero, p + "_loop");
            b.add(a0, t2, t1);
            b.ret();
            b.endFunc();
        }
        prog.modules.push_back(b.build());
    }

    {
        isa::ProgramBuilder b(prog.name + "_main");
        b.func("main");
        b.la(s0, "ws");
        b.li(s1, ws_bytes - 1);
        b.li(s2, k.outerTrips);
        b.li(s3, 0); // running checksum
        b.li(s4, std::int64_t(workloads::mix64(cfg.seed ^ index)));
        b.label("outer");
        for (unsigned j = 0; j < k.kernels; ++j) {
            b.mv(a0, s0);
            b.mv(a1, s1);
            b.mv(a2, s4);
            b.call("k" + std::to_string(j));
            b.mv(a1, a0);
            b.mv(a0, s3);
            b.call("rt_cksum");
            b.mv(s3, a0);
            // Evolve the next kernel's entry value so consecutive
            // calls chase different index sequences.
            b.xor_(s4, s4, s3);
            b.addi(s4, s4, std::int64_t(2 * j + 1));
        }
        b.addi(s2, s2, -1);
        b.bne(s2, zero, "outer");
        b.mv(a0, s3);
        b.halt();
        b.endFunc();
        prog.modules.push_back(b.build());
    }

    return prog;
}

std::vector<FuzzedProgram>
fuzzCorpus(const FuzzConfig &cfg)
{
    std::vector<FuzzedProgram> corpus;
    corpus.reserve(cfg.count);
    for (unsigned i = 0; i < cfg.count; ++i)
        corpus.push_back(fuzzProgram(cfg, i));
    return corpus;
}

std::unique_ptr<AsmWorkload>
makeFuzzWorkload(FuzzedProgram prog)
{
    AsmWorkload::Params p;
    p.name = prog.name;
    p.archetype = "fuzz";
    {
        std::ostringstream d;
        d << "fuzzed kernel (kernels=" << prog.knobs.kernels
          << " ws=" << prog.knobs.wsWords * 8 << "B"
          << " entropy=" << prog.knobs.entropyBits << "b"
          << (prog.knobs.doStores ? " stores" : "") << ")";
        p.description = d.str();
    }
    p.modules = std::move(prog.modules);
    p.linkRuntime = true;
    return std::make_unique<AsmWorkload>(std::move(p));
}

std::string
corpusText(const std::vector<FuzzedProgram> &corpus)
{
    std::ostringstream out;
    for (const auto &prog : corpus) {
        const FuzzKnobs &k = prog.knobs;
        out << "; program " << prog.name << "\n"
            << "; knobs: kernels=" << k.kernels
            << " bodyOps=" << k.bodyOps << " innerTrips=" << k.innerTrips
            << " outerTrips=" << k.outerTrips << " wsWords=" << k.wsWords
            << " entropyBits=" << k.entropyBits
            << " padNops=" << k.padNops
            << " stackSlots=" << k.stackSlots
            << " stores=" << (k.doStores ? 1 : 0) << "\n\n"
            << disassemble(prog.modules) << "\n";
    }
    return out.str();
}

} // namespace mbias::lang
