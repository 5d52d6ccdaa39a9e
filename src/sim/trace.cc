#include "sim/trace.hh"

#include <algorithm>
#include <array>

#include "base/bitutils.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::sim
{

using isa::Opcode;

namespace
{

/** Latency class of a simple op: 0 unit, 1 mul, 2 div. */
std::uint8_t
latClassOf(Opcode op)
{
    switch (op) {
      case Opcode::Mul:
        return 1;
      case Opcode::Divu:
      case Opcode::Remu:
        return 2;
      default:
        return 0;
    }
}

/** True for the reg-reg ALU ops (the only simple ops reading rs2). */
bool
readsRs2(Opcode op)
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
        return true;
      default:
        return false;
    }
}

/** True for simple ops reading rs1 (everything but Li and Nop). */
bool
readsRs1(Opcode op)
{
    return op != Opcode::Li && op != Opcode::Nop;
}

/**
 * The value-producing simple ops the batch handler's fn switch
 * implements.  The handler has no default backstop (same contract as
 * the dispatch table: validate at build time), so every FnOp must
 * pass this check.
 */
bool
isFnOpcode(Opcode op)
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
        return true;
      default:
        return false;
    }
}

} // namespace

TraceGeometry
TraceGeometry::of(const MachineConfig &c)
{
    TraceGeometry g;
    g.fetchWidth = c.fetchWidth;
    g.modelBlocks = c.enableFetchBlockModel;
    g.cachesOn = c.enableCaches;
    g.tlbsOn = c.enableTlbs;
    g.fetchBlockBytes = g.modelBlocks ? c.fetchBlockBytes : 0;
    g.ilineBytes = g.cachesOn ? c.icache.lineBytes : 0;
    g.ipageShift =
        g.tlbsOn ? unsigned(floorLog2(c.itlb.pageBytes)) : 0;
    return g;
}

std::shared_ptr<const TracePlan>
TracePlan::build(std::shared_ptr<const ExecutionPlan> base,
                 const TraceGeometry &g)
{
    mbias_assert(base, "cannot trace-translate a null plan");
    mbias_assert(g.fetchWidth > 0, "machines fetch at least one op");

    auto tp = std::make_shared<TracePlan>();
    tp->geometry = g;
    tp->ops = base->ops; // heads rewritten below
    const std::vector<DecodedOp> &ops = base->ops;
    const std::size_t n = ops.size();

    // Superblock heads are the positions dispatch can actually land
    // on from a non-simple op: basic-block leaders plus the successor
    // of every memory op (the only non-control-flow run breakers).
    // Positions *inside* a run are reached only while already walking
    // it per-op (after a guard fallback), and re-engage at the next
    // head anyway.
    std::vector<std::uint8_t> is_entry(n, 0);
    for (std::uint32_t b : base->blockStarts)
        if (b < n)
            is_entry[b] = 1;
    for (std::size_t i = 0; i + 1 < n; ++i)
        if (isa::isLoad(ops[i].op) || isa::isStore(ops[i].op))
            is_entry[i + 1] = 1;

    const unsigned width = g.fetchWidth;
    const Addr fbb = g.fetchBlockBytes;
    const Addr iline = g.ilineBytes;
    const unsigned ipage_shift = g.ipageShift;

    for (std::size_t head = 0; head < n; ++head) {
        if (!is_entry[head] || ops[head].runLen < kMinRunLen)
            continue;

        TraceBlock b;
        b.headOp = ops[head];
        b.headIdx = std::uint32_t(head);
        b.len = ops[head].runLen;
        mbias_assert(head + b.len <= n, "run extends past the program");

        // Dataflow scan over all len ops (head included: the batch
        // handler runs after the head's fetch but before its
        // execution).  defClass[r] >= 0 marks an in-block definition.
        std::array<std::int8_t, isa::reg::numRegs> def_class;
        def_class.fill(-1);
        std::array<std::uint32_t, isa::reg::numRegs> def_pos{};
        auto read_reg = [&](isa::Reg r) {
            if (r == isa::reg::zero)
                return; // regReady[zero] is never written
            if (def_class[r] >= 0)
                b.latClassMask |= std::uint8_t(1u << def_class[r]);
            else
                b.liveInMask |= 1u << r;
        };
        for (std::uint32_t j = 0; j < b.len; ++j) {
            const DecodedOp &o = ops[head + j];
            mbias_assert(o.rd < isa::reg::numRegs && o.rs1 < isa::reg::numRegs &&
                             o.rs2 < isa::reg::numRegs,
                         "register field out of range");
            if (j > 0)
                mbias_assert(o.pc > ops[head + j - 1].pc,
                             "block pcs must ascend");
            if (o.op == Opcode::Nop) {
                ++b.nopCount;
                continue;
            }
            if (readsRs1(o.op))
                read_reg(o.rs1);
            if (readsRs2(o.op))
                read_reg(o.rs2);
            if (o.rd != isa::reg::zero) {
                mbias_assert(isFnOpcode(o.op),
                             "non-simple op inside a simple run");
                def_class[o.rd] = std::int8_t(latClassOf(o.op));
                def_pos[o.rd] = j;
                TraceBlock::FnOp f;
                f.imm = o.imm;
                f.op = o.op;
                f.rd = o.rd;
                f.rs1 = readsRs1(o.op) ? o.rs1 : isa::Reg(0);
                f.rs2 = readsRs2(o.op) ? o.rs2 : isa::Reg(0);
                b.fnOps.push_back(f);
            } else if (readsRs1(o.op)) {
                // rd == zero: functionally dead, but its reads still
                // feed the stall guard above; nothing to execute.
            }
        }

        // Exit regReady[] reconstruction: the last write per register.
        for (unsigned r = 0; r < isa::reg::numRegs; ++r) {
            if (def_class[r] < 0)
                continue;
            TraceBlock::RegWrite w;
            w.reg = isa::Reg(r);
            w.latClass = std::uint8_t(def_class[r]);
            w.pos = def_pos[r];
            b.writes.push_back(w);
        }
        std::sort(b.writes.begin(), b.writes.end(),
                  [](const auto &a, const auto &c) { return a.pos < c.pos; });

        // Icache-line and ITLB-page crossings of ops 1..len-1, exactly
        // as the interpreter's fetch() would walk them given that the
        // head's fetch just ran: lastCodeLine is the head's last line
        // and lastCodePage the head's page, whatever they were before.
        if (g.cachesOn) {
            Addr prev_line =
                alignDown(b.headOp.pc + b.headOp.size - 1, iline);
            for (std::uint32_t j = 1; j < b.len; ++j) {
                const DecodedOp &o = ops[head + j];
                const Addr first = alignDown(o.pc, iline);
                const Addr last = alignDown(o.pc + o.size - 1, iline);
                for (Addr line = first; line <= last; line += iline) {
                    if (line == prev_line)
                        continue;
                    prev_line = line;
                    b.lines.push_back({line, j});
                }
            }
        }
        if (g.tlbsOn) {
            std::uint64_t prev_page = b.headOp.pc >> ipage_shift;
            for (std::uint32_t j = 1; j < b.len; ++j) {
                const DecodedOp &o = ops[head + j];
                const std::uint64_t page = o.pc >> ipage_shift;
                if (page != prev_page) {
                    prev_page = page;
                    b.pages.push_back(
                        {page, (o.pc + o.size - 1) >> ipage_shift, j});
                }
            }
        }

        // Fetch-group schedule per entry state.  After the head's
        // fetch, groupSlots is in [0, width); forceNewGroup is always
        // false; and the active group's block end is statically
        // alignDown(headPc, fbb) + fbb — the group opened at some
        // pc' <= headPc in the same block (pcs only ascend between
        // group openings), so its end is the head's own block end.
        b.rows.resize(width);
        b.writeGroups.assign(std::size_t(b.writes.size()) * width, 0);
        for (unsigned s = 0; s < width; ++s) {
            unsigned slots = s;
            Addr end = g.modelBlocks
                           ? alignDown(b.headOp.pc, fbb) + fbb
                           : ~Addr(0);
            Cycles groups = 0;
            std::size_t wptr = 0;
            while (wptr < b.writes.size() && b.writes[wptr].pos == 0) {
                b.writeGroups[wptr * width + s] = 0;
                ++wptr;
            }
            for (std::uint32_t j = 1; j < b.len; ++j) {
                const DecodedOp &o = ops[head + j];
                const bool new_group =
                    slots == 0 || (g.modelBlocks && o.pc >= end);
                if (new_group) {
                    ++groups;
                    slots = width;
                    end = g.modelBlocks
                              ? alignDown(o.pc, fbb) + fbb
                              : ~Addr(0);
                }
                slots -= 1;
                if (g.modelBlocks && o.pc + o.size > end)
                    slots = 0;
                while (wptr < b.writes.size() &&
                       b.writes[wptr].pos == j) {
                    b.writeGroups[wptr * width + s] = groups;
                    ++wptr;
                }
            }
            b.rows[s] = {groups, slots, end};
        }

        // Rewrite the head in the traced op array: same pc/size (the
        // dispatch macro fetches through them), dispatch tag swapped
        // for the batch handler, target recycled as the block id.
        tp->ops[head].op = kBatchOpcode;
        tp->ops[head].targetIdx = std::uint32_t(tp->blocks.size());
        tp->blocks.push_back(std::move(b));
    }

    tp->base = std::move(base);
    return tp;
}

std::size_t
TraceCache::KeyHash::operator()(const Key &k) const
{
    Fnv1a h;
    h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(k.base)));
    h.u64((std::uint64_t(k.geom.fetchWidth) << 32) |
          k.geom.fetchBlockBytes);
    h.u64((std::uint64_t(k.geom.ilineBytes) << 32) | k.geom.ipageShift);
    h.u64(std::uint64_t(k.geom.modelBlocks) << 2 |
          std::uint64_t(k.geom.cachesOn) << 1 |
          std::uint64_t(k.geom.tlbsOn));
    return std::size_t(h.value());
}

TraceCache::TraceCache(std::size_t capacity) : cache_(capacity) {}

TraceCache &
TraceCache::global()
{
    static TraceCache cache;
    return cache;
}

std::shared_ptr<const TracePlan>
TraceCache::get(const std::shared_ptr<const ExecutionPlan> &base,
                const TraceGeometry &g)
{
    mbias_assert(base, "trace lookup for a null plan");
    return cache_.getOrBuild(Key{base.get(), g}, [&] {
        obs::ScopedSpan span("sim.trace_translate", "sim");
        span.arg("insts", 0); // translation retires nothing
        auto plan = TracePlan::build(base, g);
        superblocks_.fetch_add(plan->blocks.size(),
                               std::memory_order_relaxed);
        return std::pair(std::move(plan), std::uint64_t(1));
    });
}

void
TraceCache::recordRun(std::uint64_t ops_batched,
                      std::uint64_t ops_interpreted,
                      std::uint64_t fallbacks)
{
    opsBatched_.fetch_add(ops_batched, std::memory_order_relaxed);
    opsInterpreted_.fetch_add(ops_interpreted,
                              std::memory_order_relaxed);
    fallbacks_.fetch_add(fallbacks, std::memory_order_relaxed);
}

TraceCache::Stats
TraceCache::stats() const
{
    const auto c = cache_.stats();
    Stats s;
    s.hits = c.hits;
    s.misses = c.misses;
    s.evictions = c.evictions;
    s.superblocks = superblocks_.load(std::memory_order_relaxed);
    s.opsBatched = opsBatched_.load(std::memory_order_relaxed);
    s.opsInterpreted = opsInterpreted_.load(std::memory_order_relaxed);
    s.fallbacks = fallbacks_.load(std::memory_order_relaxed);
    return s;
}

void
TraceCache::clear()
{
    cache_.clear();
}

} // namespace mbias::sim
