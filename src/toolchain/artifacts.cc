#include "toolchain/artifacts.hh"

#include <sstream>
#include <tuple>
#include <utility>

#include "base/hash.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::toolchain
{

namespace
{

/** The shared FNV-1a stream; the 128-bit fingerprint runs two with
 *  different offset bases so a collision must defeat both
 *  independently. */
using Fnv = Fnv1a;

void
hashInstruction(Fnv &f, const isa::Instruction &inst)
{
    f.u64(std::uint64_t(inst.op));
    f.u64((std::uint64_t(inst.rd) << 16) | (std::uint64_t(inst.rs1) << 8) |
          inst.rs2);
    f.u64(std::uint64_t(inst.imm));
    f.u64(std::uint64_t(std::int64_t(inst.target)));
    f.str(inst.sym);
}

void
hashModule(Fnv &f, const isa::Module &m)
{
    f.str(m.name());
    f.u64(m.functions().size());
    for (const auto &fn : m.functions()) {
        f.str(fn.name());
        f.u64(fn.alignment());
        f.u64(fn.insts().size());
        for (const auto &inst : fn.insts())
            hashInstruction(f, inst);
        f.u64(fn.numLabels());
        for (std::size_t id = 0; id < fn.numLabels(); ++id)
            f.u64(fn.labelTarget(std::int32_t(id)));
    }
    f.u64(m.globals().size());
    for (const auto &g : m.globals()) {
        f.str(g.name);
        f.u64(g.size);
        f.u64(g.alignment);
        f.u64(g.init.size());
        f.bytes(g.init.data(), g.init.size());
    }
}

std::uint64_t
linkerConfigFingerprint(const LinkerConfig &c)
{
    Fnv f(kFnv1aOffsetBasis);
    f.u64(c.codeBase);
    f.u64(c.dataPageAlign);
    f.u64(c.dataGap);
    return f.value();
}

/** Heap bytes @p s holds past its own object: none while it fits the
 *  small-string buffer. */
std::uint64_t
heapBytes(const std::string &s)
{
    return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

} // namespace

std::pair<std::uint64_t, std::uint64_t>
fingerprintModules(const std::vector<isa::Module> &modules)
{
    Fnv a(kFnv1aOffsetBasis);     // standard FNV-1a offset basis
    Fnv b(0x9ae16a3b2f90404fULL); // an unrelated odd constant
    a.u64(modules.size());
    b.u64(modules.size());
    for (const auto &m : modules) {
        hashModule(a, m);
        hashModule(b, m);
    }
    return {a.value(), b.value()};
}

std::uint64_t
approxBytes(const std::vector<isa::Module> &modules)
{
    std::uint64_t n = modules.capacity() * sizeof(isa::Module);
    for (const auto &m : modules) {
        n += heapBytes(m.name());
        n += m.functions().capacity() * sizeof(isa::Function);
        for (const auto &fn : m.functions()) {
            n += heapBytes(fn.name());
            n += fn.numLabels() * (sizeof(std::uint32_t) +
                                   sizeof(std::string));
            n += fn.insts().capacity() * sizeof(isa::Instruction);
            for (const auto &inst : fn.insts())
                n += heapBytes(inst.sym);
        }
        n += m.globals().capacity() * sizeof(isa::GlobalData);
        for (const auto &g : m.globals())
            n += heapBytes(g.name) + g.init.capacity();
    }
    return n;
}

std::uint64_t
approxBytes(const LinkedProgram &prog)
{
    // What the link itself holds.  The pinned module set is shared
    // with every other link of it and is counted once, under its
    // compile entry.
    std::uint64_t n = sizeof(LinkedProgram);
    n += prog.code.capacity() * sizeof(PlacedInst);
    n += prog.functions.capacity() * sizeof(LinkedFunction);
    n += prog.globals.capacity() * sizeof(LinkedGlobal);
    n += prog.moduleOrder.capacity() * sizeof(std::string);
    for (const auto &name : prog.moduleOrder)
        n += heapBytes(name);
    return n;
}

std::string
ArtifactCacheStats::str() const
{
    std::ostringstream os;
    os << "compile " << compileHits << "/" << compileHits + compileMisses
       << " link " << linkHits << "/" << linkHits + linkMisses << " image "
       << imageHits << "/" << imageHits + imageMisses << " evictions "
       << evictions << " bytes " << bytes;
    return os.str();
}

std::size_t
ArtifactCache::KeyHash::operator()(const Key &k) const
{
    Fnv1a h;
    h.u64(k.index());
    if (const auto *compile = std::get_if<std::string>(&k)) {
        h.str(*compile);
    } else if (const auto *link = std::get_if<LinkKey>(&k)) {
        h.u64(link->modHi);
        h.u64(link->modLo);
        h.u64(link->orderFp);
        h.u64(link->configFp);
    } else {
        const auto &image = std::get<ImageKey>(k);
        h.u64(std::uint64_t(reinterpret_cast<std::uintptr_t>(image.prog)));
        h.u64(image.config.envBytes);
        h.u64(image.config.spAlign);
        h.u64(image.config.stackTop);
        h.u64(image.config.argvReserve);
        h.u64(image.config.heapGap);
        h.u64(image.config.aslrSeed);
        h.str(image.entry);
    }
    return std::size_t(h.value());
}

ArtifactCache::ArtifactCache(std::uint64_t byte_budget)
    : cache_(byte_budget, decltype(cache_)::Bound::Bytes)
{
}

ArtifactCache &
ArtifactCache::global()
{
    static ArtifactCache cache;
    return cache;
}

template <typename V, typename Build>
V
ArtifactCache::get(const Key &key, Tally &tally, Build &&build)
{
    bool built = false;
    Artifact a = cache_.getOrBuild(key, [&] {
        built = true;
        auto [value, bytes] = build();
        return std::pair<Artifact, std::uint64_t>(std::move(value), bytes);
    });
    (built ? tally.misses : tally.hits)
        .fetch_add(1, std::memory_order_relaxed);
    return std::get<V>(std::move(a));
}

ModulesPtr
ArtifactCache::compiled(const std::string &key,
                        const std::function<std::vector<isa::Module>()>
                            &produce)
{
    obs::ScopedSpan span("toolchain.compile", "toolchain");
    return get<ModulesPtr>(key, compiles_, [&] {
        auto built = std::make_shared<CompiledModules>();
        built->modules = produce();
        std::tie(built->fingerprintHi, built->fingerprintLo) =
            fingerprintModules(built->modules);
        built->bytes = approxBytes(built->modules) + sizeof(CompiledModules);
        const std::uint64_t bytes = built->bytes;
        return std::pair(ModulesPtr(std::move(built)), bytes);
    });
}

ProgramPtr
ArtifactCache::linked(const ModulesPtr &mods, const LinkOrder &order,
                      const LinkerConfig &config)
{
    mbias_assert(mods, "linked(): null module set");
    obs::ScopedSpan span("toolchain.link", "toolchain");
    const LinkKey key{mods->fingerprintHi, mods->fingerprintLo,
                      order.fingerprint(), linkerConfigFingerprint(config)};
    return get<ProgramPtr>(key, links_, [&] {
        // The program pins the whole CompiledModules through an
        // aliasing pointer to its module vector.
        auto prog = std::make_shared<const LinkedProgram>(
            Linker(config).link(ModuleSetPtr(mods, &mods->modules), order));
        const std::uint64_t bytes = approxBytes(*prog);
        return std::pair(std::move(prog), bytes);
    });
}

ProcessImage
ArtifactCache::image(const ProgramPtr &prog, const LoaderConfig &config,
                     const std::string &entry)
{
    mbias_assert(prog, "image(): null program");
    obs::ScopedSpan span("toolchain.load", "toolchain");
    const auto l = get<ImageLayout>(
        ImageKey{prog.get(), config, entry}, images_, [&] {
            const ProcessImage loaded = Loader::load(prog, config, entry);
            // What one layout entry is booked at: the layout, its key
            // and list node, map overhead and two copies of the entry
            // name (a fixed estimate, so artifacts.bytes stays
            // comparable across versions).
            const std::uint64_t bytes = 288 + 2 * entry.size();
            return std::pair(ImageLayout{loaded.initialSp, loaded.stackTop,
                                         loaded.heapBase, loaded.gp,
                                         loaded.entryIdx, prog},
                             bytes);
        });
    ProcessImage image;
    image.program = prog;
    image.loaderConfig = config;
    image.initialSp = l.initialSp;
    image.stackTop = l.stackTop;
    image.heapBase = l.heapBase;
    image.gp = l.gp;
    image.entryIdx = l.entryIdx;
    return image;
}

ArtifactCacheStats
ArtifactCache::stats() const
{
    const auto c = cache_.stats();
    ArtifactCacheStats st;
    st.compileHits = compiles_.hits.load(std::memory_order_relaxed);
    st.compileMisses = compiles_.misses.load(std::memory_order_relaxed);
    st.linkHits = links_.hits.load(std::memory_order_relaxed);
    st.linkMisses = links_.misses.load(std::memory_order_relaxed);
    st.imageHits = images_.hits.load(std::memory_order_relaxed);
    st.imageMisses = images_.misses.load(std::memory_order_relaxed);
    st.evictions = c.evictions;
    st.bytes = c.bytes;
    return st;
}

void
ArtifactCache::clear()
{
    cache_.clear();
}

} // namespace mbias::toolchain
