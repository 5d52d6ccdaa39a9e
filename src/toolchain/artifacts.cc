#include "toolchain/artifacts.hh"

#include <sstream>
#include <utility>

#include "base/hash.hh"
#include "base/logging.hh"

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
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
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

bool
ArtifactCache::ImageKey::operator==(const ImageKey &o) const
{
    return prog == o.prog && entry == o.entry &&
           config.envBytes == o.config.envBytes &&
           config.spAlign == o.config.spAlign &&
           config.stackTop == o.config.stackTop &&
           config.argvReserve == o.config.argvReserve &&
           config.heapGap == o.config.heapGap &&
           config.aslrSeed == o.config.aslrSeed;
}

bool
ArtifactCache::ImageKey::operator<(const ImageKey &o) const
{
    auto tie = [](const ImageKey &k) {
        return std::tie(k.prog, k.config.envBytes, k.config.spAlign,
                        k.config.stackTop, k.config.argvReserve,
                        k.config.heapGap, k.config.aslrSeed, k.entry);
    };
    return tie(*this) < tie(o);
}

ArtifactCache::ArtifactCache(std::uint64_t byte_budget)
    : byteBudget_(byte_budget)
{
    mbias_assert(byte_budget > 0, "artifact cache budget must be nonzero");
}

ArtifactCache &
ArtifactCache::global()
{
    static ArtifactCache cache;
    return cache;
}

void
ArtifactCache::adjustBytes(std::int64_t delta)
{
    bytes_.fetch_add(std::uint64_t(delta), std::memory_order_relaxed);
}

ArtifactCache::Shard &
ArtifactCache::shardFor(std::uint64_t hash)
{
    return shards_[mix64(hash) & (kShards - 1)];
}

void
ArtifactCache::touch(Shard &s, std::list<LruNode>::iterator it)
{
    s.lru.splice(s.lru.begin(), s.lru, it);
}

void
ArtifactCache::insertNode(Shard &s, LruNode node,
                          std::list<LruNode>::iterator &out)
{
    s.bytes += node.bytes;
    adjustBytes(std::int64_t(node.bytes));
    s.lru.push_front(std::move(node));
    out = s.lru.begin();
}

void
ArtifactCache::evictOver(Shard &s)
{
    const std::uint64_t shard_budget = byteBudget_ / kShards;
    // Never evict the MRU entry: an artifact larger than the shard
    // budget still gets cached (and replaced by the next insert)
    // rather than thrashing on every lookup.
    while (s.bytes > shard_budget && s.lru.size() > 1) {
        const LruNode &victim = s.lru.back();
        switch (victim.kind) {
          case Kind::Compile:
            s.compiles.erase(victim.compileKey);
            break;
          case Kind::Link:
            s.links.erase(victim.linkKey);
            break;
          case Kind::Image:
            s.images.erase(victim.imageKey);
            break;
        }
        s.bytes -= victim.bytes;
        adjustBytes(-std::int64_t(victim.bytes));
        s.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

ModulesPtr
ArtifactCache::compiled(const std::string &key,
                        const std::function<std::vector<isa::Module>()>
                            &produce)
{
    Shard &s = shardFor(std::hash<std::string>{}(key));
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto it = s.compiles.find(key);
        if (it != s.compiles.end()) {
            touch(s, it->second.lru);
            compileHits_.fetch_add(1, std::memory_order_relaxed);
            return it->second.value;
        }
    }

    // Miss: compile outside the lock — compilation is deterministic,
    // so a racing thread producing the same key yields an identical
    // artifact and first-insert-wins below is sound.
    auto built = std::make_shared<CompiledModules>();
    built->modules = produce();
    std::tie(built->fingerprintHi, built->fingerprintLo) =
        fingerprintModules(built->modules);
    built->bytes = approxBytes(built->modules) + sizeof(CompiledModules);
    ModulesPtr value = std::move(built);

    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.compiles.find(key);
    if (it != s.compiles.end()) {
        touch(s, it->second.lru);
        // We did do the work.
        compileMisses_.fetch_add(1, std::memory_order_relaxed);
        return it->second.value;
    }
    LruNode node;
    node.kind = Kind::Compile;
    node.compileKey = key;
    node.bytes = value->bytes;
    Entry<ModulesPtr> entry;
    entry.value = value;
    insertNode(s, std::move(node), entry.lru);
    s.compiles.emplace(key, std::move(entry));
    compileMisses_.fetch_add(1, std::memory_order_relaxed);
    evictOver(s);
    return value;
}

ProgramPtr
ArtifactCache::linked(const ModulesPtr &mods, const LinkOrder &order,
                      const LinkerConfig &config)
{
    mbias_assert(mods, "linked(): null module set");
    LinkKey key;
    key.modHi = mods->fingerprintHi;
    key.modLo = mods->fingerprintLo;
    key.orderFp = order.fingerprint();
    key.configFp = linkerConfigFingerprint(config);

    Shard &s = shardFor(key.modHi ^ mix64(key.modLo) ^
                        mix64(key.orderFp) ^ key.configFp);
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto it = s.links.find(key);
        if (it != s.links.end()) {
            touch(s, it->second.lru);
            linkHits_.fetch_add(1, std::memory_order_relaxed);
            return it->second.value;
        }
    }

    Linker linker(config);
    // The program pins the whole CompiledModules through an aliasing
    // pointer to its module vector.
    auto value = std::make_shared<const LinkedProgram>(
        linker.link(ModuleSetPtr(mods, &mods->modules), order));
    const std::uint64_t bytes = approxBytes(*value);

    std::lock_guard<std::mutex> lock(s.mutex);
    auto it = s.links.find(key);
    if (it != s.links.end()) {
        touch(s, it->second.lru);
        linkMisses_.fetch_add(1, std::memory_order_relaxed);
        return it->second.value;
    }
    LruNode node;
    node.kind = Kind::Link;
    node.linkKey = key;
    node.bytes = bytes;
    Entry<ProgramPtr> entry;
    entry.value = value;
    insertNode(s, std::move(node), entry.lru);
    s.links.emplace(key, std::move(entry));
    linkMisses_.fetch_add(1, std::memory_order_relaxed);
    evictOver(s);
    return value;
}

ProcessImage
ArtifactCache::image(const ProgramPtr &prog, const LoaderConfig &config,
                     const std::string &entry)
{
    mbias_assert(prog, "image(): null program");
    ImageKey key;
    key.prog = prog.get();
    key.config = config;
    key.entry = entry;

    Shard &s = shardFor(
        std::uint64_t(reinterpret_cast<std::uintptr_t>(prog.get())));
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        auto it = s.images.find(key);
        if (it != s.images.end()) {
            touch(s, it->second.lru);
            imageHits_.fetch_add(1, std::memory_order_relaxed);
            const ImageLayout &l = it->second.value;
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
    }

    ProcessImage image = Loader::load(prog, config, entry);

    ImageLayout layout;
    layout.initialSp = image.initialSp;
    layout.stackTop = image.stackTop;
    layout.heapBase = image.heapBase;
    layout.gp = image.gp;
    layout.entryIdx = image.entryIdx;
    layout.pin = prog;
    const std::uint64_t bytes =
        sizeof(ImageLayout) + sizeof(LruNode) + 2 * entry.size() + 64;

    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.images.find(key) == s.images.end()) {
        LruNode node;
        node.kind = Kind::Image;
        node.imageKey = key;
        node.bytes = bytes;
        Entry<ImageLayout> map_entry;
        map_entry.value = std::move(layout);
        insertNode(s, std::move(node), map_entry.lru);
        s.images.emplace(std::move(key), std::move(map_entry));
        evictOver(s);
    }
    imageMisses_.fetch_add(1, std::memory_order_relaxed);
    return image;
}

ArtifactCacheStats
ArtifactCache::stats() const
{
    ArtifactCacheStats st;
    st.compileHits = compileHits_.load(std::memory_order_relaxed);
    st.compileMisses = compileMisses_.load(std::memory_order_relaxed);
    st.linkHits = linkHits_.load(std::memory_order_relaxed);
    st.linkMisses = linkMisses_.load(std::memory_order_relaxed);
    st.imageHits = imageHits_.load(std::memory_order_relaxed);
    st.imageMisses = imageMisses_.load(std::memory_order_relaxed);
    st.evictions = evictions_.load(std::memory_order_relaxed);
    st.bytes = bytes_.load(std::memory_order_relaxed);
    return st;
}

void
ArtifactCache::clear()
{
    for (Shard &s : shards_) {
        std::lock_guard<std::mutex> lock(s.mutex);
        adjustBytes(-std::int64_t(s.bytes));
        s.bytes = 0;
        s.compiles.clear();
        s.links.clear();
        s.images.clear();
        s.lru.clear();
    }
}

} // namespace mbias::toolchain
