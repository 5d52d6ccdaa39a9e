#include "lang/asm_workload.hh"

#include <algorithm>
#include <filesystem>

#include "base/logging.hh"
#include "lang/assembler.hh"
#include "lang/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/machine.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"
#include "workloads/runtime.hh"

namespace mbias::lang
{

AsmWorkload::AsmWorkload(Params params) : params_(std::move(params))
{
    mbias_assert(!params_.name.empty(), "AsmWorkload without a name");
    mbias_assert(!params_.modules.empty(), "AsmWorkload '", params_.name,
                 "' has no modules");
}

std::vector<isa::Module>
AsmWorkload::build(const workloads::WorkloadConfig &cfg) const
{
    if (cfg.scale != params_.config.scale ||
        cfg.seed != params_.config.seed)
        mbias_fatal("asm workload '", params_.name,
                    "' was assembled at scale=", params_.config.scale,
                    " seed=", params_.config.seed,
                    " and cannot run at scale=", cfg.scale,
                    " seed=", cfg.seed,
                    " (regenerate the .asm asset for that config)");
    std::vector<isa::Module> mods = params_.modules;
    if (params_.linkRuntime)
        workloads::appendLibraryModules(mods);
    return mods;
}

std::uint64_t
AsmWorkload::referenceResult(const workloads::WorkloadConfig &cfg) const
{
    if (params_.expect)
        return *params_.expect;
    // The architectural result (a0 at Halt) is independent of layout,
    // machine model, and toolchain, so any fixed setup defines the
    // reference.  Computed once; the run is functional-cheap.
    std::call_once(computeOnce_, [&] {
        toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                               toolchain::OptLevel::O0);
        auto mods = cc.compile(build(cfg));
        toolchain::Linker linker;
        auto prog = linker.link(mods, toolchain::LinkOrder::asGiven());
        auto image = toolchain::Loader::load(std::move(prog), {});
        sim::Machine machine(sim::MachineConfig::core2Like());
        const auto rr = machine.run(image);
        mbias_assert(rr.halted, "asm workload '", params_.name,
                     "' did not halt while computing its reference");
        computed_ = rr.result;
    });
    return computed_;
}

namespace
{

/** The uninstrumented load; loadAsmWorkload wraps it with metrics. */
LoadedWorkload
loadAsmWorkloadImpl(const std::string &manifest_path)
{
    auto fail = [&](std::string why) {
        LoadedWorkload r;
        r.error = manifest_path + ": " + std::move(why);
        return r;
    };

    std::string err;
    const Manifest mf = Manifest::parseFile(manifest_path, &err);
    if (!mf.ok())
        return fail(err);

    AsmWorkload::Params p;
    p.name = mf.getString("workload", "name");
    if (p.name.empty())
        return fail("manifest has no [workload] name");
    const std::string asm_file = mf.getString("workload", "asm");
    if (asm_file.empty())
        return fail("manifest has no [workload] asm file");
    p.archetype = mf.getString("workload", "archetype", "asm");
    p.description =
        mf.getString("workload", "description", "assembled workload");
    p.linkRuntime = mf.getBool("workload", "link_runtime", true);
    p.config.scale = unsigned(mf.getInt("workload", "scale", 1));
    p.config.seed = std::uint64_t(mf.getInt("workload", "seed", 12345));
    if (mf.has("workload", "expect"))
        p.expect = std::uint64_t(mf.getInt("workload", "expect", 0));
    const std::string entry = mf.getString("workload", "entry", "main");
    if (entry != "main")
        return fail("entry must be 'main' (the loader's entry symbol), "
                    "got '" + entry + "'");

    const auto asm_path =
        std::filesystem::path(manifest_path).parent_path() / asm_file;
    AsmResult assembled = assembleFile(asm_path.string());
    if (!assembled.ok())
        return fail("assembly failed:\n" +
                    assembled.errorText(asm_path.string()));
    if (assembled.modules.empty())
        return fail(asm_path.string() + " defines no modules");
    bool has_entry = false;
    for (const auto &m : assembled.modules)
        has_entry = has_entry || m.findFunction(entry) != nullptr;
    if (!has_entry)
        return fail(asm_path.string() + " defines no '" + entry +
                    "' function");
    p.modules = std::move(assembled.modules);

    LoadedWorkload r;
    r.workload = std::make_unique<AsmWorkload>(std::move(p));
    return r;
}

} // namespace

LoadedWorkload
loadAsmWorkload(const std::string &manifest_path)
{
    auto &reg = obs::Registry::global();
    reg.counter("asm.load").add();
    obs::ScopedSpan span("asm.load", "lang", &reg.histogram("asm.load_us"));
    return loadAsmWorkloadImpl(manifest_path);
}

std::size_t
loadAsmDirectory(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    std::vector<fs::path> manifests;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file() && e.path().extension() == ".toml")
            manifests.push_back(e.path());
    if (ec)
        mbias_fatal("cannot read asm workload directory '", dir, "': ",
                    ec.message());
    std::sort(manifests.begin(), manifests.end());

    auto &registry = workloads::Registry::instance();
    for (const auto &path : manifests) {
        auto loaded = loadAsmWorkload(path.string());
        if (!loaded.ok())
            mbias_fatal(loaded.error);
        const std::string err =
            registry.tryAdd(std::move(loaded.workload), path.string());
        if (!err.empty())
            mbias_fatal(err);
    }
    return manifests.size();
}

} // namespace mbias::lang
