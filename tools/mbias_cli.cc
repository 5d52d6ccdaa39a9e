/**
 * @file
 * The mbias command-line tool: run workloads, measure bias, trace
 * causes, and print the survey without writing C++.
 *
 * Usage:
 *   mbias list
 *   mbias fig <id>      render one registered figure (fig3, or 3)
 *   mbias table <id>    render one registered table (table2, or 2)
 *   mbias all           render every registered figure/table in order
 *   mbias run      --workload perl [--vendor gcc] [--opt O2]
 *                  [--machine core2like] [--env N] [--link-seed S]
 *                  [--counters]
 *   mbias bias     --workload perl [--factor env|link|both]
 *                  [--setups N>=2] [--machine M] [--vendor V]
 *   mbias campaign --workload perl [--factor env|link|both]
 *                  [--setups N>=2] [--resume] [--out PATH]
 *                  [--aslr-reps K>=1] [--no-store] [--provenance]
 *   mbias analyze  [--store PATH]
 *   mbias obs-summary [--store PATH]
 *   mbias causal   --workload perl [--factor env|link] [--setups N>=3]
 *                  [--explain]
 *   mbias explain  --workload perl --setup SPEC --setup SPEC
 *                  [--figure fig3|fig7] [--json PATH] [--heatmap PATH]
 *                  [--top K]
 *   mbias variance --workload perl [--env N] [--reps K>=2]
 *                  [--setups N>=2]
 *   mbias survey
 *
 * The shared pipeline flags --jobs/--seed/--resamples/--confidence/
 * --trace/--quiet/--verbose are parsed once, by the same
 * pipeline::parsePipelineArgs the throughput microbenches use, and
 * mean the same thing for every subcommand that consumes
 * them (per-command defaults match the historical ones, e.g. analyze
 * still defaults --resamples to 1000).  Every integer flag uses the
 * same grammar (pipeline::parseUint), and a count below what the
 * command's analysis needs is fatal.  So is a flag the command does
 * not read (see commands()), a value flag given without its value,
 * and a positional argument past the command's arity (`mbias table 2
 * 3`): a typo never runs the defaults silently.
 *
 * bias, variance and causal measure like the figures do: through a
 * pipeline::FigureContext, as campaigns on the campaign engine.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>

#include <unistd.h>

#include "base/logging.hh"
#include "campaign/engine.hh"
#include "campaign/store.hh"
#include "core/bias.hh"
#include "core/causal.hh"
#include "core/conclusion.hh"
#include "core/explain.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/encoding.hh"
#include "toolchain/loader.hh"
#include "core/manifest.hh"
#include "core/variance.hh"
#include "figures.hh"
#include "lang/asm_workload.hh"
#include "lang/assembler.hh"
#include "lang/disassembler.hh"
#include "lang/fuzzer.hh"
#include "obs/metrics.hh"
#include "pipeline/context.hh"
#include "pipeline/driver.hh"
#include "pipeline/options.hh"
#include "sim/machine.hh"
#include "survey/analyzer.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr std::uint64_t kMaxSeed =
    std::numeric_limits<std::uint64_t>::max();

struct Args
{
    std::string command;

    /** Positional arguments after the command (figure/table ids). */
    std::vector<std::string> positionals;

    /** Command-specific --key [value] options. */
    std::map<std::string, std::string> options;

    /** Every --setup SPEC, in order (the options map keeps only the
     *  last occurrence of a repeated key; explain needs both). */
    std::vector<std::string> setupSpecs;

    /** The shared pipeline flags (pipeline::parsePipelineArgs). */
    pipeline::PipelineOptions shared;

    std::string
    get(const std::string &key, const std::string &dflt) const
    {
        auto it = options.find(key);
        return it == options.end() ? dflt : it->second;
    }

    /** A decimal in [0, @p max] in the shared flags' grammar
     *  (pipeline::parseUint); anything else is fatal. */
    std::uint64_t
    getInt(const std::string &key, std::uint64_t dflt,
           std::uint64_t max = std::numeric_limits<unsigned>::max()) const
    {
        auto it = options.find(key);
        return it == options.end()
                   ? dflt
                   : pipeline::parseUint(("--" + key).c_str(),
                                         it->second.c_str(), max);
    }

    /** A count flag the command's analysis needs at least @p min of. */
    unsigned
    getCount(const std::string &key, unsigned dflt, unsigned min) const
    {
        const auto v = getInt(key, dflt);
        if (v < min)
            mbias_fatal("--", key, " must be >= ", min, " for ", command);
        return unsigned(v);
    }
};

/** One subcommand: its name, the flags it reads, how many positional
 *  arguments it takes, and its body. */
struct Command
{
    /** Positional arity of a command that checks its own (asm). */
    static constexpr std::size_t kAnyPositionals =
        std::numeric_limits<std::size_t>::max();

    const char *name;
    /** The command's own value flags (`--env 64`); --asm-dir and the
     *  shared pipeline flags are accepted by every command. */
    std::vector<std::string> flags;
    /** Its switches (`--counters`), which take no value. */
    std::vector<std::string> switches;
    /** The most positional arguments it takes (fig/table: the id);
     *  one more is fatal. */
    std::size_t positionals;
    int (*run)(const Args &);
};

const Command *findCommand(const std::string &name);

bool
listed(const std::vector<std::string> &list, const std::string &key)
{
    return std::find(list.begin(), list.end(), key) != list.end();
}

/** A flag @p cmd does not read is fatal: a typo must not run the
 *  defaults it would have overridden. */
void
checkFlag(const Command &cmd, const std::string &key)
{
    if (key == "asm-dir" || listed(cmd.flags, key) ||
        listed(cmd.switches, key))
        return;
    std::string accepted;
    for (const auto *list : {&cmd.flags, &cmd.switches})
        for (const std::string &f : *list)
            accepted += "--" + f + " ";
    mbias_fatal("unknown flag --", key, " for mbias ", cmd.name,
                " (it takes ", accepted,
                "--asm-dir and the shared --jobs --seed --resamples "
                "--confidence --trace --quiet --verbose)");
}

Args
parseArgs(int argc, char **argv)
{
    // One pass of the shared grammar first; whatever it does not
    // recognize (the subcommand, ids, command-specific flags) comes
    // back in order and is interpreted here.
    auto parsed = pipeline::parsePipelineArgs(argc, argv);
    Args args;
    args.shared = std::move(parsed.options);
    const auto &rest = parsed.rest;
    std::size_t i = 0;
    if (i < rest.size() && rest[i].rfind("--", 0) != 0)
        args.command = rest[i++];
    const Command *cmd = findCommand(args.command);
    if (!cmd)
        return args; // main prints the usage
    for (; i < rest.size(); ++i) {
        const std::string &a = rest[i];
        if (a.rfind("--", 0) == 0) {
            const std::string key = a.substr(2);
            checkFlag(*cmd, key);
            if (listed(cmd->switches, key))
                args.options[key] = "1";
            else if (i + 1 < rest.size() && rest[i + 1].rfind("--", 0) != 0)
                args.options[key] = rest[++i];
            else
                mbias_fatal("missing value for --", key);
            if (key == "setup")
                args.setupSpecs.push_back(args.options[key]);
        } else if (args.options.empty() &&
                   args.positionals.size() < cmd->positionals) {
            args.positionals.push_back(a);
        } else {
            mbias_fatal("unexpected argument '", a, "' for mbias ",
                        cmd->name);
        }
    }
    return args;
}

void writeTextFile(const std::filesystem::path &path,
                   const std::string &content);

sim::MachineConfig
machineByName(const std::string &name)
{
    const auto &reg = sim::MachineRegistry::global();
    if (const sim::MachineBackend *b = reg.byName(name))
        return b->config;
    mbias_fatal("unknown machine '", name, "' (try ",
                reg.namesJoined(), ")");
}

toolchain::CompilerVendor
vendorByName(const std::string &name)
{
    if (name == "gcc")
        return toolchain::CompilerVendor::GccLike;
    if (name == "icc")
        return toolchain::CompilerVendor::IccLike;
    mbias_fatal("unknown vendor '", name, "' (try gcc, icc)");
}

toolchain::OptLevel
optByName(const std::string &name)
{
    if (name == "O0")
        return toolchain::OptLevel::O0;
    if (name == "O1")
        return toolchain::OptLevel::O1;
    if (name == "O2")
        return toolchain::OptLevel::O2;
    if (name == "O3")
        return toolchain::OptLevel::O3;
    mbias_fatal("unknown opt level '", name, "' (try O0..O3)");
}

core::SetupSpace
spaceByFactor(const std::string &factor)
{
    core::SetupSpace space;
    if (factor == "env")
        return space.varyEnvSize();
    if (factor == "link")
        return space.varyLinkOrder();
    if (factor == "both")
        return space.varyEnvSize().varyLinkOrder();
    mbias_fatal("unknown factor '", factor, "' (try env, link, both)");
}

core::ExperimentSpec
specFromArgs(const Args &args)
{
    core::ExperimentSpec spec;
    spec.withWorkload(args.get("workload", "perl"))
        .withMachine(machineByName(args.get("machine", "core2like")));
    const auto vendor = vendorByName(args.get("vendor", "gcc"));
    spec.withBaseline({vendor, optByName(args.get("baseline", "O2"))})
        .withTreatment({vendor, optByName(args.get("treatment", "O3"))});
    spec.withScale(unsigned(args.getInt("scale", 1)));
    return spec;
}

const char *
kindName(pipeline::FigureSpec::Kind kind)
{
    switch (kind) {
      case pipeline::FigureSpec::Kind::Figure:
        return "figure";
      case pipeline::FigureSpec::Kind::Table:
        return "table";
      case pipeline::FigureSpec::Kind::Ablation:
        return "ablation";
    }
    return "?";
}

/** The workload table: builtins first, then anything registered at
 *  runtime (.asm manifests via --asm-dir, fuzzer programs), with the
 *  provenance of each. */
void
printWorkloads()
{
    core::TextTable t({"workload", "archetype", "source", "description"});
    for (const auto &e : workloads::Registry::instance().entries())
        t.addRow({e.workload->name(), e.workload->archetype(), e.source,
                  e.workload->description()});
    std::printf("%s\n", t.str().c_str());
    // Which interpreter these workloads will run on (provenance for
    // perf deltas between hosts/builds; results are tier-invariant),
    // and which machine backends are registered — with their core
    // models, since tier availability follows the core model.
    std::printf("sim tier: %s\n", sim::activeSimTierDescription().c_str());
    std::string backends;
    for (const auto &b : sim::MachineRegistry::global().backends()) {
        if (!backends.empty())
            backends += ", ";
        backends += b.config.name + " (" + b.coreModel + ")";
    }
    std::printf("machine backends: %s\n\n", backends.c_str());
}

int
cmdWorkloads()
{
    printWorkloads();
    return 0;
}

int
cmdList()
{
    printWorkloads();

    core::TextTable figs({"id", "kind", "description"});
    for (const auto &spec : pipeline::FigureRegistry::instance().all())
        figs.addRow({spec.id, kindName(spec.kind), spec.title});
    std::printf("%s\n", figs.str().c_str());
    std::printf("render with `mbias fig <id>`, `mbias table <id>`, or "
                "`mbias all [--jobs N]`\n\n");
    std::printf("machines: %s\n",
                sim::MachineRegistry::global().namesJoined().c_str());
    std::printf("vendors : gcc, icc   opt levels: O0..O3\n");
    return 0;
}

/**
 * `mbias fig 3` and `mbias fig fig3` name the same spec, as do
 * `mbias table 1` and `mbias table table1`: bare numbers get the
 * command's prefix, everything else is looked up as an id.
 */
std::string
normalizeFigureId(const std::string &prefix, const std::string &id)
{
    if (!id.empty() && id.find_first_not_of("0123456789") ==
                           std::string::npos)
        return prefix + id;
    return id;
}

int
cmdFigure(const Args &args, const std::string &prefix)
{
    if (args.positionals.empty())
        mbias_fatal("usage: mbias ", prefix,
                    " <id> (see `mbias list`)");
    const std::string id =
        normalizeFigureId(prefix, args.positionals.front());
    const pipeline::FigureSpec *spec =
        pipeline::FigureRegistry::instance().find(id);
    if (!spec)
        mbias_fatal("unknown figure/table '", id,
                    "' (see `mbias list`)");
    return pipeline::runFigure(*spec, args.shared);
}

int
cmdAll(const Args &args)
{
    return pipeline::runEveryFigure(args.shared);
}

int
cmdRun(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    spec.baseline = {vendorByName(args.get("vendor", "gcc")),
                     optByName(args.get("opt", "O2"))};
    core::ExperimentRunner runner(spec);
    core::ExperimentSetup setup;
    setup.envBytes =
        args.getInt("env", 0, core::ExperimentSetup::kMaxEnvBytes);
    if (args.options.count("link-seed"))
        setup.linkOrder = toolchain::LinkOrder::shuffled(
            args.getInt("link-seed", 0, kMaxSeed));

    auto rr = runner.runSide(spec.baseline, setup);
    std::printf("%s %s at %s on %s\n", spec.workload.c_str(),
                spec.baseline.str().c_str(), setup.str().c_str(),
                spec.machine.name.c_str());
    std::printf("  result       = %llu\n",
                (unsigned long long)rr.result);
    std::printf("  instructions = %llu\n",
                (unsigned long long)rr.instructions());
    std::printf("  cycles       = %llu (CPI %.3f)\n",
                (unsigned long long)rr.cycles(), rr.cpi());
    if (args.options.count("counters"))
        std::printf("%s", rr.counters.str().c_str());
    if (args.options.count("manifest"))
        std::printf("\n%s",
                    core::SetupManifest::describe(spec, setup).c_str());
    return 0;
}

int
cmdBias(const Args &args)
{
    const unsigned n = args.getCount("setups", 31, 2);
    pipeline::FigureContext ctx(args.shared);
    const std::uint64_t seed = ctx.seed(42);
    // The sequential sample keeps the historical setups; the campaign
    // seed keys the bootstrap streams under --resamples.
    const auto report =
        ctx.run(campaign::CampaignSpec()
                    .withExperiment(specFromArgs(args))
                    .withSetups(pipeline::sequentialSetups(
                        spaceByFactor(args.get("factor", "both")), n,
                        seed))
                    .withSeed(seed))
            .bias;
    std::printf("%s\n", report.str().c_str());
    auto check = core::ConclusionChecker().check(report);
    std::printf("%s", check.str().c_str());
    return 0;
}

int
cmdCampaign(const Args &args)
{
    campaign::CampaignSpec cspec;
    cspec.withExperiment(specFromArgs(args))
        .withSpace(spaceByFactor(args.get("factor", "both")),
                   args.getCount("setups", 31, 2))
        .withSeed(args.shared.seedOr(42));
    if (args.options.count("aslr-reps"))
        cspec.withPlan({campaign::RepetitionPlan::Kind::AslrRandomized,
                        args.getCount("aslr-reps", 7, 1)});

    campaign::CampaignOptions opts;
    opts.jobs = args.shared.jobs;
    opts.outPath = args.options.count("no-store")
                       ? std::string()
                       : args.get("out", "results/campaign.jsonl");
    opts.resume = args.options.count("resume") > 0;
    opts.confidence = args.shared.confidenceOr(0.95);
    opts.resamples = args.shared.resamplesOr(0);
    // The in-place progress line is for humans watching a terminal;
    // logs and pipes get clean output.
    opts.progress = loggingEnabled() && isatty(fileno(stderr));

    campaign::CampaignEngine engine(cspec, opts);
    auto report = engine.run();
    std::printf("%s", report.str().c_str());
    auto check = core::ConclusionChecker().check(report.bias);
    std::printf("%s", check.str().c_str());
    if (!opts.outPath.empty())
        std::printf("result store    : %s (rerun with --resume to "
                    "extend or recover; inspect with obs-summary)\n",
                    opts.outPath.c_str());
    if (!args.shared.tracePath.empty())
        std::printf("trace           : %s (open in Perfetto: "
                    "https://ui.perfetto.dev)\n",
                    args.shared.tracePath.c_str());
    if (args.shared.verbose) {
        std::printf("metrics:\n%s", report.metrics.str().c_str());
        std::printf("provenance:\n%s", report.provenance.str().c_str());
    } else if (args.options.count("provenance")) {
        std::printf("provenance:\n%s", report.provenance.str().c_str());
    }
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    const std::string path =
        args.get("store", args.get("out", "results/campaign.jsonl"));
    if (FILE *f = std::fopen(path.c_str(), "rb"))
        std::fclose(f);
    else
        mbias_fatal("no result store at '", path,
                    "' (run `mbias campaign --out ", path,
                    "` first, or pass --store)");
    campaign::AnalyzeOptions opts;
    opts.jobs = args.shared.jobs;
    opts.resamples = args.shared.resamplesOr(1000);
    opts.confidence = args.shared.confidenceOr(0.95);
    opts.seed = args.shared.seedOr(42);
    obs::Registry metrics;
    if (args.shared.verbose)
        opts.metrics = &metrics;
    const auto analysis = campaign::analyzeStore(path, opts);
    std::printf("%s", analysis.str().c_str());
    if (args.shared.verbose)
        std::printf("metrics:\n%s", metrics.snapshot().str().c_str());
    return 0;
}

int
cmdObsSummary(const Args &args)
{
    const std::string path =
        args.get("store", args.get("out", "results/campaign.jsonl"));
    const auto summary = campaign::summarizeStore(path);
    if (summary.records == 0 && summary.provenanceJson.empty())
        mbias_fatal("no result store at '", path,
                    "' (run `mbias campaign --out ", path,
                    "` first, or pass --store)");
    std::printf("%s", summary.str().c_str());
    return 0;
}

int
cmdCausal(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    auto space = spaceByFactor(args.get("factor", "env"));
    auto setups = space.grid(args.getCount("setups", 32, 3));
    pipeline::FigureContext ctx(args.shared);
    core::CausalAnalyzer analyzer;
    analyzer.withSweep(ctx.causalSweep());
    if (args.options.count("explain"))
        analyzer.withMechanismEvidence();
    auto report = analyzer.analyze(spec, setups);
    std::printf("%s", report.str().c_str());
    if (!report.mechanismEvidence.empty())
        std::printf("%s", report.mechanismEvidence.c_str());
    return 0;
}

/**
 * `mbias explain`: diff the same workload under two setups and rank
 * the microarchitectural mechanisms behind the cycle delta.  The
 * setups come from two --setup specs, or from a --figure preset:
 * fig3's link-order pair or fig7's env-size pair (both perl on
 * core2like, matching those figures' sweeps).
 */
int
cmdExplain(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    spec.baseline = {vendorByName(args.get("vendor", "gcc")),
                     optByName(args.get("opt", "O2"))};

    std::vector<std::string> specs = args.setupSpecs;
    const std::string figure = args.get("figure", "");
    if (!figure.empty()) {
        if (!specs.empty())
            mbias_fatal("--figure and --setup are mutually exclusive");
        if (figure == "fig3" || figure == "3") {
            // fig3's factor, link order, on fig3's workload: the
            // shuffle perturbs the gshare index streams (the suite's
            // code fits the 32 KiB icache, so predictor aliasing, not
            // capacity, carries the link-order effect on core2like).
            specs = {"link=given", "link=seed:3"};
        } else if (figure == "fig7" || figure == "7") {
            // fig7's env-size factor on its most env-sensitive
            // workload: hmmer's stack-resident DP rows make the
            // stack-alignment line splits plain.
            specs = {"env=0", "env=300"};
            if (!args.options.count("workload"))
                spec.withWorkload("hmmer");
        } else {
            mbias_fatal("unknown --figure '", figure,
                        "' (presets: fig3 = link-order pair, "
                        "fig7 = env-size pair)");
        }
    }
    if (specs.size() != 2)
        mbias_fatal("mbias explain needs exactly two --setup specs "
                    "(e.g. --setup env=0 --setup env=3072), or "
                    "--figure fig3|fig7");

    core::ExperimentSetup a, b;
    std::string error;
    if (!parseSetupSpec(specs[0], a, error))
        mbias_fatal("bad --setup '", specs[0], "': ", error);
    if (!parseSetupSpec(specs[1], b, error))
        mbias_fatal("bad --setup '", specs[1], "': ", error);

    const auto report = core::explainSetupPair(spec, a, b);
    std::printf("%s", report.str(unsigned(args.getInt("top", 8))).c_str());
    std::printf("\n%s", report.heatmaps().c_str());

    const std::string json = args.get("json", "");
    if (!json.empty()) {
        writeTextFile(json, report.toJson() + "\n");
        std::fprintf(stderr, "wrote %s\n", json.c_str());
    }
    const std::string heat = args.get("heatmap", "");
    if (!heat.empty()) {
        writeTextFile(heat, report.heatmaps());
        std::fprintf(stderr, "wrote %s\n", heat.c_str());
    }
    // With --trace, the per-set deltas also land in the session's
    // trace file as counter tracks next to the run spans.
    report.emitCounterTracks();
    return 0;
}

int
cmdVariance(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    core::ExperimentSetup home;
    home.envBytes =
        args.getInt("env", 300, core::ExperimentSetup::kMaxEnvBytes);
    auto peers = core::SetupSpace().varyEnvSize().grid(
        args.getCount("setups", 16, 2));
    const unsigned reps = args.getCount("reps", 15, 2);
    pipeline::FigureContext ctx(args.shared);
    auto report =
        ctx.varianceDecomposition(spec, home, peers, reps, 0xfeed);
    std::printf("%s", report.str().c_str());
    return 0;
}

int
cmdProfile(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    spec.baseline = {vendorByName(args.get("vendor", "gcc")),
                     optByName(args.get("opt", "O2"))};
    const auto &w = workloads::findWorkload(spec.workload);
    toolchain::Compiler cc(spec.baseline.vendor, spec.baseline.level);
    auto objs = cc.compile(w.build(spec.workloadConfig));
    toolchain::Linker linker;
    toolchain::LinkOrder order =
        args.options.count("link-seed")
            ? toolchain::LinkOrder::shuffled(
                  args.getInt("link-seed", 0, kMaxSeed))
            : toolchain::LinkOrder::asGiven();
    auto prog = linker.link(objs, order);
    toolchain::LoaderConfig lc;
    lc.envBytes =
        args.getInt("env", 0, core::ExperimentSetup::kMaxEnvBytes);
    auto image = toolchain::Loader::load(std::move(prog), lc);

    sim::Machine machine(spec.machine);
    sim::Profile profile;
    auto rr = machine.run(image, sim::Machine::kDefaultRunBudget,
                          sim::NoiseModel::none(), &profile);
    std::printf("%s %s at env=%llu link=%s on %s: %llu cycles\n\n",
                spec.workload.c_str(), spec.baseline.str().c_str(),
                (unsigned long long)lc.envBytes, order.str().c_str(),
                spec.machine.name.c_str(),
                (unsigned long long)rr.cycles());
    std::printf("%s", profile.str(unsigned(args.getInt("top", 10))).c_str());
    return 0;
}

int
cmdDisasm(const Args &args)
{
    core::ExperimentSpec spec = specFromArgs(args);
    const auto &w = workloads::findWorkload(spec.workload);
    toolchain::Compiler cc(vendorByName(args.get("vendor", "gcc")),
                           optByName(args.get("opt", "O2")));
    auto objs = cc.compile(w.build(spec.workloadConfig));
    toolchain::Linker linker;
    toolchain::LinkOrder order =
        args.options.count("link-seed")
            ? toolchain::LinkOrder::shuffled(
                  args.getInt("link-seed", 0, kMaxSeed))
            : toolchain::LinkOrder::asGiven();
    auto prog = linker.link(objs, order);

    std::printf("; %s %s-%s, link %s: %zu instructions, code "
                "[0x%llx, 0x%llx), data [0x%llx, 0x%llx)\n",
                spec.workload.c_str(),
                args.get("vendor", "gcc").c_str(),
                args.get("opt", "O2").c_str(), order.str().c_str(),
                prog.code.size(), (unsigned long long)prog.codeBase,
                (unsigned long long)prog.codeEnd,
                (unsigned long long)prog.dataBase,
                (unsigned long long)prog.dataEnd);
    const std::string only = args.get("function", "");
    for (const auto &lf : prog.functions) {
        if (!only.empty() && lf.name() != only)
            continue;
        std::printf("\n%s:  ; base 0x%llx, %llu bytes\n",
                    lf.name().c_str(), (unsigned long long)lf.base,
                    (unsigned long long)lf.bytes);
        for (std::uint32_t i = lf.entryIdx; i < prog.code.size(); ++i) {
            const auto &pi = prog.code[i];
            if (pi.pc >= lf.base + lf.bytes)
                break;
            const auto bytes = toolchain::encode(pi, prog);
            std::string hex;
            for (auto byte : bytes) {
                char buf[4];
                std::snprintf(buf, sizeof(buf), "%02x", byte);
                hex += buf;
            }
            std::printf("  %06llx  %-22s %s\n",
                        (unsigned long long)pi.pc, hex.c_str(),
                        pi.resolved().str().c_str());
        }
    }
    for (const auto &g : prog.globals)
        std::printf("; global %-12s 0x%llx (%llu bytes)\n",
                    g.name().c_str(), (unsigned long long)g.addr,
                    (unsigned long long)g.size());
    return 0;
}

void
writeTextFile(const std::filesystem::path &path,
              const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        mbias_fatal("cannot write '", path.string(), "'");
    out << content;
}

/** The manifest sidecar of one dumped/fuzzed .asm asset. */
std::string
manifestText(const workloads::Workload &w, const std::string &name,
             const std::string &asm_file, bool link_runtime,
             std::uint64_t expect, const lang::FuzzKnobs *knobs)
{
    char buf[64];
    std::string s;
    s += "# generated by `mbias asm dump` / `mbias fuzz`\n";
    s += "[workload]\n";
    s += "name = \"" + name + "\"\n";
    s += "archetype = \"" + w.archetype() + "\"\n";
    s += "description = \"" + w.description() + "\"\n";
    s += "asm = \"" + asm_file + "\"\n";
    s += "entry = \"main\"\n";
    s += std::string("link_runtime = ") +
         (link_runtime ? "true" : "false") + "\n";
    s += "scale = 1\n";
    s += "seed = 12345\n";
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  (unsigned long long)expect);
    s += std::string("expect = ") + buf + "\n";
    if (knobs) {
        s += "\n[factors]\n";
        s += "kernels = " + std::to_string(knobs->kernels) + "\n";
        s += "body_ops = " + std::to_string(knobs->bodyOps) + "\n";
        s += "inner_trips = " + std::to_string(knobs->innerTrips) + "\n";
        s += "outer_trips = " + std::to_string(knobs->outerTrips) + "\n";
        s += "working_set = " + std::to_string(knobs->wsWords * 8) + "\n";
        s += "branch_entropy = " + std::to_string(knobs->entropyBits) +
             "\n";
        s += "pad_nops = " + std::to_string(knobs->padNops) + "\n";
        s += "stack_slots = " + std::to_string(knobs->stackSlots) + "\n";
        s += std::string("stores = ") +
             (knobs->doStores ? "true" : "false") + "\n";
    }
    return s;
}

int
cmdAsm(const Args &args)
{
    const std::string action =
        args.positionals.empty() ? "" : args.positionals[0];
    if (action == "check" || action == "dis") {
        if (args.positionals.size() < 2)
            mbias_fatal("mbias asm ", action, " needs at least one "
                        ".asm file");
        int rc = 0;
        for (std::size_t i = 1; i < args.positionals.size(); ++i) {
            const std::string &file = args.positionals[i];
            const auto res = lang::assembleFile(file);
            if (!res.ok()) {
                std::fprintf(stderr, "%s",
                             res.errorText(file).c_str());
                rc = 1;
                continue;
            }
            if (action == "dis") {
                std::printf("%s", lang::disassemble(res.modules).c_str());
                continue;
            }
            std::size_t funcs = 0, insts = 0;
            for (const auto &m : res.modules) {
                funcs += m.functions().size();
                for (const auto &f : m.functions())
                    insts += f.insts().size();
            }
            std::printf("%s: OK (%zu modules, %zu functions, %zu "
                        "instructions)\n",
                        file.c_str(), res.modules.size(), funcs, insts);
        }
        return rc;
    }
    if (action == "dump") {
        // Writes <name>.asm + <name>.toml for builtin kernels.  The
        // builtin build() already links the runtime, so the asset is
        // self-contained (link_runtime = false) and its manifest name
        // gets an _asm suffix to avoid shadowing the builtin.
        const std::filesystem::path dir =
            args.get("out", "workloads/asm");
        std::filesystem::create_directories(dir);
        std::vector<const workloads::Workload *> todo;
        const std::string only = args.get("workload", "");
        for (const auto *w : workloads::suite())
            if (only.empty() || w->name() == only)
                todo.push_back(w);
        if (todo.empty())
            mbias_fatal("no builtin workload named '", only, "'");
        for (const auto *w : todo) {
            const std::string asm_file = w->name() + ".asm";
            writeTextFile(dir / asm_file,
                          lang::disassemble(w->build({})));
            writeTextFile(dir / (w->name() + ".toml"),
                          manifestText(*w, w->name() + "_asm", asm_file,
                                       false, w->referenceResult({}),
                                       nullptr));
            std::printf("wrote %s and %s.toml\n",
                        (dir / asm_file).string().c_str(),
                        (dir / w->name()).string().c_str());
        }
        return 0;
    }
    mbias_fatal("usage: mbias asm check|dis <file.asm>... | "
                "mbias asm dump [--workload W] [--out DIR]");
}

int
cmdFuzz(const Args &args)
{
    lang::FuzzConfig cfg;
    // --seed is one of the shared pipeline flags, so it lands in
    // args.shared rather than the subcommand options.
    cfg.seed = args.shared.seedOr(1);
    cfg.count = unsigned(args.getInt("count", 64));
    const std::string out = args.get("out", "");
    if (out.empty()) {
        core::TextTable t({"program", "kernels", "body", "trips",
                           "ws bytes", "entropy", "stack", "stores"});
        for (unsigned i = 0; i < cfg.count; ++i) {
            const auto p = lang::fuzzProgram(cfg, i);
            const auto &k = p.knobs;
            t.addRow({p.name, std::to_string(k.kernels),
                      std::to_string(k.bodyOps),
                      std::to_string(k.innerTrips) + "x" +
                          std::to_string(k.outerTrips),
                      std::to_string(k.wsWords * 8),
                      std::to_string(k.entropyBits) + "b",
                      std::to_string(k.stackSlots),
                      k.doStores ? "yes" : "no"});
        }
        std::printf("%s\n", t.str().c_str());
        std::printf("write the corpus with --out DIR (one .asm + .toml "
                    "per program)\n");
        return 0;
    }
    const std::filesystem::path dir = out;
    std::filesystem::create_directories(dir);
    for (unsigned i = 0; i < cfg.count; ++i) {
        auto prog = lang::fuzzProgram(cfg, i);
        const std::string name = prog.name;
        const lang::FuzzKnobs knobs = prog.knobs;
        writeTextFile(dir / (name + ".asm"),
                      lang::disassemble(prog.modules));
        auto w = lang::makeFuzzWorkload(std::move(prog));
        writeTextFile(dir / (name + ".toml"),
                      manifestText(*w, name, name + ".asm", true,
                                   w->referenceResult({}), &knobs));
    }
    std::printf("wrote %u programs (seed %llu) to %s\n", cfg.count,
                (unsigned long long)cfg.seed, dir.string().c_str());
    return 0;
}

int
cmdSurvey()
{
    survey::SurveyAnalyzer analyzer(survey::SurveyDatabase::bundled());
    core::TextTable t({"venue", "papers", "eval perf", "variability",
                       "env", "link", "bias"});
    for (const auto &s : analyzer.summarize())
        t.addRow({s.venue, std::to_string(s.papers),
                  std::to_string(s.evaluatePerformance),
                  std::to_string(s.reportVariability),
                  std::to_string(s.reportEnvironment),
                  std::to_string(s.reportLinkOrder),
                  std::to_string(s.addressBias)});
    std::printf("%s", t.str().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mbias <command> [options]\n"
        "  list                           workloads, figures, tables\n"
        "  fig      <id>                  render one figure (fig3 or 3)\n"
        "  table    <id>                  render one table\n"
        "  all                            render every figure/table\n"
        "  run      --workload W [--opt O2] [--env N] [--link-seed S]\n"
        "           [--machine M] [--vendor V] [--counters]\n"
        "           [--manifest]\n"
        "  bias     --workload W [--factor env|link|both] [--setups N]\n"
        "  campaign --workload W [--factor env|link|both] [--setups N]\n"
        "           [--resume] [--out PATH] [--aslr-reps K]\n"
        "           [--no-store] [--provenance]\n"
        "  analyze  [--store PATH]\n"
        "  obs-summary [--store PATH]\n"
        "  causal   --workload W [--factor env|link] [--setups N]\n"
        "           [--explain]  (ship per-set mechanism evidence)\n"
        "  explain  --workload W --setup SPEC --setup SPEC\n"
        "           [--figure fig3|fig7] [--json PATH]\n"
        "           [--heatmap PATH] [--top K]\n"
        "           SPEC = env=BYTES,link=given|alpha|seed:N\n"
        "  variance --workload W [--env N] [--reps K] [--setups N]\n"
        "  profile  --workload W [--opt O] [--env N] [--top K]\n"
        "  disasm   --workload W [--opt O] [--link-seed S]\n"
        "           [--function F]\n"
        "  workloads                      just the workload table\n"
        "  asm      check <f.asm>...      assemble, report diagnostics\n"
        "  asm      dis <f.asm>           print the canonical listing\n"
        "  asm      dump [--workload W] [--out DIR]   write .asm+.toml\n"
        "           assets for builtin kernels (default workloads/asm)\n"
        "  fuzz     [--seed S] [--count N] [--out DIR]  seeded workload\n"
        "           corpus; without --out prints the knob table\n"
        "  survey\n"
        "every command accepts --asm-dir DIR to load *.toml workload\n"
        "manifests (and their .asm) before running; any flag a command\n"
        "does not list is an error, as is a value flag without its value\n"
        "or an argument past the command's <id>/<file> list\n"
        "shared (every command): [--jobs N]\n"
        "        [--seed S] [--resamples R] [--confidence C]\n"
        "        [--trace T.json]\n"
        "        --quiet (silence warn/inform + progress line)\n"
        "        --verbose (force logging on; print the process\n"
        "        metrics at exit; campaign also prints its run's\n"
        "        metrics and provenance)\n");
    return 2;
}

/** The flags specFromArgs reads for every command that builds a spec,
 *  plus @p more (--baseline and --treatment only for the commands
 *  that measure that side). */
std::vector<std::string>
specFlags(std::initializer_list<const char *> more)
{
    std::vector<std::string> flags = {"workload", "machine", "vendor",
                                      "scale"};
    flags.insert(flags.end(), more.begin(), more.end());
    return flags;
}

const std::vector<Command> &
commands()
{
    static const std::vector<Command> table = {
        {"list", {}, {}, 0, [](const Args &) { return cmdList(); }},
        {"workloads", {}, {}, 0,
         [](const Args &) { return cmdWorkloads(); }},
        {"asm", {"workload", "out"}, {}, Command::kAnyPositionals, cmdAsm},
        {"fuzz", {"count", "out"}, {}, 0, cmdFuzz},
        {"fig", {}, {}, 1,
         [](const Args &a) { return cmdFigure(a, "fig"); }},
        {"table", {}, {}, 1,
         [](const Args &a) { return cmdFigure(a, "table"); }},
        {"all", {}, {}, 0, cmdAll},
        {"run", specFlags({"opt", "env", "link-seed"}),
         {"counters", "manifest"}, 0, cmdRun},
        {"bias", specFlags({"baseline", "treatment", "factor", "setups"}),
         {}, 0, cmdBias},
        {"campaign",
         specFlags({"baseline", "treatment", "factor", "setups",
                    "aslr-reps", "out"}),
         {"no-store", "resume", "provenance"}, 0, cmdCampaign},
        {"analyze", {"store", "out"}, {}, 0, cmdAnalyze},
        {"obs-summary", {"store", "out"}, {}, 0, cmdObsSummary},
        {"causal", specFlags({"baseline", "factor", "setups"}), {"explain"},
         0, cmdCausal},
        {"explain",
         specFlags({"opt", "setup", "figure", "json", "heatmap", "top"}),
         {}, 0, cmdExplain},
        {"variance",
         specFlags({"baseline", "treatment", "env", "setups", "reps"}), {},
         0, cmdVariance},
        {"profile", specFlags({"opt", "env", "link-seed", "top"}), {}, 0,
         cmdProfile},
        {"disasm",
         {"workload", "vendor", "scale", "opt", "link-seed", "function"},
         {}, 0, cmdDisasm},
        {"survey", {}, {}, 0, [](const Args &) { return cmdSurvey(); }},
    };
    return table;
}

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : commands())
        if (name == c.name)
            return &c;
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Command *cmd = findCommand(args.command);
    pipeline::applyLogging(args.shared);
    mbias::figures::registerAll();
    // One process-wide trace session for every subcommand, opened
    // before the --asm-dir load so asm.load spans land in the file
    // too.
    pipeline::ScopedTraceSession trace(args.shared.tracePath);
    // Runtime workloads load before dispatch, so every subcommand
    // (list, run, bias, campaign, ...) sees them by name.
    if (args.options.count("asm-dir"))
        lang::loadAsmDirectory(args.options.at("asm-dir"));
    const int rc = cmd ? cmd->run(args) : usage();
    // --verbose surfaces the process-wide metrics (asm.load,
    // asm.assemble, fuzz.generate, ...) for every subcommand.  A
    // campaign's report books only what moved during its run, so the
    // --asm-dir load before it shows up here, not there.
    if (args.shared.verbose) {
        const auto metrics = obs::Registry::global().snapshot();
        if (!metrics.empty())
            std::printf("process metrics:\n%s", metrics.str().c_str());
    }
    return rc;
}
