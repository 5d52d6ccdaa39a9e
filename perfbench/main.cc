/**
 * mbench: the mbias benchmark binary.  perfbench/run.py builds it and
 * runs it; see perfbench/README.md for the workloads and metrics.
 *
 *   mbench --workload W --seed N --seconds S --trace 0|1 --jobs J
 *          --root DIR --workdir DIR [--spawn-ns T] [--env-pad N]
 *          [--tree H --commit H --dirty 0|1 --source-digest H]
 *          [--setup-only | --setup-samples S1,S2,..] [--print-inputs]
 *          [--corrupt-golden] [--corrupt-spot-check]
 *   mbench compare < samples
 *
 * The last stdout line is the JSON result; the line before it is the
 * run's provenance.  Exit status 0 only when every check passed.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "figures.hh"
#include "layers.hh"
#include "obs/provenance.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/registry.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"
#include "toolchain/artifacts.hh"
#include "workloads.hh"
#include "workloads/registry.hh"

namespace mbench
{
int compareMain();
}

namespace
{

using namespace mbias;
using namespace mbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    Options opts;
    std::int64_t spawnNs = 0;
    std::uint64_t envPad = 0;
    std::string tree = "unknown", commit = "unknown", sourceDigest = "unknown";
    bool dirty = false;
    bool printInputs = false;
    bool setupOnly = false;
    std::vector<double> setupSamples; ///< from earlier --setup-only runs
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "mbench: %s\n(usage: see perfbench/README.md)\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        const auto number = [&]() {
            const std::string v = value();
            char *end = nullptr;
            const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage(("not a number: " + k + ' ' + v).c_str());
            return std::uint64_t(n);
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = number();
        else if (k == "--seconds")
            a.seconds = double(number());
        else if (k == "--trace")
            a.trace = number() != 0;
        else if (k == "--jobs")
            a.opts.jobs = unsigned(std::max<std::uint64_t>(1, number()));
        else if (k == "--root")
            a.opts.root = value();
        else if (k == "--workdir")
            a.opts.workdir = value();
        else if (k == "--spawn-ns")
            a.spawnNs = std::int64_t(number());
        else if (k == "--env-pad")
            a.envPad = number();
        else if (k == "--tree")
            a.tree = value();
        else if (k == "--commit")
            a.commit = value();
        else if (k == "--dirty")
            a.dirty = number() != 0;
        else if (k == "--source-digest")
            a.sourceDigest = value();
        else if (k == "--setup-only")
            a.setupOnly = true;
        else if (k == "--setup-samples") {
            const std::string v = value();
            for (std::size_t p = 0; p < v.size();) {
                std::size_t q = v.find(',', p);
                if (q == std::string::npos)
                    q = v.size();
                a.setupSamples.push_back(std::strtod(v.substr(p, q - p).c_str(),
                                                     nullptr));
                p = q + 1;
            }
        } else if (k == "--print-inputs")
            a.printInputs = true;
        else if (k == "--corrupt-golden")
            a.opts.corruptGolden = true;
        else if (k == "--corrupt-spot-check")
            a.opts.corruptSpotCheck = true;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (a.workload.empty())
        usage("--workload is required");
    a.opts.seed = a.seed;
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The lower quartile (linear interpolation between order statistics;
 * the only value of a one-element list, 0 for none).  Pass times on a
 * shared host mix a fast mode with slow phases that only ever add
 * time; the lower quartile follows the fast mode without hinging on
 * one lucky pass the way the minimum does.
 */
double
lowerQuartile(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double h = 0.25 * double(v.size() - 1);
    const std::size_t i = std::size_t(h);
    const std::size_t j = std::min(i + 1, v.size() - 1);
    return v[i] + (h - double(i)) * (v[j] - v[i]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Every mbias cache a user process fills, emptied before each pass. */
void
clearCaches()
{
    toolchain::ArtifactCache::global().clear();
    sim::PlanCache::global().clear();
    sim::TraceCache::global().clear();
    sim::ReplayCache::global().clear();
}

/** The caches' public stats(), read around one pass. */
struct CacheStats
{
    toolchain::ArtifactCacheStats artifacts;
    sim::PlanCache::Stats plan;
    sim::TraceCache::Stats trace;
    sim::ReplayCache::Stats replay;

    static CacheStats
    read()
    {
        return {toolchain::ArtifactCache::global().stats(),
                sim::PlanCache::global().stats(),
                sim::TraceCache::global().stats(),
                sim::ReplayCache::global().stats()};
    }
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** User plus system CPU seconds of the whole process so far. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/**
 * Seconds of steal so far, summed over the host's CPUs (/proc/stat:
 * time a hypervisor ran something else while this VM's vCPU wanted to
 * run).  0 where the kernel does not report it.
 */
double
stealSeconds()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return 0.0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    return n == 8 ? double(v[7]) / double(sysconf(_SC_CLK_TCK)) : 0.0;
}

/** One timed pass from cold caches. */
struct Timed
{
    PassResult result;
    std::int64_t startNs = 0, endNs = 0;
    double wallS = 0.0;
    double cpuS = 0.0;
    double stealS = 0.0;
    std::uint64_t insts = 0;
    CacheStats before, after;
    std::uint64_t resamples = 0;

    /**
     * The pass's wall seconds less the hypervisor's steal during it,
     * averaged over the CPUs (a vCPU that is stolen from stalls the
     * pass, not the program).  The run reports the lower quartile of
     * these; every raw wall, CPU and steal time is in the provenance
     * line.
     */
    double
    ownS() const
    {
        return wallS - stealS / double(sysconf(_SC_NPROCESSORS_ONLN));
    }
};

Timed
timedPass(Workload &wl, Rng &order)
{
    Timed t;
    clearCaches();
    t.before = CacheStats::read();
    const std::uint64_t insts0 = simInstructions();
    const std::uint64_t res0 = bootstrapResamples();
    const double c0 = cpuSeconds();
    const double s0 = stealSeconds();
    t.startNs = nowNs();
    t.result = wl.pass(order);
    t.endNs = nowNs();
    t.wallS = double(t.endNs - t.startNs) * 1e-9;
    t.cpuS = cpuSeconds() - c0;
    t.stealS = stealSeconds() - s0;
    t.insts = simInstructions() - insts0;
    t.resamples = bootstrapResamples() - res0;
    t.after = CacheStats::read();
    return t;
}

std::vector<Metric>
layerMetrics(const Timed &traced, const LayerSplit &split,
             const Timed &untraced)
{
    const auto &b = traced.before;
    const auto &a = traced.after;
    const auto wall = [&](Layer l) { return split.wallS[std::size_t(l)]; };
    const auto calls = [&](Layer l) {
        return double(split.calls[std::size_t(l)]);
    };
    const auto nsPerInst = [&](Layer l) {
        return ratio(split.threadS[std::size_t(l)] * 1e9,
                     double(split.insts[std::size_t(l)]));
    };
    const double artHits = double(
        (a.artifacts.compileHits - b.artifacts.compileHits) +
        (a.artifacts.linkHits - b.artifacts.linkHits) +
        (a.artifacts.imageHits - b.artifacts.imageHits));
    const double artMisses = double(
        (a.artifacts.compileMisses - b.artifacts.compileMisses) +
        (a.artifacts.linkMisses - b.artifacts.linkMisses) +
        (a.artifacts.imageMisses - b.artifacts.imageMisses));
    const double planHits = double(a.plan.hits - b.plan.hits);
    const double planMisses = double(a.plan.misses - b.plan.misses);
    const double traceHits = double(a.trace.hits - b.trace.hits);
    const double traceMisses = double(a.trace.misses - b.trace.misses);
    const double batched = double(a.trace.opsBatched - b.trace.opsBatched);
    const double interpreted =
        double(a.trace.opsInterpreted - b.trace.opsInterpreted);
    const double replayHits = double(a.replay.hits - b.replay.hits);
    const double replayMisses = double(a.replay.misses - b.replay.misses);

    std::vector<Metric> m = {
        {"toolchain.compile_s", wall(Layer::Compile), "s"},
        {"toolchain.link_s", wall(Layer::Link), "s"},
        {"toolchain.load_s", wall(Layer::Load), "s"},
        {"toolchain.compiles",
         double(a.artifacts.compileMisses - b.artifacts.compileMisses), "count"},
        {"toolchain.links",
         double(a.artifacts.linkMisses - b.artifacts.linkMisses), "count"},
        {"toolchain.loads",
         double(a.artifacts.imageMisses - b.artifacts.imageMisses), "count"},
        {"toolchain.artifact_hit_ratio", ratio(artHits, artHits + artMisses),
         "ratio"},
        {"sim.plan_build_s", wall(Layer::PlanGet), "s"},
        {"sim.plan_builds", planMisses, "count"},
        {"sim.plan_hit_ratio", ratio(planHits, planHits + planMisses), "ratio"},
        {"sim.trace_translate_s", wall(Layer::TraceGet), "s"},
        {"sim.trace_hit_ratio", ratio(traceHits, traceHits + traceMisses),
         "ratio"},
        {"sim.trace_batched_ratio", ratio(batched, batched + interpreted),
         "ratio"},
        {"sim.trace_fallbacks", double(a.trace.fallbacks - b.trace.fallbacks),
         "count"},
        {"sim.run_s", wall(Layer::SimRun), "s"},
        {"sim.runs", calls(Layer::SimRun), "count"},
        {"sim.run_ns_per_inst", nsPerInst(Layer::SimRun), "ns"},
        {"sim.reference_s", wall(Layer::SimRef), "s"},
        {"sim.reference_runs", calls(Layer::SimRef), "count"},
        {"sim.reference_ns_per_inst", nsPerInst(Layer::SimRef), "ns"},
        {"sim.record_s", wall(Layer::SimRecord), "s"},
        {"sim.records", calls(Layer::SimRecord), "count"},
        {"sim.replay_s", wall(Layer::SimReplay), "s"},
        {"sim.replays", calls(Layer::SimReplay), "count"},
        {"sim.replay_ns_per_inst", nsPerInst(Layer::SimReplay), "ns"},
        {"sim.replay_hit_ratio", ratio(replayHits, replayHits + replayMisses),
         "ratio"},
        {"sim.replay_fallbacks",
         double(a.replay.fallbacks - b.replay.fallbacks), "count"},
        {"sim.replay_bytes", double(a.replay.bytes), "B"},
        {"core.explain_s", wall(Layer::Explain), "s"},
        {"core.causal_s", wall(Layer::Causal), "s"},
        {"core.aggregate_s", wall(Layer::Aggregate), "s"},
        {"campaign.expand_s", wall(Layer::Expand), "s"},
        {"campaign.store_append_s", wall(Layer::StoreAppend), "s"},
        {"campaign.store_appends", calls(Layer::StoreAppend), "count"},
        {"campaign.store_read_s", wall(Layer::StoreRead), "s"},
        {"campaign.result_cache_hit_ratio",
         ratio(double(traced.result.resultCacheHits),
               double(traced.result.tasks)),
         "ratio"},
        {"stats.bootstrap_s", wall(Layer::Bootstrap), "s"},
        {"stats.resamples", double(traced.resamples), "count"},
        {"stats.anova_s", wall(Layer::Anova), "s"},
    };
    std::map<std::string, double> figures;
    for (const auto &[id, s] : traced.result.figureSeconds)
        figures[id] = s;
    for (const auto &id : figureIds())
        m.push_back({"pipeline.figure_s." + id, figures[id], "s"});
    m.push_back({"pipeline.unattributed_s", split.unattributedS, "s"});
    m.push_back({"bench.traced_wall_s", traced.wallS, "s"});
    m.push_back({"bench.trace_overhead_frac",
                 ratio(traced.ownS() - untraced.ownS(), untraced.ownS()),
                 "frac"});
    return m;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + '"';
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** @p v as the body of a JSON array. */
std::string
jsonList(const std::vector<double> &v)
{
    std::string out;
    for (double x : v) {
        if (!out.empty())
            out += ',';
        out += jsonNumber(x);
    }
    return out;
}

int
benchMain(const Args &args)
{
    const std::int64_t mainNs = nowNs();
    setLoggingEnabled(false);

    // Set-up: process start (run.py stamps the spawn), the figure,
    // workload and backend registries every entry point builds, and
    // the workload's inputs built from the seed.  run.py measures it
    // in a few --setup-only processes too; setup_s is the median.
    figures::registerAll();
    workloads::suiteNames();
    sim::MachineRegistry::global();
    std::unique_ptr<Workload> wl = makeWorkload(args.workload, args.opts);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());
    wl->setup();
    const std::int64_t readyNs = nowNs();
    std::vector<double> setups = args.setupSamples;
    setups.push_back(double(readyNs - (args.spawnNs > 0 ? args.spawnNs : mainNs)) *
                     1e-9);
    const double setupS = median(setups);
    if (args.setupOnly) {
        std::printf("{\"setup_s\": %.9f}\n", setups.back());
        return 0;
    }
    if (args.printInputs) {
        std::fputs(wl->describeInputs().c_str(), stdout);
        return 0;
    }

    // The paper's remedy applied to this process: run.py padded the
    // environment block from the seed; the pass order is drawn here.
    const std::uint64_t orderSeed = mixSeed(args.seed, 0x0de7);
    Rng order(orderSeed);

    PassResult total;
    const PassResult warm = wl->pass(order); // untimed warm-up
    total.merge(warm);

    std::vector<Metric> metrics;
    std::vector<double> walls, owns, cpus, steals;
    std::uint64_t instsPerPass = 0;
    std::uint64_t tracedDigest = 0;
    const auto checkDigest = [&](const PassResult &r, const char *what) {
        total.merge(r);
        total.check(r.digest == warm.digest,
                    std::string(what) + " digest differs from the warm-up's");
    };
    if (!args.trace) {
        const std::int64_t end = nowNs() + std::int64_t(args.seconds * 1e9);
        do {
            const Timed t = timedPass(*wl, order);
            checkDigest(t.result, "timed pass");
            walls.push_back(t.wallS);
            owns.push_back(t.ownS());
            cpus.push_back(t.cpuS);
            steals.push_back(t.stealS);
            total.check(instsPerPass == 0 || t.insts == instsPerPass,
                        "passes retired different instruction counts");
            instsPerPass = t.insts;
        } while (nowNs() < end);
        total.merge(wl->spotCheck());
        total.check(instsPerPass > 0, "no simulated instruction was counted");
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"setup_s", setupS, "s"},
            {"wall_s", lowerQuartile(owns), "s"},
            {"sim_minsts_per_s",
             ratio(double(instsPerPass) * 1e-6, lowerQuartile(owns)), "Minst/s"},
            {"peak_rss_mib", double(ru.ru_maxrss) / 1024.0, "MiB"},
            {"ok_frac", 1.0 - ratio(double(total.failed),
                                    double(total.attempted)), "frac"},
        };
    } else {
        const Timed untraced = timedPass(*wl, order);
        checkDigest(untraced.result, "untraced pass");
        walls.push_back(untraced.wallS);
        instsPerPass = untraced.insts;

        startTracing();
        const Timed traced = timedPass(*wl, order);
        const auto spans = stopTracing();
        tracedDigest = traced.result.digest;
        checkDigest(traced.result, "traced pass");
        total.merge(wl->spotCheck());
        metrics = layerMetrics(
            traced, splitLayers(spans, traced.startNs, traced.endNs),
            untraced);
    }

    for (const auto &f : total.failures)
        std::fprintf(stderr, "mbench: FAILED %s\n", f.c_str());

    const obs::Provenance prov = obs::Provenance::capture(args.opts.jobs);
    std::string backends;
    for (const auto &n : sim::MachineRegistry::global().names()) {
        if (!backends.empty())
            backends += ',';
        backends += jsonString(n);
    }
    char digest[40];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, warm.digest);
    std::string line =
        "{\"provenance\":{\"workload\":" + jsonString(args.workload) +
        ",\"seed\":" + std::to_string(args.seed) +
        ",\"trace\":" + std::to_string(int(args.trace)) +
        ",\"seconds\":" + jsonNumber(args.seconds) +
        ",\"tree\":" + jsonString(args.tree) +
        ",\"dirty\":" + (args.dirty ? "true" : "false") +
        ",\"commit\":" + jsonString(args.commit) +
        ",\"source_digest\":" + jsonString(args.sourceDigest) +
        ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
        ",\"jobs\":" + std::to_string(args.opts.jobs) +
        ",\"compiler\":" + jsonString(prov.compiler) +
        ",\"build_type\":" + jsonString(prov.buildType) +
        ",\"sim_tier\":" + jsonString(sim::activeSimTierDescription()) +
        ",\"backends\":[" + backends + "]" +
        ",\"env_pad\":" + std::to_string(args.envPad) +
        ",\"env_block_bytes\":" + std::to_string(prov.envBlockBytes) +
        ",\"pass_order_seed\":" + std::to_string(orderSeed) +
        ",\"digest\":\"" + digest + "\"" +
        ",\"traced_digest_equal\":" +
        (!args.trace || tracedDigest == warm.digest ? "true" : "false") +
        ",\"sim_insts_per_pass\":" + std::to_string(instsPerPass) +
        ",\"pass_wall_s\":[" + jsonList(walls) + "]" +
        ",\"pass_cpu_s\":[" + jsonList(cpus) + "]" +
        ",\"pass_steal_s\":[" + jsonList(steals) + "]}}";
    std::puts(line.c_str());

    line = "{\"correct\": " + std::string(total.failed ? "false" : "true") +
           ", \"attempted\": " + std::to_string(total.attempted) +
           ", \"failed\": " + std::to_string(total.failed) +
           ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        line += (i ? ", " : "") + jsonString(metrics[i].name) +
                ": {\"value\": " + jsonNumber(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    line += "}}";
    std::puts(line.c_str());
    std::fflush(stdout);
    return total.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "compare") == 0)
        return mbench::compareMain();
    return benchMain(parseArgs(argc, argv));
}
