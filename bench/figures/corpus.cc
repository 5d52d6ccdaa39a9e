/**
 * @file
 * Extension harness A7: measurement bias on machine-generated code.
 *
 * The paper's kernels are hand-written; a natural objection is that
 * the bias is an artifact of how they happen to be coded.  This
 * harness generates a seeded corpus of layout-sensitive programs with
 * the workload fuzzer — hot-loop shape, working-set size, and branch
 * entropy all drawn per program — registers them as runtime
 * workloads, and sweeps each through the paper's two biasing factors
 * (link order, environment size).  The O2-vs-O3 conclusion moves with
 * the layout for fuzzed code just as it does for the suite; the
 * widest-spread program is then handed to the causal engine, which
 * nominates the same mechanisms.
 *
 * The corpus seed is a fixed literal (not --seed): the program names
 * key the runtime workload registry and the golden transcript, so
 * the corpus itself is part of the figure's identity.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/causal.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "lang/fuzzer.hh"
#include "obs/metrics.hh"
#include "pipeline/context.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr std::uint64_t corpus_seed = 777;
constexpr unsigned corpus_size = 8;

/** Registers the corpus (idempotent: `mbias all` renders figures in
 *  one process) and returns the program knobs by name. */
std::vector<lang::FuzzedProgram>
corpusPrograms()
{
    lang::FuzzConfig cfg;
    cfg.seed = corpus_seed;
    cfg.count = corpus_size;
    auto corpus = lang::fuzzCorpus(cfg);
    auto &reg = workloads::Registry::instance();
    for (auto &prog : corpus)
        if (reg.find(prog.name) == nullptr) {
            lang::FuzzedProgram copy = prog;
            reg.add(lang::makeFuzzWorkload(std::move(copy)), "fuzzer");
        }
    return corpus;
}

struct Spread
{
    double min = 0.0, max = 0.0, mean = 0.0;

    double width() const { return max - min; }
};

Spread
spreadOf(const campaign::CampaignReport &report)
{
    Spread s;
    s.min = 1e9;
    s.max = -1e9;
    for (const auto &o : report.bias.outcomes) {
        s.min = std::min(s.min, o.speedup);
        s.max = std::max(s.max, o.speedup);
    }
    s.mean = report.bias.speedups.mean();
    return s;
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A7: measurement bias on fuzzed workloads (seed %llu, "
                "%u programs, gcc O2 vs O3, core2like)\n\n",
                (unsigned long long)corpus_seed, corpus_size);

    const auto corpus = corpusPrograms();

    // Per program, a link-order and an env campaign; all of them in
    // one batch.
    std::vector<campaign::CampaignSpec> specs;
    for (const auto &prog : corpus) {
        core::ExperimentSpec spec;
        spec.workload = prog.name;
        specs.push_back(
            campaign::CampaignSpec().withExperiment(spec).withSetups(
                core::SetupSpace().varyLinkOrder().grid(6)));
        specs.push_back(
            campaign::CampaignSpec().withExperiment(spec).withSetups(
                pipeline::envGridSetups(4096, 512)));
    }
    const auto reports = ctx.runAll(specs);

    obs::MetricsSnapshot metrics;
    core::TextTable t({"program", "ws bytes", "entropy", "stack",
                       "link spread", "env spread", "mean speedup"});
    std::size_t widest = 0;
    double widest_width = -1.0;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const auto &prog = corpus[i];
        const auto &link_report = reports[2 * i];
        const auto &env_report = reports[2 * i + 1];
        metrics.merge(link_report.metrics);
        metrics.merge(env_report.metrics);
        const Spread link = spreadOf(link_report);
        const Spread env = spreadOf(env_report);

        const double width = link.width() + env.width();
        if (width > widest_width) {
            widest_width = width;
            widest = i;
        }
        char ws[32], lw[32], ew[32], mean[32];
        std::snprintf(ws, sizeof(ws), "%u", prog.knobs.wsWords * 8);
        std::snprintf(lw, sizeof(lw), "%.4f", link.width());
        std::snprintf(ew, sizeof(ew), "%.4f", env.width());
        std::snprintf(mean, sizeof(mean), "%.4f",
                      (link.mean + env.mean) / 2);
        t.addRow({prog.name, ws,
                  std::to_string(prog.knobs.entropyBits) + "b",
                  std::to_string(prog.knobs.stackSlots), lw, ew, mean});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("machine-generated programs show the same "
                "layout-induced conclusion drift as the\nhand-written "
                "suite: the O2-vs-O3 'speedup' moves with link order "
                "and env size.\n\n");

    const auto &suspect = corpus[widest];
    std::printf("causal analysis of the widest-spread program (%s):\n\n",
                suspect.name.c_str());
    core::ExperimentSpec spec;
    spec.workload = suspect.name;
    core::CausalAnalyzer analyzer;
    analyzer.withSweep(ctx.causalSweep());
    auto causal =
        analyzer.analyze(spec, core::SetupSpace().varyEnvSize().grid(16));
    std::printf("%s\n", causal.str().c_str());

    std::printf("[campaign: %u job(s), %.3f s total]\n", ctx.jobs(),
                ctx.campaignWallSeconds());
    std::printf("[metrics] %s\n", metrics.toJson().c_str());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
corpus()
{
    return {"corpus", pipeline::FigureSpec::Kind::Figure,
            "measurement bias on a fuzzed workload corpus", render};
}

} // namespace mbias::figures
