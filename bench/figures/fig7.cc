/**
 * @file
 * Figure 7: experimental setup randomization (the paper's first
 * remedy).  For every workload, the O3-over-O2 effect is estimated
 * from 31 randomized setups with a confidence interval over the setup
 * distribution, and the single-setup "wrong data" risk is quantified.
 *
 * Each workload's setups are sampled from per-task RNG streams (keyed
 * by task index) and executed on the campaign pool, so the whole-suite
 * sweep scales with cores while staying bit-reproducible.
 */
#include <cstdio>
#include <vector>

#include "core/conclusion.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "obs/metrics.hh"
#include "pipeline/context.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_setups = 31;

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 7: randomized-setup estimation of the O3 effect "
                "(core2like, gcc, %u setups)\n\n",
                num_setups);
    char ciLabel[24];
    std::snprintf(ciLabel, sizeof(ciLabel), "%g%% CI",
                  ctx.confidence() * 100.0);
    core::TextTable t({"workload", "speedup", ciLabel, "bias", "flips",
                       "verdict", "wrong data?"});

    core::ConclusionChecker checker;
    unsigned wrongable = 0;
    std::vector<campaign::CampaignSpec> specs;
    for (const auto *w : workloads::suite()) {
        core::ExperimentSpec spec;
        spec.withWorkload(w->name());
        specs.push_back(
            campaign::CampaignSpec()
                .withExperiment(spec)
                .withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(),
                           num_setups)
                .withSeed(0xf19u));
    }
    const auto reports = ctx.runAll(specs);
    obs::MetricsSnapshot metrics; // summed over per-workload campaigns
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto *w = workloads::suite()[i];
        metrics.merge(reports[i].metrics);
        const auto &report = reports[i].bias;
        auto check = checker.check(report);
        wrongable += check.wrongDataPossible;
        t.addRow({w->name(), core::fmt(report.speedupCI.estimate),
                  core::fmtInterval(report.speedupCI.lower,
                                    report.speedupCI.upper),
                  core::fmt(report.biasMagnitude),
                  std::to_string(report.conclusionFlips) + "/" +
                      std::to_string(num_setups),
                  core::verdictName(report.verdict),
                  check.wrongDataPossible ? "YES" : "no"});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("%u of %zu workloads admit single-setup experiments with "
                "contradictory conclusions;\n"
                "the randomized-setup CI reports the effect with its "
                "setup-induced uncertainty instead.\n",
                wrongable, workloads::suite().size());
    std::printf("[campaign: %u job(s), %.3f s total]\n", ctx.jobs(),
                ctx.campaignWallSeconds());
    // Machine-readable execution metrics; reproduce_all.sh lifts this
    // line into results/BENCH_campaign.json.
    std::printf("[metrics] %s\n", metrics.toJson().c_str());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig7()
{
    return {"fig7", pipeline::FigureSpec::Kind::Figure,
            "randomized-setup estimation of the O3 effect (whole suite)",
            render};
}

} // namespace mbias::figures
