/**
 * @file
 * Extension harness A6: per-run layout randomization (the
 * Stabilizer-style remedy this paper inspired).
 *
 * Setup randomization (Fig. 7) needs many *setups*; an alternative is
 * to randomize the memory layout on every *run* via stack ASLR, so a
 * single setup already samples the layout distribution.  This harness
 * takes deliberately hostile setups — the ones where the single-run
 * speedup is most wrong — and shows per-run randomization pulls each
 * back to the cross-setup truth.
 *
 * The dense ground-truth grid and the per-setup ASLR repetition plans
 * are all campaign tasks; ASLR streams derive from task seeds, so
 * results are schedule-independent.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "obs/metrics.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

const std::vector<std::uint64_t> hostile_envs = {0, 300, 1643, 3340};

std::vector<core::ExperimentSetup>
envSetups(const std::vector<std::uint64_t> &envs)
{
    std::vector<core::ExperimentSetup> out;
    for (std::uint64_t env : envs) {
        core::ExperimentSetup s;
        s.envBytes = env;
        out.push_back(s);
    }
    return out;
}

/** A campaign over the hostile setups under @p plan. */
campaign::CampaignSpec
hostileCampaign(campaign::RepetitionPlan plan)
{
    core::ExperimentSpec spec; // perl, core2like, O2 vs O3
    return campaign::CampaignSpec()
        .withExperiment(spec)
        .withSetups(envSetups(hostile_envs))
        .withPlan(plan);
}

std::vector<double>
speedupsOf(const campaign::CampaignReport &report)
{
    std::vector<double> speedups;
    for (const auto &o : report.bias.outcomes)
        speedups.push_back(o.speedup);
    return speedups;
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A6: per-run stack-ASLR randomization as a bias remedy "
                "(perl, core2like, gcc O2 vs O3)\n\n");

    // Ground truth: the layout-marginalized effect over a dense grid;
    // then the hostile setups under one run, 7 and 21 ASLR draws.
    using Kind = campaign::RepetitionPlan::Kind;
    core::ExperimentSpec spec;
    const campaign::CampaignSpec specs[] = {
        campaign::CampaignSpec().withExperiment(spec).withSetups(
            pipeline::envGridSetups(4096, 36)),
        hostileCampaign({Kind::Single, 1}),
        hostileCampaign({Kind::AslrRandomized, 7}),
        hostileCampaign({Kind::AslrRandomized, 21}),
    };
    const auto reports = ctx.runAll(specs);
    const double truth = reports[0].bias.speedups.mean();
    std::printf("layout-marginalized speedup (dense env grid): %.4f\n\n",
                truth);

    obs::MetricsSnapshot metrics; // summed over the four campaigns
    for (const auto &report : reports)
        metrics.merge(report.metrics);
    const auto single = speedupsOf(reports[1]);
    const auto a7 = speedupsOf(reports[2]);
    const auto a21 = speedupsOf(reports[3]);

    core::TextTable t({"setup", "single run", "ASLR x7", "ASLR x21",
                       "|err| single", "|err| x21"});
    for (std::size_t i = 0; i < hostile_envs.size(); ++i) {
        core::ExperimentSetup s;
        s.envBytes = hostile_envs[i];
        t.addRow({s.str(), core::fmt(single[i]), core::fmt(a7[i]),
                  core::fmt(a21[i]),
                  core::fmt(std::abs(single[i] - truth)),
                  core::fmt(std::abs(a21[i] - truth))});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("per-run layout randomization turns invisible bias into "
                "visible variance;\naveraging a few randomized runs "
                "recovers the truth from any single setup.\n");
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
fig11()
{
    return {"fig11", pipeline::FigureSpec::Kind::Figure,
            "per-run stack-ASLR randomization as a bias remedy",
            render};
}

} // namespace mbias::figures
