/**
 * @file
 * Extension harness B2: DVFS frequency steps as a swept noise factor.
 *
 * Kalibera & Jones list CPU frequency scaling among the factors a
 * rigorous experiment must control; the noise model grows a DVFS
 * factor (seeded governor steps to a slower P-state, pure timing) and
 * this harness sweeps its depth as a first-class pipeline factor via
 * RepetitionPlan::noiseTemplate.  Two hostile setups, paired noisy
 * repetitions per arm: deeper steps inflate the *visible* run-to-run
 * variance, yet the between-setup speedup gap — the invisible bias —
 * does not close.  Controlling frequency tightens the interval; it
 * still brackets the wrong value.
 */
#include <cmath>
#include <cstdio>
#include <iterator>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "sim/noise.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

constexpr unsigned reps = 9;
constexpr std::uint64_t noise_seed = 0xd5f5;
const std::uint64_t setup_envs[] = {0, 300};

/** Per-rep speedups and baseline-cycle stats of one (arm, setup). */
struct Cell
{
    stats::Sample speedups;
    stats::Sample baseCycles;
};

campaign::CampaignSpec
dvfsCampaign(unsigned slowdown_pct, std::uint64_t env)
{
    using Kind = campaign::RepetitionPlan::Kind;
    core::ExperimentSpec spec; // perl, core2like, O2 vs O3

    campaign::RepetitionPlan plan;
    plan.kind = Kind::NoisePaired;
    plan.reps = reps;
    plan.treatSeedOffset = 7919;
    if (slowdown_pct > 0) {
        plan.noiseTemplate = sim::NoiseModel::withDvfs(0);
        plan.noiseTemplate.dvfsSlowdownPercent = slowdown_pct;
    } // 0% = the default template: interrupt noise, no DVFS

    core::ExperimentSetup s;
    s.envBytes = env;
    return campaign::CampaignSpec()
        .withExperiment(spec)
        .withSeededSetups({{s, noise_seed + env}})
        .withPlan(plan);
}

Cell
cellOf(const campaign::CampaignReport &report)
{
    const auto &o = report.bias.outcomes.at(0);
    Cell cell;
    for (unsigned i = 0; i < reps; ++i) {
        cell.speedups.add(o.repBaseline[i] / o.repTreatment[i]);
        cell.baseCycles.add(o.repBaseline[i]);
    }
    return cell;
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("B2: DVFS frequency steps swept as a noise factor "
                "(perl, core2like, gcc O2 vs O3)\n\n");

    core::TextTable t({"dvfs slowdown", "setup", "O2 cycles mean",
                       "cycles CV", "speedup mean", "spread"});
    const unsigned slowdowns[] = {0u, 10u, 25u, 40u};
    std::vector<campaign::CampaignSpec> specs;
    for (unsigned pct : slowdowns)
        for (std::uint64_t env : setup_envs)
            specs.push_back(dvfsCampaign(pct, env));
    const auto reports = ctx.runAll(specs);
    stats::Sample gaps; // per-arm between-setup speedup gap
    for (std::size_t arm = 0; arm < std::size(slowdowns); ++arm) {
        const unsigned pct = slowdowns[arm];
        double means[2] = {0.0, 0.0};
        for (int i = 0; i < 2; ++i) {
            const auto cell = cellOf(reports[2 * arm + i]);
            means[i] = cell.speedups.mean();
            core::ExperimentSetup s;
            s.envBytes = setup_envs[i];
            t.addRow({pct == 0 ? "off" : core::fmt(pct, 0) + "%",
                      s.str(), core::fmt(cell.baseCycles.mean(), 0),
                      core::fmt(cell.baseCycles.cv() * 100.0, 3) + "%",
                      core::fmt(means[i]),
                      core::fmt(cell.speedups.range())});
        }
        gaps.add(std::abs(means[0] - means[1]));
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("between-setup speedup gap per arm: %s .. %s "
                "(never closes)\n",
                core::fmt(gaps.min()).c_str(),
                core::fmt(gaps.max()).c_str());
    std::printf("deeper frequency steps inflate the visible variance "
                "within a setup, but leave the\nbetween-setup bias "
                "intact: controlling DVFS tightens the confidence "
                "interval\naround the same wrong value.\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig13()
{
    return {"fig13", pipeline::FigureSpec::Kind::Figure,
            "DVFS frequency steps swept as a noise factor",
            render};
}

} // namespace mbias::figures
