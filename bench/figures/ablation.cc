/**
 * @file
 * Ablation A1: how much of the measured bias does each address-
 * dependent mechanism contribute?  Each row disables one mechanism in
 * the core2like model and re-measures the env-size and link-order
 * cycle spreads for perl.  (This is the design-choice ablation called
 * out in DESIGN.md, not a figure from the paper.)
 *
 * Each spread is a BaselineOnly campaign: one observed side per
 * setup, metric values read straight from the outcomes.
 */
#include <cstdio>
#include <functional>
#include <iterator>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

campaign::CampaignSpec
spreadCampaign(const sim::MachineConfig &machine,
               const std::vector<core::ExperimentSetup> &setups)
{
    core::ExperimentSpec spec;
    spec.withMachine(machine);
    return campaign::CampaignSpec()
        .withExperiment(spec)
        .withSetups(setups)
        .withPlan({campaign::RepetitionPlan::Kind::BaselineOnly, 1});
}

double
spreadPct(const campaign::CampaignReport &report,
          const campaign::CampaignSpec &spec)
{
    stats::Sample cycles;
    for (const auto &o : report.bias.outcomes)
        cycles.add(core::metricValue(spec.experiment.metric, o.baseline));
    return cycles.range() / cycles.median() * 100.0;
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Ablation: mechanism contributions to measurement bias "
                "(perl O2, core2like)\n\n");

    const auto env_setups = core::SetupSpace().varyEnvSize().grid(40);
    const auto link_setups = core::SetupSpace().varyLinkOrder().grid(24);

    struct Row
    {
        const char *name;
        std::function<void(sim::MachineConfig &)> tweak;
    };
    const Row rows[] = {
        {"full model", [](sim::MachineConfig &) {}},
        {"no line-split penalty",
         [](sim::MachineConfig &m) { m.enableLineSplitPenalty = false; }},
        {"no 4K-alias stalls",
         [](sim::MachineConfig &m) {
             m.enableStoreBufferAliasing = false;
         }},
        {"perfect branch prediction",
         [](sim::MachineConfig &m) { m.enableBranchPrediction = false; }},
        {"no BTB", [](sim::MachineConfig &m) { m.enableBtb = false; }},
        {"no fetch-block model",
         [](sim::MachineConfig &m) { m.enableFetchBlockModel = false; }},
        {"perfect caches",
         [](sim::MachineConfig &m) { m.enableCaches = false; }},
        {"perfect TLBs",
         [](sim::MachineConfig &m) { m.enableTlbs = false; }},
    };

    // Per row, an env and a link campaign; all of them in one batch.
    std::vector<campaign::CampaignSpec> specs;
    for (const auto &row : rows) {
        sim::MachineConfig m = sim::MachineConfig::core2Like();
        row.tweak(m);
        specs.push_back(spreadCampaign(m, env_setups));
        specs.push_back(spreadCampaign(m, link_setups));
    }
    const auto reports = ctx.runAll(specs);

    core::TextTable t({"model variant", "env spread %", "link spread %"});
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        const std::size_t env = 2 * r, link = 2 * r + 1;
        t.addRow({rows[r].name,
                  core::fmt(spreadPct(reports[env], specs[env]), 3),
                  core::fmt(spreadPct(reports[link], specs[link]), 3)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("a mechanism 'owns' the bias along a factor when "
                "disabling it collapses that column\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
ablation()
{
    return {"ablation", pipeline::FigureSpec::Kind::Ablation,
            "per-mechanism contributions to measurement bias",
            render};
}

} // namespace mbias::figures
