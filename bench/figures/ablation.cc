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

double
spreadPct(pipeline::FigureContext &ctx, const sim::MachineConfig &machine,
          const std::vector<core::ExperimentSetup> &setups)
{
    core::ExperimentSpec spec;
    spec.withMachine(machine);
    const auto report = ctx.run(
        campaign::CampaignSpec()
            .withExperiment(spec)
            .withSetups(setups)
            .withPlan({campaign::RepetitionPlan::Kind::BaselineOnly, 1}));
    stats::Sample cycles;
    for (const auto &o : report.bias.outcomes)
        cycles.add(core::metricValue(spec.metric, o.baseline));
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

    core::TextTable t({"model variant", "env spread %", "link spread %"});
    for (const auto &row : rows) {
        sim::MachineConfig m = sim::MachineConfig::core2Like();
        row.tweak(m);
        t.addRow({row.name, core::fmt(spreadPct(ctx, m, env_setups), 3),
                  core::fmt(spreadPct(ctx, m, link_setups), 3)});
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
