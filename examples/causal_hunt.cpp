/**
 * @file
 * Causal hunt: tracing a bias to its microarchitectural mechanism.
 *
 * The hmmer workload keeps its DP rows on the machine stack, so its
 * performance depends on where the loader put the stack pointer.  This
 * example walks the paper's causal-analysis workflow: observe the
 * bias, correlate hardware counters with the outcome, then intervene
 * on the suspected cause and confirm the variation disappears.
 */
#include <cstdio>

#include "core/causal.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

int
main()
{
    core::ExperimentSpec spec;
    spec.withWorkload("hmmer");

    // Step 0: is there a bias at all?  One baseline-side run per
    // setup, measured as one campaign.
    auto setups = core::SetupSpace().varyEnvSize().grid(40);
    pipeline::FigureContext ctx;
    const auto sweep = ctx.run(
        campaign::CampaignSpec()
            .withExperiment(spec)
            .withSetups(setups)
            .withPlan({campaign::RepetitionPlan::Kind::BaselineOnly, 1}));
    stats::Sample cycles;
    for (const auto &o : sweep.bias.outcomes)
        cycles.add(core::metricValue(spec.metric, o.baseline));
    std::printf("hmmer O2 cycles across %zu env sizes: min %.0f, "
                "max %.0f (%.2f%% spread)\n\n",
                setups.size(), cycles.min(), cycles.max(),
                cycles.range() / cycles.median() * 100.0);

    // Steps 1-2: counter correlation, then interventions; each sweep
    // they need runs as a campaign too.
    core::CausalAnalyzer analyzer;
    analyzer.withSweep(ctx.causalSweep());
    auto report = analyzer.analyze(spec, setups);
    std::printf("%s\n", report.str().c_str());

    std::printf("Reading the output: the top-ranked counter names the "
                "mechanism; an intervention that removes most of the "
                "spread confirms it as the cause rather than a mere "
                "correlate.\n");
    return 0;
}
