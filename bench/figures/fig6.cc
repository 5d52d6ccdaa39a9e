/**
 * @file
 * Figure 6: causal analysis of the env-size bias (the paper's second
 * remedy).  Step 1 correlates hardware counters with cycles across
 * setups to nominate the mechanism; step 2 intervenes (forcing stack
 * alignment, disabling the suspected penalty) and checks that the
 * setup-induced variation collapses.
 *
 * The analyzer's sweeps run as BaselineOnly campaigns through the
 * pipeline context, so the whole analysis gains --jobs and the caches
 * while its math is untouched.
 */
#include <cstdio>

#include "core/causal.hh"
#include "core/experiment.hh"
#include "core/setup.hh"
#include "figures.hh"
#include "pipeline/context.hh"

using namespace mbias;

namespace
{

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 6: causal analysis of environment-size bias "
                "(perl, core2like, gcc O2)\n\n");
    core::ExperimentSpec spec;
    auto setups = core::SetupSpace().varyEnvSize().grid(48);

    core::CausalAnalyzer analyzer;
    analyzer.withSweep(ctx.causalSweep());
    auto report = analyzer.analyze(spec, setups);
    std::printf("%s\n", report.str().c_str());

    std::printf("and of link-order bias (perl, core2like, gcc O2):\n\n");
    auto link_setups = core::SetupSpace().varyLinkOrder().grid(32);
    auto link_report = analyzer.analyze(spec, link_setups);
    std::printf("%s\n", link_report.str().c_str());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig6()
{
    return {"fig6", pipeline::FigureSpec::Kind::Figure,
            "causal analysis of env-size and link-order bias",
            render};
}

} // namespace mbias::figures
