/**
 * @file
 * Extension harness A2: variance decomposition for the whole suite.
 * For each workload: the within-setup CI from 15 noisy repetitions at
 * an arbitrary home setup, vs the between-setup distribution.  A
 * variance ratio >> 1 with a disjoint CI is the "tight interval around
 * the wrong value" failure mode the paper warns about.
 *
 * Measured by FigureContext::varianceDecomposition, the lowering
 * `mbias variance` shares: two NoisePaired campaigns (the home setup
 * as one 15-rep task, the peer setups one single-rep task each) with
 * pinned noise seeds, aggregated by VarianceAnalyzer.
 */
#include <cstdio>

#include "core/setup.hh"
#include "core/table.hh"
#include "core/variance.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr unsigned reps = 15;
constexpr std::uint64_t noise_seed = 0xfeed;

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A2: within-setup noise vs between-setup bias "
                "(core2like, gcc O2 vs O3)\n\n");
    core::TextTable t({"workload", "repetition CI (one setup)",
                       "cross-setup mean", "var ratio",
                       "false confidence"});
    core::ExperimentSetup home;
    home.envBytes = 300;
    auto peers = core::SetupSpace().varyEnvSize().grid(16);

    unsigned fooled = 0;
    for (const auto *w : workloads::suite()) {
        core::ExperimentSpec spec;
        spec.withWorkload(w->name());
        auto r = ctx.varianceDecomposition(spec, home, peers, reps,
                                           noise_seed);
        fooled += r.falseConfidence;
        t.addRow({w->name(),
                  "[" + core::fmt(r.withinCI.lower) + ", " +
                      core::fmt(r.withinCI.upper) + "]",
                  core::fmt(r.betweenSetups.mean()),
                  core::fmt(r.varianceRatio, 1),
                  r.falseConfidence ? "YES" : "no"});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("%u of %zu workloads yield a tight repetition CI that "
                "excludes the cross-setup mean:\n"
                "repetition controls noise, not bias.\n",
                fooled, workloads::suite().size());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig8()
{
    return {"fig8", pipeline::FigureSpec::Kind::Figure,
            "within-setup noise vs between-setup bias (false confidence)",
            render};
}

} // namespace mbias::figures
