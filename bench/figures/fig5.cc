/**
 * @file
 * Figure 5: two "commonplace" claims in one harness.
 *  (a) Simulators are biased too: link-order bias measured on the
 *      m5-flavoured o3like model.
 *  (b) Both compilers are affected: the same study under the icc-like
 *      vendor profile.
 */
#include <cstdio>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_orders = 20;

stats::Sample
speedups(pipeline::FigureContext &ctx, const core::ExperimentSpec &spec)
{
    const auto report = ctx.run(
        campaign::CampaignSpec().withExperiment(spec).withSetups(
            core::SetupSpace().varyLinkOrder().grid(num_orders)));
    stats::Sample sp;
    for (const auto &o : report.bias.outcomes)
        sp.add(o.speedup);
    return sp;
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 5a: link-order bias on the simulated O3CPU "
                "(o3like, gcc O2 vs O3, %u orders)\n\n", num_orders);
    core::TextTable ta({"workload", "min", "median", "max", "crosses 1.0"});
    for (const char *w : {"perl", "bzip", "milc", "sjeng", "gobmk",
                          "hmmer"}) {
        core::ExperimentSpec spec;
        spec.withWorkload(w).withMachine(sim::MachineConfig::o3Like());
        auto sp = speedups(ctx, spec);
        ta.addRow({w, core::fmt(sp.min()), core::fmt(sp.median()),
                   core::fmt(sp.max()),
                   sp.min() < 1.0 && sp.max() > 1.0 ? "YES" : "no"});
    }
    std::printf("%s\n", ta.str().c_str());

    std::printf("Figure 5b: the same study with the icc-like vendor "
                "(core2like, icc O2 vs O3)\n\n");
    core::TextTable tb({"workload", "min", "median", "max", "crosses 1.0"});
    for (const char *w : {"perl", "bzip", "milc", "sjeng", "gobmk",
                          "hmmer"}) {
        core::ExperimentSpec spec;
        spec.withWorkload(w)
            .withBaseline({toolchain::CompilerVendor::IccLike,
                           toolchain::OptLevel::O2})
            .withTreatment({toolchain::CompilerVendor::IccLike,
                            toolchain::OptLevel::O3});
        auto sp = speedups(ctx, spec);
        tb.addRow({w, core::fmt(sp.min()), core::fmt(sp.median()),
                   core::fmt(sp.max()),
                   sp.min() < 1.0 && sp.max() > 1.0 ? "YES" : "no"});
    }
    std::printf("%s\n", tb.str().c_str());
    std::printf("bias is not an artifact of one architecture, one "
                "simulator, or one compiler\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig5()
{
    return {"fig5", pipeline::FigureSpec::Kind::Figure,
            "link-order bias on the o3like simulator and the icc-like vendor",
            render};
}

} // namespace mbias::figures
