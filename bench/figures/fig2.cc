/**
 * @file
 * Figure 2: the O3-over-O2 speedup of every suite workload across 33
 * link orders — min, median, and max.  Workloads whose [min, max]
 * range straddles 1.0 are those for which the link order alone decides
 * whether "O3 is beneficial".
 */
#include <cstdio>
#include <vector>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_orders = 33;

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 2: O3 speedup across %u link orders "
                "(core2like, gcc)\n\n",
                num_orders);
    core::TextTable t({"workload", "min", "median", "max", "range",
                       "crosses 1.0"});
    std::vector<campaign::CampaignSpec> specs;
    for (const auto *w : workloads::suite()) {
        core::ExperimentSpec spec;
        spec.withWorkload(w->name());
        specs.push_back(
            campaign::CampaignSpec().withExperiment(spec).withSetups(
                core::SetupSpace().varyLinkOrder().grid(num_orders)));
    }
    const auto reports = ctx.runAll(specs);
    unsigned crossing = 0;
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto *w = workloads::suite()[i];
        stats::Sample sp;
        for (const auto &o : reports[i].bias.outcomes)
            sp.add(o.speedup);
        const bool crosses = sp.min() < 1.0 && sp.max() > 1.0;
        crossing += crosses;
        t.addRow({w->name(), core::fmt(sp.min()), core::fmt(sp.median()),
                  core::fmt(sp.max()), core::fmt(sp.range()),
                  crosses ? "YES" : "no"});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("%u of %zu workloads flip their O2-vs-O3 conclusion "
                "with link order alone\n",
                crossing, workloads::suite().size());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig2()
{
    return {"fig2", pipeline::FigureSpec::Kind::Figure,
            "per-workload O3 speedup range across link orders",
            render};
}

} // namespace mbias::figures
