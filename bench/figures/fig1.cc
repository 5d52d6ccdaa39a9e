/**
 * @file
 * Figure 1: distributions of measured cycles across link orders, for
 * O2 and O3 separately (violin-style text summaries).  The paper's
 * point: the two distributions *overlap*, so a single link order can
 * rank O2 and O3 either way even though each individual measurement is
 * perfectly repeatable.
 */
#include <cstdio>
#include <vector>

#include "core/experiment.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/density.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_orders = 33;

const char *const workload_names[] = {"perl", "sjeng", "gobmk", "hmmer"};

void
oneWorkload(const std::string &name,
            const campaign::CampaignReport &report)
{
    stats::Sample o2, o3;
    for (const auto &o : report.bias.outcomes) {
        o2.add(double(o.baseline.cycles()));
        o3.add(double(o.treatment.cycles()));
    }

    auto v2 = stats::ViolinSummary::of(o2);
    auto v3 = stats::ViolinSummary::of(o3);
    std::printf("%-10s O2  [%s]  min %.0f  med %.0f  max %.0f\n",
                name.c_str(), v2.strip(o2).c_str(), v2.min, v2.median,
                v2.max);
    std::printf("%-10s O3  [%s]  min %.0f  med %.0f  max %.0f\n", "",
                v3.strip(o3).c_str(), v3.min, v3.median, v3.max);
    const bool overlap = v3.min <= v2.max && v2.min <= v3.max;
    std::printf("%-10s     distributions %s\n\n", "",
                overlap ? "OVERLAP: link order decides the winner"
                        : "are separated");
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 1: cycle distributions across %u link orders "
                "(core2like, gcc O2 vs O3)\n\n",
                num_orders);
    std::vector<campaign::CampaignSpec> specs;
    for (const char *w : workload_names) {
        core::ExperimentSpec spec;
        spec.withWorkload(w);
        specs.push_back(
            campaign::CampaignSpec().withExperiment(spec).withSetups(
                core::SetupSpace().varyLinkOrder().grid(num_orders)));
    }
    const auto reports = ctx.runAll(specs);
    for (std::size_t i = 0; i < reports.size(); ++i)
        oneWorkload(workload_names[i], reports[i]);
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig1()
{
    return {"fig1", pipeline::FigureSpec::Kind::Figure,
            "cycle distributions across link orders (O2 vs O3 overlap)",
            render};
}

} // namespace mbias::figures
