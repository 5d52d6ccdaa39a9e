/**
 * @file
 * Extension harness A4: the SPEC-style aggregate.  Marketing numbers
 * are geometric means over a suite; this harness shows the aggregate
 * too carries setup-induced uncertainty — and reports it the way the
 * paper says results should be reported: with an interval over the
 * setup distribution.
 *
 * One campaign per workload over the shared setup sample; the
 * geomean is then recombined per setup across the suite.
 */
#include <cstdio>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/ci.hh"
#include "stats/sample.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_setups = 17;

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A4: suite-wide geomean O3 speedup per setup "
                "(core2like, gcc, %u setups)\n\n", num_setups);

    const auto setups = pipeline::sequentialSetups(
        core::SetupSpace().varyEnvSize().varyLinkOrder(), num_setups,
        0xa44);

    // One campaign per workload, all over the same setup sample.
    std::vector<campaign::CampaignReport> reports;
    for (const auto *w : workloads::suite()) {
        core::ExperimentSpec spec;
        spec.withWorkload(w->name());
        reports.push_back(ctx.run(
            campaign::CampaignSpec().withExperiment(spec).withSetups(setups)));
    }

    // One "SPEC run" per setup: geomean across the suite.
    stats::Sample geomeans;
    core::TextTable t({"setup", "geomean O3 speedup"});
    for (unsigned i = 0; i < num_setups; ++i) {
        stats::Sample per_workload;
        for (const auto &r : reports)
            per_workload.add(r.bias.outcomes[i].speedup);
        const double gm = per_workload.geomean();
        geomeans.add(gm);
        t.addRow({setups[i].str(), core::fmt(gm)});
    }
    std::printf("%s\n", t.str().c_str());

    auto ci = stats::tInterval(geomeans);
    std::printf("suite geomean speedup: %s (CI over setups)\n",
                ci.str().c_str());
    std::printf("range across setups : [%.4f, %.4f]\n", geomeans.min(),
                geomeans.max());
    std::printf("even the aggregate \"marketing number\" moves with "
                "factors no datasheet reports.\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
table3()
{
    return {"table3", pipeline::FigureSpec::Kind::Table,
            "suite-wide geomean speedup with setup-induced CI",
            render};
}

} // namespace mbias::figures
