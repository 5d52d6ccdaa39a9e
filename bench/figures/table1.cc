/**
 * @file
 * Table 1: the benchmark suite.  For each workload of the SPEC
 * CPU2006-C substitute suite: its archetype, dynamic instruction
 * count, branch/load/store mix, and the O3-over-O2 speedup measured at
 * the *default* setup (as-given link order, empty environment) — the
 * single number a conventional single-setup evaluation would report.
 */
#include <cstdio>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "workloads/registry.hh"

using namespace mbias;

namespace
{

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Table 1: the workload suite at the default setup "
                "(core2like, gcc)\n\n");
    core::TextTable t({"workload", "archetype", "insts", "br/ki",
                       "ld/ki", "st/ki", "O2 cycles", "O3 speedup"});
    for (const auto *w : workloads::suite()) {
        core::ExperimentSpec spec;
        spec.withWorkload(w->name());
        const auto report =
            ctx.run(campaign::CampaignSpec().withExperiment(spec).withSetups(
                {core::ExperimentSetup{}}));
        const auto &o = report.bias.outcomes.at(0);
        const auto &c = o.baseline.counters;
        t.addRow({w->name(), w->archetype(),
                  std::to_string(o.baseline.instructions()),
                  core::fmt(c.ratePerKiloInst(sim::Counter::BranchesExecuted),
                            0),
                  core::fmt(c.ratePerKiloInst(sim::Counter::Loads), 0),
                  core::fmt(c.ratePerKiloInst(sim::Counter::Stores), 0),
                  std::to_string(o.baseline.cycles()),
                  core::fmt(o.speedup, 4)});
    }
    std::printf("%s\n", t.str().c_str());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
table1()
{
    return {"table1", pipeline::FigureSpec::Kind::Table,
            "the workload suite at the default setup",
            render};
}

} // namespace mbias::figures
