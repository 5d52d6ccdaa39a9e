/**
 * @file
 * Figure 4: measurement bias is commonplace — the environment-size
 * effect appears on every architecture tried (the paper: Pentium 4,
 * Core 2, and m5 O3CPU; here: p4like, core2like, o3like machine
 * models).
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

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 4: env-size bias across architectures "
                "(gcc O2 vs O3)\n\n");
    core::TextTable t({"workload", "machine", "speedup min", "median",
                       "max", "cycle spread (O2)"});
    for (const char *wname : {"perl", "hmmer", "sjeng"}) {
        for (const auto &machine : sim::MachineConfig::allPresets()) {
            core::ExperimentSpec spec;
            spec.withWorkload(wname).withMachine(machine);
            const auto report = ctx.run(
                campaign::CampaignSpec().withExperiment(spec).withSetups(
                    pipeline::envGridSetups(4096, 52)));
            stats::Sample sp, base_cycles;
            for (const auto &o : report.bias.outcomes) {
                sp.add(o.speedup);
                base_cycles.add(double(o.baseline.cycles()));
            }
            const double spread =
                base_cycles.range() / base_cycles.median();
            t.addRow({wname, machine.name, core::fmt(sp.min()),
                      core::fmt(sp.median()), core::fmt(sp.max()),
                      core::fmt(spread * 100.0, 2) + "%"});
        }
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("bias (a nonzero cycle spread from env size alone) "
                "appears on every machine model\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig4()
{
    return {"fig4", pipeline::FigureSpec::Kind::Figure,
            "env-size bias on every machine model",
            render};
}

} // namespace mbias::figures
