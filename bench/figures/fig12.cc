/**
 * @file
 * Extension harness B1: conclusion drift on an in-order core.
 *
 * Every platform the paper measured hides latency out of order; the
 * machine-backend registry adds an ARM-like in-order model whose
 * timing is dominated by different mechanisms (exposed stalls, issue
 * blocking, fetch-block realignment on taken transfers).  This
 * harness reruns the running O2-vs-O3 question on both backends over
 * the same env grid: the bias is still there — and the *reported*
 * speedup drifts between backends, so a conclusion tuned on one core
 * model does not transfer to the other.
 */
#include <cstdio>
#include <iterator>
#include <vector>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "sim/registry.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

const char *
verdict(const stats::Sample &speedups)
{
    if (speedups.min() > 1.0)
        return "O3 wins everywhere";
    if (speedups.max() < 1.0)
        return "O3 loses everywhere";
    return "flips with setup";
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("B1: conclusion drift on an in-order core "
                "(gcc O2 vs O3, env-size grid)\n\n");

    // The two backends under comparison come from the machine
    // registry: the paper's Core 2 model and the non-paper in-order
    // extension, with their declared core models.
    const auto &reg = sim::MachineRegistry::global();
    const sim::MachineBackend *backends[] = {reg.byName("core2like"),
                                             reg.byName("inorderlike")};

    core::TextTable t({"workload", "machine", "core model",
                       "speedup min", "median", "max", "conclusion"});
    // Median reported speedup per (workload, backend) — the drift
    // summary below compares them across backends.
    const char *const names[] = {"perl", "hmmer", "sjeng"};
    std::vector<campaign::CampaignSpec> specs;
    for (const char *wname : names)
        for (const sim::MachineBackend *mb : backends) {
            core::ExperimentSpec spec;
            spec.withWorkload(wname).withMachine(mb->config);
            specs.push_back(
                campaign::CampaignSpec().withExperiment(spec).withSetups(
                    pipeline::envGridSetups(4096, 103)));
        }
    const auto reports = ctx.runAll(specs);
    stats::Sample drift;
    for (std::size_t w = 0; w < std::size(names); ++w) {
        const char *wname = names[w];
        double medians[2] = {0.0, 0.0};
        for (int b = 0; b < 2; ++b) {
            const sim::MachineBackend &mb = *backends[b];
            stats::Sample sp;
            for (const auto &o : reports[2 * w + b].bias.outcomes)
                sp.add(o.speedup);
            medians[b] = sp.median();
            t.addRow({wname, mb.config.name, mb.coreModel,
                      core::fmt(sp.min()), core::fmt(sp.median()),
                      core::fmt(sp.max()), verdict(sp)});
        }
        drift.add(medians[1] / medians[0]);
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("median-speedup drift (in-order / out-of-order): "
                "%s .. %s per workload\n",
                core::fmt(drift.min()).c_str(),
                core::fmt(drift.max()).c_str());
    std::printf("the env-size bias survives the core model swap, but "
                "the reported speedup does not:\na conclusion tuned on "
                "one backend drifts on the other (exposed stalls and\n"
                "fetch-block realignment replace the OoO window as the "
                "dominant mechanisms).\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig12()
{
    return {"fig12", pipeline::FigureSpec::Kind::Figure,
            "conclusion drift on an in-order core backend",
            render};
}

} // namespace mbias::figures
