/**
 * @file
 * Figure 3 (the excerpt embedded in the task's source is genuine for
 * this one): the effect of UNIX environment size on the speedup of O3
 * on Core 2, for the perl workload.  The paper's published series
 * sweeps roughly 0.92x-1.10x and crosses 1.0: the environment alone
 * decides whether -O3 "helps".
 */
#include <cstdio>

#include "core/experiment.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

void
render(pipeline::FigureContext &ctx)
{
    std::printf("Figure 3: O3 speedup vs UNIX environment size "
                "(perl, core2like, gcc)\n\n");
    std::printf("%8s  %10s  %10s  %8s\n", "envBytes", "O2 cycles",
                "O3 cycles", "speedup");

    core::ExperimentSpec spec; // perl on core2like by default
    const auto report = ctx.run(
        campaign::CampaignSpec().withExperiment(spec).withSetups(
            pipeline::envGridSetups(4096, 20)));

    stats::Sample sp;
    unsigned below = 0, above = 0;
    for (const auto &o : report.bias.outcomes) {
        sp.add(o.speedup);
        below += o.speedup < 1.0;
        above += o.speedup > 1.0;
        std::printf("%8llu  %10llu  %10llu  %8.4f\n",
                    (unsigned long long)o.setup.envBytes,
                    (unsigned long long)o.baseline.cycles(),
                    (unsigned long long)o.treatment.cycles(), o.speedup);
    }
    std::printf("\nspeedup range [%.4f, %.4f]; %u setups say O3 hurts, "
                "%u say it helps\n",
                sp.min(), sp.max(), below, above);
    std::printf("paper's shape: range straddles 1.0 (published: ~0.92 to "
                "~1.10 for perlbench)\n");
    std::printf("[campaign: %s]\n", report.stats.str().c_str());
    // Machine-readable execution metrics; reproduce_all.sh lifts this
    // line into results/BENCH_campaign.json.
    std::printf("[metrics] %s\n", report.metrics.toJson().c_str());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig3()
{
    return {"fig3", pipeline::FigureSpec::Kind::Figure,
            "O3 speedup vs UNIX environment size (perl, core2like)",
            render};
}

} // namespace mbias::figures
