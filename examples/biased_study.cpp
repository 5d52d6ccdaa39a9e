/**
 * @file
 * "Producing wrong data without doing anything obviously wrong":
 * a dramatization.  Two careful researchers evaluate the same
 * optimization on the same workload, machine, and compiler.  Each
 * measures deterministically and reproducibly.  They publish opposite
 * conclusions — because their (unreported) environment sizes differ.
 *
 * This example finds such a pair of setups automatically and then
 * shows how setup randomization would have exposed the conflict.
 */
#include <cstdio>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"

using namespace mbias;

int
main()
{
    core::ExperimentSpec spec; // perl, core2like, gcc O2 vs O3
    pipeline::FigureContext ctx;

    // Sweep the environment size the way a user's login environment
    // might vary between machines (or between home directory lengths!)
    // and find the two most contradictory setups.
    const auto sweep =
        ctx.run(campaign::CampaignSpec().withExperiment(spec).withSetups(
            pipeline::envGridSetups(4096, 20)));
    core::ExperimentSetup best, worst;
    double best_speedup = 0.0, worst_speedup = 10.0;
    for (const auto &o : sweep.bias.outcomes) {
        if (o.speedup > best_speedup) {
            best_speedup = o.speedup;
            best = o.setup;
        }
        if (o.speedup < worst_speedup) {
            worst_speedup = o.speedup;
            worst = o.setup;
        }
    }

    std::printf("Researcher A (%s):\n", best.str().c_str());
    std::printf("  measures O3 speedup %.4f and reports: \"O3 gives a "
                "%.1f%% improvement\"\n\n",
                best_speedup, (best_speedup - 1.0) * 100.0);
    std::printf("Researcher B (%s):\n", worst.str().c_str());
    std::printf("  measures O3 speedup %.4f and reports: \"O3 causes a "
                "%.1f%% slowdown\"\n\n",
                worst_speedup, (1.0 - worst_speedup) * 100.0);
    std::printf("Neither did anything obviously wrong: both runs are "
                "deterministic and repeatable.\n"
                "The difference is a setup factor no paper reports.\n\n");

    // The remedy.
    const auto report =
        ctx.run(campaign::CampaignSpec().withExperiment(spec).withSetups(
                    pipeline::sequentialSetups(
                        core::SetupSpace().varyEnvSize(), 31,
                        /* seed */ 7)))
            .bias;
    std::printf("With setup randomization both would have reported:\n"
                "  speedup %s over the setup distribution\n",
                report.speedupCI.str().c_str());
    std::printf("  (bias magnitude %.4f vs effect size %.4f -> %s)\n",
                report.biasMagnitude, report.effectSize,
                report.biased() ? "the study is bias-dominated"
                                : "the effect is robust");
    return 0;
}
