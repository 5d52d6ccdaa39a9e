/**
 * @file
 * Quickstart: the five-minute tour of the mbias API.
 *
 * Question under study (the paper's running example): is gcc -O3
 * beneficial over -O2 for the perl workload on a Core 2-like machine?
 *
 * The naive answer measures once.  The robust answer (the paper's
 * methodology) measures across randomized experimental setups and
 * reports the effect with its setup-induced uncertainty.
 */
#include <cstdio>

#include "core/conclusion.hh"
#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/setup.hh"
#include "pipeline/context.hh"

using namespace mbias;

int
main()
{
    // 1. Say what you want to know.  Defaults: workload "perl",
    //    core2like machine, gcc -O2 baseline vs gcc -O3 treatment.
    core::ExperimentSpec spec;
    std::printf("experiment: %s\n\n", spec.str().c_str());

    // 2. The naive experiment: one (default) setup, one number.
    core::ExperimentRunner runner(spec);
    auto naive = runner.run(core::ExperimentSetup{});
    std::printf("single-setup speedup: %.4f  -> \"O3 %s\"\n\n",
                naive.speedup,
                naive.speedup > 1.0 ? "helps" : "hurts");

    // 3. The robust experiment: randomize the innocuous setup factors
    //    (environment size, link order), measure every setup as one
    //    campaign, and look at the distribution.
    auto setups = pipeline::sequentialSetups(
        core::SetupSpace().varyEnvSize().varyLinkOrder(), 31,
        /* seed */ 42);
    pipeline::FigureContext ctx; // pass PipelineOptions{.jobs = N} to
                                 // spread the campaign over N workers
    auto report = ctx.run(campaign::CampaignSpec()
                              .withExperiment(spec)
                              .withSetups(std::move(setups)))
                      .bias;
    std::printf("%s\n", report.str().c_str());

    // 4. Diagnosis: could a single-setup paper have gotten this wrong?
    auto check = core::ConclusionChecker().check(report);
    std::printf("%s", check.str().c_str());
    return 0;
}
