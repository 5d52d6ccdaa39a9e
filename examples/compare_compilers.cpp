/**
 * @file
 * Vendor shoot-out under bias: "is the icc-like compiler faster than
 * the gcc-like compiler at O3?" — the kind of cross-vendor claim
 * benchmark marketing is made of.  Measured at a single setup the
 * answer is one number; across randomized setups several workloads
 * turn out to be decided by the setup, not the compiler.
 */
#include <cstdio>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "pipeline/context.hh"

using namespace mbias;

int
main()
{
    std::printf("icc-like vs gcc-like at O3 (core2like), across "
                "randomized setups\n\n");
    core::TextTable t({"workload", "single-setup", "randomized CI",
                       "flips", "verdict"});
    pipeline::FigureContext ctx;
    for (const char *w : {"perl", "bzip", "milc", "hmmer", "sjeng",
                          "sphinx"}) {
        core::ExperimentSpec spec;
        spec.withWorkload(w)
            .withBaseline({toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O3})
            .withTreatment({toolchain::CompilerVendor::IccLike,
                            toolchain::OptLevel::O3});

        core::ExperimentRunner runner(spec);
        const double single = runner.run(core::ExperimentSetup{}).speedup;

        const auto report =
            ctx.run(campaign::CampaignSpec().withExperiment(spec).withSetups(
                        pipeline::sequentialSetups(
                            core::SetupSpace().varyEnvSize().varyLinkOrder(),
                            25, 1234)))
                .bias;
        t.addRow({w, core::fmt(single),
                  core::fmtInterval(report.speedupCI.lower,
                                    report.speedupCI.upper),
                  std::to_string(report.conclusionFlips),
                  core::verdictName(report.verdict)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("speedup > 1 means the icc-like compiler wins; "
                "'inconclusive' rows are decided by the setup\n");
    return 0;
}
