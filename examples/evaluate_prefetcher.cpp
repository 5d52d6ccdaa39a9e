/**
 * @file
 * Hardware study under bias: "does a next-line data prefetcher help?"
 *
 * This is the other classic ASPLOS experiment shape — same binary, two
 * machine configurations — and it is just as exposed to measurement
 * bias: the prefetcher's benefit depends on which lines the workload
 * streams over, which depends on data placement, which depends on the
 * link order and the stack position.
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
    std::printf("hardware study: core2like vs core2like + next-line "
                "prefetcher (gcc O2 binaries)\n\n");

    sim::MachineConfig with_pf = sim::MachineConfig::core2Like();
    with_pf.name = "core2like+pf";
    with_pf.enableNextLinePrefetch = true;

    core::TextTable t({"workload", "single-setup", "randomized CI",
                       "bias", "verdict"});
    pipeline::FigureContext ctx;
    for (const char *w : {"mcf", "lbm", "libquantum", "perl", "hmmer",
                          "gcclike"}) {
        core::ExperimentSpec spec;
        spec.withWorkload(w).withTreatmentMachine(with_pf);
        // Same toolchain both sides: a pure hardware A/B.
        spec.treatment = spec.baseline;

        core::ExperimentRunner runner(spec);
        const double single = runner.run(core::ExperimentSetup{}).speedup;

        const auto report =
            ctx.run(campaign::CampaignSpec().withExperiment(spec).withSetups(
                        pipeline::sequentialSetups(
                            core::SetupSpace().varyEnvSize().varyLinkOrder(),
                            21, 0x9f)))
                .bias;
        t.addRow({w, core::fmt(single),
                  core::fmtInterval(report.speedupCI.lower,
                                    report.speedupCI.upper),
                  core::fmt(report.biasMagnitude),
                  core::verdictName(report.verdict)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("speedup > 1 favours the prefetcher.  Streaming "
                "workloads (lbm, libquantum, mcf) show a real gain;\n"
                "for pointer-light code the 'gain' can be within the "
                "setup-induced bias — the same trap as the -O3 study.\n");
    return 0;
}
