/**
 * @file
 * False confidence: why "we repeated every run 15 times" does not save
 * a biased experiment.
 *
 * Run-to-run noise (OS interrupts, here simulated and seeded) is what
 * an experimenter can *see* and control with repetition: the more
 * repetitions, the tighter the confidence interval.  Measurement bias
 * is what they *cannot* see: the setup-induced offset repeats
 * perfectly in every run.  Result: a beautifully tight interval —
 * around the wrong value.
 */
#include <cstdio>

#include "core/setup.hh"
#include "core/variance.hh"
#include "pipeline/context.hh"

using namespace mbias;

int
main()
{
    core::ExperimentSpec spec; // perl, core2like, gcc O2 vs O3

    // The experimenter's machine happens to have a 300-byte
    // environment — a username, a few paths.  Their peers' machines
    // differ in ways nobody reports.
    core::ExperimentSetup home;
    home.envBytes = 300;
    auto peers = core::SetupSpace().varyEnvSize().grid(24);

    // 15 noisy repetitions per side at home, one run per peer setup,
    // under the noise seeds fig8 uses.
    auto report = pipeline::FigureContext().varianceDecomposition(
        spec, home, peers, /* reps = */ 15, /* noise_seed = */ 0xfeed);
    std::printf("%s\n", report.str().c_str());

    std::printf("Reading the output:\n"
                " - the within-setup CI is what a careful single-setup\n"
                "   paper would publish (repetitions + t-interval);\n"
                " - the between-setup sample is what the community\n"
                "   would measure on *their* machines;\n"
                " - a large variance ratio means repetition cannot\n"
                "   surface the bias: only setup randomization can.\n");
    return 0;
}
