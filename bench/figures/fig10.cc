/**
 * @file
 * Extension harness A5: the full optimization-level matrix.  The paper
 * asks "is O3 better than O2?"; the same trap applies to every level
 * pair and both vendors.  For each (baseline, treatment) pair this
 * prints the randomized-setup verdict and how often single setups
 * contradict it — showing the bias problem is about the *methodology*,
 * not the particular O2-vs-O3 question.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_setups = 15;

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A5: verdicts for every optimization step "
                "(perl + gobmk, core2like, %u randomized setups)\n\n",
                num_setups);
    const toolchain::OptLevel levels[] = {
        toolchain::OptLevel::O0, toolchain::OptLevel::O1,
        toolchain::OptLevel::O2, toolchain::OptLevel::O3};

    core::TextTable t({"workload", "vendor", "question", "speedup CI",
                       "flips", "verdict"});
    std::vector<campaign::CampaignSpec> specs;
    for (const char *w : {"perl", "gobmk"}) {
        for (auto vendor : {toolchain::CompilerVendor::GccLike,
                            toolchain::CompilerVendor::IccLike}) {
            for (int i = 0; i + 1 < 4; ++i) {
                core::ExperimentSpec spec;
                spec.withWorkload(w)
                    .withBaseline({vendor, levels[i]})
                    .withTreatment({vendor, levels[i + 1]});
                // The historical sequential sample: one RNG, seed
                // 0xa5a5, redrawn afresh for every level pair.
                specs.push_back(
                    campaign::CampaignSpec().withExperiment(spec).withSetups(
                        pipeline::sequentialSetups(
                            core::SetupSpace().varyEnvSize().varyLinkOrder(),
                            num_setups, 0xa5a5)));
            }
        }
    }
    const auto reports = ctx.runAll(specs);
    for (std::size_t k = 0; k < reports.size(); ++k) {
        const core::ExperimentSpec &spec = specs[k].experiment;
        const auto &report = reports[k].bias;
        const std::string q =
            toolchain::optLevelName(spec.treatment.level) + " > " +
            toolchain::optLevelName(spec.baseline.level) + "?";
        t.addRow({spec.workload, toolchain::vendorName(spec.baseline.vendor), q,
                  core::fmtInterval(report.speedupCI.lower,
                                    report.speedupCI.upper),
                  std::to_string(report.conclusionFlips) + "/" +
                      std::to_string(num_setups),
                  core::verdictName(report.verdict)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("only conclusions whose effect exceeds the bias "
                "survive; every other verdict is setup-dependent.\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig10()
{
    return {"fig10", pipeline::FigureSpec::Kind::Figure,
            "randomized-setup verdicts for every optimization step",
            render};
}

} // namespace mbias::figures
