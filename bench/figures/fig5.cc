/**
 * @file
 * Figure 5: two "commonplace" claims in one harness.
 *  (a) Simulators are biased too: link-order bias measured on the
 *      m5-flavoured o3like model.
 *  (b) Both compilers are affected: the same study under the icc-like
 *      vendor profile.
 */
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/sample.hh"

using namespace mbias;

namespace
{

constexpr unsigned num_orders = 20;

const char *const workload_names[] = {"perl", "bzip", "milc", "sjeng",
                                      "gobmk", "hmmer"};

campaign::CampaignSpec
linkOrderSweep(const core::ExperimentSpec &spec)
{
    return campaign::CampaignSpec().withExperiment(spec).withSetups(
        core::SetupSpace().varyLinkOrder().grid(num_orders));
}

/** The rows of one table: a workload's speedups per row, from the
 *  reports [first, first + 6). */
std::string
table(const std::vector<campaign::CampaignReport> &reports,
      std::size_t first)
{
    core::TextTable t({"workload", "min", "median", "max", "crosses 1.0"});
    for (std::size_t i = 0; i < std::size(workload_names); ++i) {
        stats::Sample sp;
        for (const auto &o : reports[first + i].bias.outcomes)
            sp.add(o.speedup);
        t.addRow({workload_names[i], core::fmt(sp.min()),
                  core::fmt(sp.median()), core::fmt(sp.max()),
                  sp.min() < 1.0 && sp.max() > 1.0 ? "YES" : "no"});
    }
    return t.str();
}

void
render(pipeline::FigureContext &ctx)
{
    // Both studies' campaigns run as one batch: 5a's six, then 5b's.
    std::vector<campaign::CampaignSpec> specs;
    for (const char *w : workload_names) {
        core::ExperimentSpec spec;
        spec.withWorkload(w).withMachine(sim::MachineConfig::o3Like());
        specs.push_back(linkOrderSweep(spec));
    }
    for (const char *w : workload_names) {
        core::ExperimentSpec spec;
        spec.withWorkload(w)
            .withBaseline({toolchain::CompilerVendor::IccLike,
                           toolchain::OptLevel::O2})
            .withTreatment({toolchain::CompilerVendor::IccLike,
                            toolchain::OptLevel::O3});
        specs.push_back(linkOrderSweep(spec));
    }
    const auto reports = ctx.runAll(specs);

    std::printf("Figure 5a: link-order bias on the simulated O3CPU "
                "(o3like, gcc O2 vs O3, %u orders)\n\n", num_orders);
    std::printf("%s\n", table(reports, 0).c_str());
    std::printf("Figure 5b: the same study with the icc-like vendor "
                "(core2like, icc O2 vs O3)\n\n");
    std::printf("%s\n", table(reports, std::size(workload_names)).c_str());
    std::printf("bias is not an artifact of one architecture, one "
                "simulator, or one compiler\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig5()
{
    return {"fig5", pipeline::FigureSpec::Kind::Figure,
            "link-order bias on the o3like simulator and the icc-like vendor",
            render};
}

} // namespace mbias::figures
