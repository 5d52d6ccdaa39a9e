/**
 * @file
 * Extension harness A3: do the two setup factors interact?
 *
 * A balanced env x link-order factorial design with noisy replicates,
 * analyzed by two-way ANOVA.  A significant interaction means the
 * env-size effect depends on the link order (and vice versa): fixing
 * or reporting one factor cannot de-bias an experiment — exactly why
 * the paper prescribes randomizing the whole setup.
 *
 * The 4x4 design is one NoiseRepeated campaign per workload: each
 * cell is a task whose pinned seed reproduces the historical
 * 1000*a + 10*b noise-seed formula.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "stats/anova2.hh"

using namespace mbias;

namespace
{

constexpr unsigned env_levels = 4;
constexpr unsigned link_levels = 4;
constexpr unsigned reps = 3;

campaign::CampaignSpec
factorialCampaign(const std::string &workload)
{
    core::ExperimentSpec spec;
    spec.withWorkload(workload);

    std::vector<campaign::SeededSetup> cells_in;
    for (unsigned a = 0; a < env_levels; ++a) {
        for (unsigned b = 0; b < link_levels; ++b) {
            core::ExperimentSetup s;
            s.envBytes = 36 + a * 1021; // odd offsets hit misalignment
            s.linkOrder = b == 0 ? toolchain::LinkOrder::asGiven()
                                 : toolchain::LinkOrder::shuffled(b);
            cells_in.push_back({s, /* noise seeds */ 1000 * a + 10 * b});
        }
    }
    return campaign::CampaignSpec()
        .withExperiment(spec)
        .withSeededSetups(std::move(cells_in))
        .withPlan({campaign::RepetitionPlan::Kind::NoiseRepeated, reps});
}

stats::TwoWayAnovaResult
interactionOf(const campaign::CampaignReport &report)
{
    std::vector<std::vector<stats::Sample>> cells(
        env_levels, std::vector<stats::Sample>(link_levels));
    for (unsigned a = 0; a < env_levels; ++a)
        for (unsigned b = 0; b < link_levels; ++b)
            for (const double v :
                 report.bias.outcomes[a * link_levels + b].repBaseline)
                cells[a][b].add(v);
    return stats::twoWayAnova(cells);
}

void
render(pipeline::FigureContext &ctx)
{
    std::printf("A3: env x link-order factorial ANOVA on O2 cycles "
                "(core2like, gcc, %ux%u design, %u replicates)\n\n",
                env_levels, link_levels, reps);
    core::TextTable t({"workload", "F(env)", "p(env)", "F(link)",
                       "p(link)", "F(interact)", "p(interact)"});
    const char *const names[] = {"perl", "gobmk", "hmmer", "sjeng"};
    std::vector<campaign::CampaignSpec> specs;
    for (const char *w : names)
        specs.push_back(factorialCampaign(w));
    const auto reports = ctx.runAll(specs);
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const char *w = names[i];
        auto r = interactionOf(reports[i]);
        t.addRow({w, core::fmt(r.fA, 1), core::fmt(r.pA, 4),
                  core::fmt(r.fB, 1), core::fmt(r.pB, 4),
                  core::fmt(r.fAB, 1), core::fmt(r.pAB, 4)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("a significant interaction term means neither factor "
                "can be de-biased in isolation\n");
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
fig9()
{
    return {"fig9", pipeline::FigureSpec::Kind::Figure,
            "env x link-order factorial ANOVA (factor interaction)",
            render};
}

} // namespace mbias::figures
