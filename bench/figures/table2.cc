/**
 * @file
 * Table 2: the literature survey.  133 papers from ASPLOS, PACT, PLDI,
 * and CGO; none reports the environment size or the link order, and
 * none otherwise addresses measurement bias.  (Aggregate numbers are
 * the paper's; per-paper attributes are a consistent synthetic
 * elaboration — see DESIGN.md.)
 *
 * The one spec with no simulator sweep: its render stage only reads
 * the bundled survey database.
 */
#include <cstdio>

#include "core/table.hh"
#include "figures.hh"
#include "pipeline/context.hh"
#include "survey/analyzer.hh"

using namespace mbias;

namespace
{

void
render(pipeline::FigureContext &)
{
    const auto &db = survey::SurveyDatabase::bundled();
    survey::SurveyAnalyzer analyzer(db);

    std::printf("Table 2: literature survey of %zu papers\n\n", db.size());
    core::TextTable t({"venue", "papers", "eval perf", "SPEC", "baseline",
                       "variability", "env size", "link order",
                       "address bias"});
    for (const auto &s : analyzer.summarize()) {
        t.addRow({s.venue, std::to_string(s.papers),
                  std::to_string(s.evaluatePerformance),
                  std::to_string(s.useSpecCpu),
                  std::to_string(s.compareToBaseline),
                  std::to_string(s.reportVariability),
                  std::to_string(s.reportEnvironment),
                  std::to_string(s.reportLinkOrder),
                  std::to_string(s.addressBias)});
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("papers addressing measurement bias: %u of %zu\n",
                analyzer.papersAddressingBias(), db.size());
    std::printf("papers vulnerable (perf claims, no setup/variability "
                "reporting): %u of %zu\n",
                analyzer.vulnerablePapers(), db.size());
}

} // namespace

namespace mbias::figures
{

pipeline::FigureSpec
table2()
{
    return {"table2", pipeline::FigureSpec::Kind::Table,
            "literature survey: who reports setup factors?",
            render};
}

} // namespace mbias::figures
