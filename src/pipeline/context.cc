#include "pipeline/context.hh"

#include "campaign/engine.hh"

namespace mbias::pipeline
{

campaign::CampaignReport
FigureContext::run(const Sweep &sweep)
{
    campaign::CampaignOptions copts;
    copts.jobs = opts_.jobs;
    copts.confidence = confidence();
    copts.resamples = resamples();
    // tracePath stays empty: the driver owns one trace session around
    // the whole figure, and engine spans land in whatever session is
    // active.  progress stays off: figure output is piped/diffed.
    campaign::CampaignEngine engine(sweep.toCampaignSpec(), copts);
    campaign::CampaignReport report = engine.run();
    wallSeconds_ += report.stats.wallSeconds;
    return report;
}

core::CausalAnalyzer::SweepFn
FigureContext::causalSweep()
{
    return [this](const core::ExperimentSpec &spec,
                  const std::vector<core::ExperimentSetup> &setups,
                  std::uint64_t sp_align) {
        Sweep sweep(spec);
        sweep.setups(setups)
            .plan({campaign::RepetitionPlan::Kind::BaselineOnly, 1});
        if (sp_align)
            sweep.spAlign(sp_align);
        campaign::CampaignReport report = run(sweep);
        std::vector<sim::RunResult> out;
        out.reserve(report.bias.outcomes.size());
        for (const auto &o : report.bias.outcomes)
            out.push_back(o.baseline);
        return out;
    };
}

} // namespace mbias::pipeline
