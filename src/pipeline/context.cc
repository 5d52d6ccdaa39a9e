#include "pipeline/context.hh"

#include "campaign/engine.hh"

namespace mbias::pipeline
{

std::vector<campaign::CampaignReport>
FigureContext::runAll(std::span<const campaign::CampaignSpec> specs)
{
    campaign::CampaignOptions copts;
    copts.jobs = opts_.jobs;
    copts.confidence = confidence();
    copts.resamples = resamples();
    // progress stays off: the output is piped/diffed.
    std::vector<campaign::CampaignEngine> engines;
    engines.reserve(specs.size());
    for (const campaign::CampaignSpec &spec : specs)
        engines.emplace_back(spec, copts);
    std::vector<campaign::CampaignReport> reports =
        campaign::CampaignEngine::runBatch(engines);
    if (!reports.empty())
        wallSeconds_ += reports.front().stats.wallSeconds;
    return reports;
}

campaign::CampaignReport
FigureContext::run(const campaign::CampaignSpec &spec)
{
    return std::move(runAll({&spec, 1}).front());
}

core::CausalAnalyzer::SweepFn
FigureContext::causalSweep()
{
    return [this](const core::ExperimentSpec &spec,
                  const std::vector<core::ExperimentSetup> &setups,
                  std::uint64_t sp_align) {
        campaign::CampaignReport report = run(
            campaign::CampaignSpec()
                .withExperiment(spec)
                .withSetups(setups)
                .withPlan(
                    {campaign::RepetitionPlan::Kind::BaselineOnly, 1})
                .withSpAlign(sp_align));
        std::vector<sim::RunResult> out;
        out.reserve(report.bias.outcomes.size());
        for (const auto &o : report.bias.outcomes)
            out.push_back(o.baseline);
        return out;
    };
}

core::VarianceReport
FigureContext::varianceDecomposition(
    const core::ExperimentSpec &spec, const core::ExperimentSetup &home,
    const std::vector<core::ExperimentSetup> &peers, unsigned reps,
    std::uint64_t noise_seed)
{
    return varianceDecomposition({&spec, 1}, home, peers, reps, noise_seed)
        .front();
}

std::vector<core::VarianceReport>
FigureContext::varianceDecomposition(
    std::span<const core::ExperimentSpec> specs,
    const core::ExperimentSetup &home,
    const std::vector<core::ExperimentSetup> &peers, unsigned reps,
    std::uint64_t noise_seed)
{
    using Kind = campaign::RepetitionPlan::Kind;

    // Between: one noisy repetition per peer setup.
    std::vector<campaign::SeededSetup> seeded;
    std::uint64_t seed = noise_seed + 104729;
    for (const auto &s : peers) {
        seeded.push_back({s, seed});
        seed += 2;
    }
    // Per spec, two campaigns: within (repeat base and treatment at
    // the home setup) and between.
    std::vector<campaign::CampaignSpec> cspecs;
    for (const core::ExperimentSpec &spec : specs) {
        cspecs.push_back(campaign::CampaignSpec()
                             .withExperiment(spec)
                             .withSeededSetups({{home, noise_seed}})
                             .withPlan({Kind::NoisePaired, reps,
                                        /*treatSeedOffset=*/7919}));
        cspecs.push_back(campaign::CampaignSpec()
                             .withExperiment(spec)
                             .withSeededSetups(seeded)
                             .withPlan({Kind::NoisePaired, 1,
                                        /*treatSeedOffset=*/1}));
    }
    const auto reports = runAll(cspecs);

    std::vector<core::VarianceReport> out;
    for (std::size_t k = 0; k < specs.size(); ++k) {
        const auto &wo = reports[2 * k].bias.outcomes.at(0);
        std::vector<double> within;
        for (unsigned i = 0; i < reps; ++i)
            within.push_back(wo.repBaseline[i] / wo.repTreatment[i]);
        std::vector<double> between;
        for (const auto &o : reports[2 * k + 1].bias.outcomes)
            between.push_back(o.repBaseline[0] / o.repTreatment[0]);
        out.push_back(core::VarianceAnalyzer(confidence())
                          .aggregate(specs[k], within, between));
    }
    return out;
}

} // namespace mbias::pipeline
