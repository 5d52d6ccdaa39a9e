#include "pipeline/context.hh"

#include "campaign/engine.hh"

namespace mbias::pipeline
{

campaign::CampaignReport
FigureContext::run(const campaign::CampaignSpec &spec)
{
    campaign::CampaignOptions copts;
    copts.jobs = opts_.jobs;
    copts.confidence = confidence();
    copts.resamples = resamples();
    // progress stays off: the output is piped/diffed.
    campaign::CampaignEngine engine(spec, copts);
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
    using Kind = campaign::RepetitionPlan::Kind;

    // Within: repeat base and treatment at the home setup.
    const auto wr = run(campaign::CampaignSpec()
                            .withExperiment(spec)
                            .withSeededSetups({{home, noise_seed}})
                            .withPlan({Kind::NoisePaired, reps,
                                       /*treatSeedOffset=*/7919}));
    const auto &wo = wr.bias.outcomes.at(0);
    std::vector<double> within;
    for (unsigned i = 0; i < reps; ++i)
        within.push_back(wo.repBaseline[i] / wo.repTreatment[i]);

    // Between: one noisy repetition per peer setup.
    std::vector<campaign::SeededSetup> seeded;
    std::uint64_t seed = noise_seed + 104729;
    for (const auto &s : peers) {
        seeded.push_back({s, seed});
        seed += 2;
    }
    const auto br = run(campaign::CampaignSpec()
                            .withExperiment(spec)
                            .withSeededSetups(std::move(seeded))
                            .withPlan({Kind::NoisePaired, 1,
                                       /*treatSeedOffset=*/1}));
    std::vector<double> between;
    for (const auto &o : br.bias.outcomes)
        between.push_back(o.repBaseline[0] / o.repTreatment[0]);

    return core::VarianceAnalyzer(confidence())
        .aggregate(spec, within, between);
}

} // namespace mbias::pipeline
