#ifndef MBIAS_PIPELINE_CONTEXT_HH
#define MBIAS_PIPELINE_CONTEXT_HH

#include <cstdint>
#include <vector>

#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "core/causal.hh"
#include "core/variance.hh"
#include "pipeline/options.hh"
#include "pipeline/setups.hh"

namespace mbias::pipeline
{

/**
 * What a measurement runs against: the shared options plus the one
 * way to measure, a campaign::CampaignSpec run on the campaign
 * engine.  Figures, the examples and the CLI's analyses (`mbias
 * bias|variance|causal`) all measure through a context, so each gets
 * --jobs, dedup, metrics and provenance.  A context may run any
 * number of campaigns.
 */
class FigureContext
{
  public:
    explicit FigureContext(PipelineOptions opts = {})
        : opts_(std::move(opts))
    {
    }

    const PipelineOptions &options() const { return opts_; }

    unsigned jobs() const { return opts_.jobs; }

    /** The shared flags with this figure's historical defaults. */
    double confidence(double dflt = 0.95) const
    {
        return opts_.confidenceOr(dflt);
    }
    int resamples(int dflt = 0) const
    {
        return opts_.resamplesOr(dflt);
    }
    std::uint64_t seed(std::uint64_t dflt) const
    {
        return opts_.seedOr(dflt);
    }

    /**
     * Runs @p spec on the campaign engine at the context's worker
     * budget, aggregating at confidence() and resamples().  Outcomes
     * come back in setup order; the report is bitwise-identical at
     * any --jobs.  Campaigns run storeless here (they are cheap to
     * recompute and their callers' output is the durable artifact);
     * metrics/spans land in the per-campaign report and any active
     * trace session.
     */
    campaign::CampaignReport run(const campaign::CampaignSpec &spec);

    /**
     * A campaign-backed sweep executor for CausalAnalyzer: each
     * requested baseline sweep becomes a BaselineOnly campaign (with
     * the intervention's sp-align forwarded), so causal analyses get
     * --jobs and caching while the analysis math is untouched.
     */
    core::CausalAnalyzer::SweepFn causalSweep();

    /**
     * The false-confidence decomposition (fig8, `mbias variance`):
     * two NoisePaired campaigns, aggregated by a VarianceAnalyzer at
     * confidence().  Within: @p reps noisy runs per side at @p home,
     * baseline seeds noise_seed + r and treatment seeds noise_seed +
     * 7919 + r.  Between: one noisy run per side at each of @p peers,
     * peer i at noise_seed + 104729 + 2i (baseline) and one more
     * (treatment).
     */
    core::VarianceReport
    varianceDecomposition(const core::ExperimentSpec &spec,
                          const core::ExperimentSetup &home,
                          const std::vector<core::ExperimentSetup> &peers,
                          unsigned reps, std::uint64_t noise_seed);

    /** Campaign wall seconds accumulated across every run() so far. */
    double campaignWallSeconds() const { return wallSeconds_; }

  private:
    PipelineOptions opts_;
    double wallSeconds_ = 0.0;
};

} // namespace mbias::pipeline

#endif // MBIAS_PIPELINE_CONTEXT_HH
