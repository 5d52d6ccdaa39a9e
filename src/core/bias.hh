#ifndef MBIAS_CORE_BIAS_HH
#define MBIAS_CORE_BIAS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "stats/ci.hh"
#include "stats/sample.hh"

namespace mbias::core
{

/** The robust answer to "is the treatment beneficial?". */
enum class Verdict
{
    TreatmentHelps,
    TreatmentHurts,
    Inconclusive,
};

/** Readable name of a verdict. */
std::string verdictName(Verdict v);

/**
 * The result of measuring one experiment across many setups: the
 * effect estimate with its uncertainty *over the setup distribution*,
 * plus diagnostics quantifying how badly a single-setup experiment
 * could have misled.
 */
struct BiasReport
{
    std::string specDescription;
    std::vector<RunOutcome> outcomes;

    /** Speedups across setups. */
    stats::Sample speedups;

    /** Confidence interval for the mean speedup over setups. */
    stats::ConfidenceInterval speedupCI;

    /**
     * Bias magnitude: (max - min) speedup across setups.  The paper
     * calls bias *significant* when this spread rivals or exceeds the
     * effect being measured.
     */
    double biasMagnitude = 0.0;

    /** |mean speedup - 1|: the size of the effect under study. */
    double effectSize = 0.0;

    /**
     * Setups whose speedup sits on the other side of 1.0 from the
     * mean: each is a setup in which a (careful!) researcher would
     * reach the opposite conclusion.
     */
    int conclusionFlips = 0;

    /** Setup with the smallest / largest observed speedup. */
    ExperimentSetup minSetup;
    ExperimentSetup maxSetup;

    /** The robust verdict at the report's significance threshold. */
    Verdict verdict = Verdict::Inconclusive;

    /**
     * True when the setup-induced spread exceeds the effect size —
     * i.e. when choosing a single setup can dominate the measured
     * result.  This is the paper's operational definition of
     * "significant measurement bias".
     */
    bool biased() const { return biasMagnitude > effectSize; }

    /** Multi-line human-readable rendering. */
    std::string str() const;
};

/**
 * The analysis half of the paper's methodology: characterize both the
 * effect and the bias of outcomes measured across many setups.  The
 * measuring half is a campaign (campaign::CampaignEngine, reached from
 * figures, examples and the CLI through pipeline::FigureContext::run),
 * which aggregates its outcomes with this analyzer.
 */
class BiasAnalyzer
{
  public:
    /**
     * @p threshold is the relative effect below which a speedup is
     * called neutral (default 1%); @p confidence the CI level.
     */
    explicit BiasAnalyzer(double threshold = 0.01,
                          double confidence = 0.95);

    /**
     * Opts in to percentile-bootstrap confidence intervals: aggregate
     * reports then carry a bootstrap CI (@p resamples resamples, seed
     * streams derived from @p seed, computed by the stats engine at
     * @p jobs workers) instead of the Student-t interval.  The engine
     * result is bitwise identical at any jobs value; the default
     * (t interval) is unchanged so existing figures keep their bytes.
     */
    BiasAnalyzer &withBootstrap(int resamples, std::uint64_t seed,
                                unsigned jobs = 1);

    /**
     * Aggregates outcomes measured elsewhere (by a campaign, possibly
     * loaded from a result store) into a report; needs >= 2 of them.
     */
    BiasReport aggregate(const ExperimentSpec &spec,
                         std::vector<RunOutcome> outcomes) const;

  private:
    double threshold_;
    double confidence_;
    int bootstrapResamples_ = 0; ///< 0: Student-t (the default)
    std::uint64_t bootstrapSeed_ = 0;
    unsigned jobs_ = 1;
};

} // namespace mbias::core

#endif // MBIAS_CORE_BIAS_HH
