#ifndef MBIAS_CORE_CAUSAL_HH
#define MBIAS_CORE_CAUSAL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/runner.hh"
#include "sim/counters.hh"
#include "stats/anova.hh"

namespace mbias::core
{

/** How strongly one hardware event tracks the outcome across setups. */
struct CounterCorrelation
{
    sim::Counter counter = sim::Counter::Cycles;
    double spearman = 0.0; ///< rank correlation with the metric
    double pearson = 0.0;  ///< linear correlation with the metric
};

/** Result of one causal intervention. */
struct InterventionResult
{
    std::string name;          ///< e.g. "force 64-byte stack alignment"
    double spreadBefore = 0.0; ///< metric max-min across setups, before
    double spreadAfter = 0.0;  ///< ... with the intervention applied
    /** Fraction of the setup-induced spread the intervention removed. */
    double reduction() const
    {
        return spreadBefore > 0.0 ? 1.0 - spreadAfter / spreadBefore : 0.0;
    }
    /** The paper's criterion: the cause is confirmed when removing the
     *  suspected mechanism removes (most of) the variation. */
    bool confirmed(double fraction = 0.5) const
    {
        return reduction() >= fraction;
    }
};

/** Output of the causal analysis. */
struct CausalReport
{
    std::string specDescription;

    /** Counters ranked by |rank correlation| with the metric. */
    std::vector<CounterCorrelation> rankedCauses;

    /** One-way ANOVA of the setup factor's effect on the metric. */
    stats::AnovaResult factorEffect;

    /** Interventions that were tried. */
    std::vector<InterventionResult> interventions;

    /**
     * Optional mechanism evidence from the setup-diff engine: the
     * extreme setups of the sweep diffed with per-set attribution
     * (see core/explain.hh).  Filled only when the analyzer ran
     * withMechanismEvidence(); deliberately *not* part of str() so
     * pinned causal transcripts stay byte-stable.
     */
    std::string mechanismEvidence;

    std::string str() const;
};

/**
 * The paper's second remedy: *causal analysis*.  Step 1 correlates
 * hardware-counter readings with the outcome across setups to nominate
 * candidate mechanisms; step 2 intervenes on a suspected mechanism
 * (e.g. forcing stack alignment, or disabling the machine's
 * line-split penalty) and checks whether the setup-induced variation
 * disappears.
 */
class CausalAnalyzer
{
  public:
    /**
     * Executes one baseline-side sweep: run @p spec's baseline
     * toolchain across @p setups (with the loader's stack alignment
     * forced to @p sp_align when nonzero) and return the full
     * RunResults in setup order.  Interventions pass a *modified*
     * spec (ablated machine); implementations must honor it.
     */
    using SweepFn = std::function<std::vector<sim::RunResult>(
        const ExperimentSpec &spec,
        const std::vector<ExperimentSetup> &setups,
        std::uint64_t sp_align)>;

    CausalAnalyzer() = default;

    /**
     * Replaces the sweep executor.  The default runs a private serial
     * ExperimentRunner, for callers outside the pipeline layer; the
     * figures, the examples and `mbias causal` install
     * pipeline::FigureContext::causalSweep(), a campaign-backed sweep
     * with --jobs and caching.  Any conforming executor yields
     * bitwise-identical reports: the analysis consumes only the
     * returned RunResults, in setup order.
     */
    CausalAnalyzer &withSweep(SweepFn sweep);

    /**
     * Also runs the setup-diff engine on the sweep's extreme setups
     * (min vs max metric) and fills CausalReport::mechanismEvidence,
     * so the localized factor ships with the per-set/per-entry
     * mechanism behind it.  Costs two extra profiled runs.
     */
    CausalAnalyzer &withMechanismEvidence(bool on = true);

    /**
     * Runs the spec's *baseline* toolchain across @p setups, ranks
     * counter correlations, and applies the standard interventions:
     * stack-alignment forcing plus per-mechanism machine ablations for
     * the top-ranked counters.
     */
    CausalReport analyze(const ExperimentSpec &spec,
                         const std::vector<ExperimentSetup> &setups) const;

  private:
    std::vector<sim::RunResult>
    runSweep(const ExperimentSpec &spec,
             const std::vector<ExperimentSetup> &setups,
             std::uint64_t sp_align) const;

    InterventionResult
    tryIntervention(const ExperimentSpec &spec,
                    const std::vector<ExperimentSetup> &setups,
                    const std::string &name, std::uint64_t sp_align,
                    sim::MachineConfig machine, double spread_before) const;

    SweepFn sweep_; ///< empty = the default serial runner
    bool wantMechanismEvidence_ = false;
};

} // namespace mbias::core

#endif // MBIAS_CORE_CAUSAL_HH
