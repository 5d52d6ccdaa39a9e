#ifndef MBIAS_CORE_VARIANCE_HH
#define MBIAS_CORE_VARIANCE_HH

#include <string>
#include <vector>

#include "core/experiment.hh"
#include "stats/ci.hh"
#include "stats/sample.hh"

namespace mbias::core
{

/**
 * The false-confidence diagnosis: within-setup (visible) variance vs
 * between-setup (invisible) bias.
 *
 * The conventional methodology repeats a run k times in one setup and
 * reports mean +- CI.  The paper's observation is that this CI can be
 * *tight around the wrong value*: run-to-run noise is small, while the
 * setup-induced offset is large and perfectly reproducible, so no
 * amount of repetition reveals it.
 */
struct VarianceReport
{
    std::string specDescription;

    /** Speedups from @c reps noisy repetitions at the home setup. */
    stats::Sample withinSetup;
    stats::ConfidenceInterval withinCI;

    /** Speedups across distinct setups (one noisy run each). */
    stats::Sample betweenSetups;
    stats::ConfidenceInterval betweenCI;

    /** Between-setup variance over within-setup variance. */
    double varianceRatio = 0.0;

    /**
     * The trap: the within-setup CI (what a careful single-setup paper
     * would publish) excludes the cross-setup mean (the truth).
     */
    bool falseConfidence = false;

    std::string str() const;
};

/**
 * Decomposes measurement variation into noise and bias components.
 * The ratio samples come from two NoisePaired campaigns, measured by
 * pipeline::FigureContext::varianceDecomposition (fig8 and `mbias
 * variance` share that one lowering); this class holds the math.
 */
class VarianceAnalyzer
{
  public:
    /** @p confidence is the level of both reported intervals. */
    explicit VarianceAnalyzer(double confidence = 0.95);

    /**
     * Builds the report from measured ratio samples: @p within holds
     * the per-repetition base/treat ratios at the home setup (the one
     * the hypothetical experimenter happens to have), @p between one
     * ratio per peer setup (the ones their peers might have instead).
     * Each needs >= 2 values.
     */
    VarianceReport aggregate(const ExperimentSpec &spec,
                             const std::vector<double> &within,
                             const std::vector<double> &between) const;

  private:
    double confidence_;
};

} // namespace mbias::core

#endif // MBIAS_CORE_VARIANCE_HH
