#ifndef MBIAS_STATS_DENSITY_HH
#define MBIAS_STATS_DENSITY_HH

#include <string>
#include <vector>

#include "stats/sample.hh"

namespace mbias::stats
{

/**
 * Gaussian kernel density estimate over a sample, used to print
 * violin-plot style summaries of cycle-count distributions (the
 * paper's Figure-1-style plots) without a graphics dependency.
 */
class KernelDensity
{
  public:
    /**
     * Builds the estimate.  @p bandwidth <= 0 selects Silverman's
     * rule-of-thumb bandwidth.
     */
    explicit KernelDensity(const Sample &s, double bandwidth = 0.0);

    /** Density estimate at @p x. */
    double at(double x) const;

    /** The bandwidth in use. */
    double bandwidth() const { return bandwidth_; }

  private:
    std::vector<double> data_;
    double bandwidth_;
};

/**
 * Quantile summary of a distribution for text rendering: a violin
 * reduced to min / p25 / median / p75 / max plus a sparkline-style
 * density strip.
 */
struct ViolinSummary
{
    double min = 0.0;
    double p25 = 0.0;
    double median = 0.0;
    double p75 = 0.0;
    double max = 0.0;

    /** Builds the summary from a sample. */
    static ViolinSummary of(const Sample &s);

    /**
     * ASCII strip (e.g. " .:|#|:. ") whose glyph heights follow the
     * density across @p width bins between min and max.
     */
    std::string strip(const Sample &s, int width = 24) const;
};

} // namespace mbias::stats

#endif // MBIAS_STATS_DENSITY_HH
