#ifndef MBIAS_STATS_CI_HH
#define MBIAS_STATS_CI_HH

#include <string>

#include "stats/sample.hh"

namespace mbias::stats
{

/** A two-sided confidence interval around a point estimate. */
struct ConfidenceInterval
{
    double estimate = 0.0; ///< point estimate (mean or median)
    double lower = 0.0;    ///< lower bound
    double upper = 0.0;    ///< upper bound
    double level = 0.95;   ///< confidence level, e.g. 0.95

    /** Half the interval width. */
    double halfWidth() const { return (upper - lower) / 2.0; }

    /** True iff @p v lies inside the interval (inclusive). */
    bool contains(double v) const { return v >= lower && v <= upper; }

    /** True iff the whole interval lies strictly above @p v. */
    bool entirelyAbove(double v) const { return lower > v; }

    /** True iff the whole interval lies strictly below @p v. */
    bool entirelyBelow(double v) const { return upper < v; }

    /** Renders as "estimate [lower, upper]". */
    std::string str() const;
};

/**
 * Student-t confidence interval for the mean of @p s at @p level.
 * Needs at least two observations.
 */
ConfidenceInterval tInterval(const Sample &s, double level = 0.95);

/**
 * Student-t confidence interval from precomputed moments — the same
 * arithmetic as tInterval(Sample), callable from streaming paths that
 * never materialize the observations (see stats::StreamingSample).
 * @p n is the observation count; needs n >= 2.
 */
ConfidenceInterval tIntervalMoments(double mean, double stderror,
                                    std::size_t n, double level = 0.95);

} // namespace mbias::stats

#endif // MBIAS_STATS_CI_HH
