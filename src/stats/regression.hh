#ifndef MBIAS_STATS_REGRESSION_HH
#define MBIAS_STATS_REGRESSION_HH

#include <vector>

namespace mbias::stats
{

/** Pearson product-moment correlation coefficient; needs n >= 2. */
double pearson(const std::vector<double> &x, const std::vector<double> &y);

/**
 * Spearman rank correlation (Pearson over average ranks, so ties are
 * handled); needs n >= 2.  The causal analyzer prefers it because
 * counter-vs-cycles relations are often monotone but not linear.
 */
double spearman(const std::vector<double> &x, const std::vector<double> &y);

} // namespace mbias::stats

#endif // MBIAS_STATS_REGRESSION_HH
