#ifndef MBIAS_STATS_DISTRIBUTIONS_HH
#define MBIAS_STATS_DISTRIBUTIONS_HH

namespace mbias::stats
{

/**
 * Regularized incomplete beta function I_x(a, b), computed with the
 * continued-fraction expansion (Numerical Recipes style).  Domain:
 * a > 0, b > 0, 0 <= x <= 1.
 */
double regularizedIncompleteBeta(double a, double b, double x);

/** CDF of the standard normal distribution. */
double normalCdf(double z);

/** Inverse CDF (quantile) of the standard normal distribution. */
double normalQuantile(double p);

/** CDF of Student's t distribution with @p df degrees of freedom. */
double studentTCdf(double t, double df);

/**
 * Two-sided critical value t* such that P(|T| <= t*) = @p confidence for
 * Student's t with @p df degrees of freedom (e.g. confidence = 0.95).
 */
double studentTCritical(double confidence, double df);

/** CDF of the F distribution with (d1, d2) degrees of freedom. */
double fCdf(double f, double d1, double d2);

} // namespace mbias::stats

#endif // MBIAS_STATS_DISTRIBUTIONS_HH
