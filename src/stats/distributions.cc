#include "stats/distributions.hh"

#include <cmath>
#include <limits>

#include "base/logging.hh"

namespace mbias::stats
{

namespace
{

/** Continued fraction for the incomplete beta function. */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr int max_iter = 300;
    constexpr double eps = 3.0e-14;
    constexpr double fpmin = 1.0e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < fpmin)
        d = fpmin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= max_iter; ++m) {
        const int m2 = 2 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps)
            break;
    }
    return h;
}

} // namespace

double
regularizedIncompleteBeta(double a, double b, double x)
{
    mbias_assert(a > 0.0 && b > 0.0, "beta parameters must be positive");
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;

    const double ln_front = std::lgamma(a + b) - std::lgamma(a) -
                            std::lgamma(b) + a * std::log(x) +
                            b * std::log(1.0 - x);
    const double front = std::exp(ln_front);
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    mbias_assert(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
    // Acklam's rational approximation, refined with one Newton step.
    static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                               -2.759285104469687e+02, 1.383577518672690e+02,
                               -3.066479806614716e+01, 2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                               -1.556989798598866e+02, 6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                               -2.400758277161838e+00, -2.549732539343734e+00,
                               4.374664141464968e+00,  2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                               2.445134137142996e+00, 3.754408661907416e+00};

    const double plow = 0.02425;
    double x = 0.0;
    if (p < plow) {
        double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - plow) {
        double q = p - 0.5;
        double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
             a[5]) *
            q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
             1.0);
    } else {
        double q = std::sqrt(-2.0 * std::log(1.0 - p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
              c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    // One Newton-Raphson refinement.
    double e = normalCdf(x) - p;
    double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
    return x - u / (1.0 + x * u / 2.0);
}

double
studentTCdf(double t, double df)
{
    mbias_assert(df > 0.0, "degrees of freedom must be positive");
    const double x = df / (df + t * t);
    const double p = 0.5 * regularizedIncompleteBeta(df / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - p : p;
}

double
studentTCritical(double confidence, double df)
{
    mbias_assert(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
    const double target = 0.5 + confidence / 2.0;
    // Bisection on the CDF; monotone, so this always converges.
    double lo = 0.0, hi = 1.0;
    while (studentTCdf(hi, df) < target)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        double mid = 0.5 * (lo + hi);
        if (studentTCdf(mid, df) < target)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12)
            break;
    }
    return 0.5 * (lo + hi);
}

double
fCdf(double f, double d1, double d2)
{
    mbias_assert(d1 > 0.0 && d2 > 0.0, "degrees of freedom must be positive");
    if (f <= 0.0)
        return 0.0;
    const double x = d1 * f / (d1 * f + d2);
    return regularizedIncompleteBeta(d1 / 2.0, d2 / 2.0, x);
}

} // namespace mbias::stats
