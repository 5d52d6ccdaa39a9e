#include "stats/ci.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "stats/distributions.hh"

namespace mbias::stats
{

std::string
ConfidenceInterval::str() const
{
    std::ostringstream os;
    os << estimate << " [" << lower << ", " << upper << "]";
    return os.str();
}

ConfidenceInterval
tInterval(const Sample &s, double level)
{
    return tIntervalMoments(s.mean(), s.stderror(), s.count(), level);
}

ConfidenceInterval
tIntervalMoments(double mean, double stderror, std::size_t n,
                 double level)
{
    mbias_assert(n >= 2, "t interval needs n >= 2");
    const double df = double(n - 1);
    const double tcrit = studentTCritical(level, df);
    const double half = tcrit * stderror;
    ConfidenceInterval ci;
    ci.estimate = mean;
    ci.lower = ci.estimate - half;
    ci.upper = ci.estimate + half;
    ci.level = level;
    return ci;
}

double
welchTTestPValue(const Sample &a, const Sample &b)
{
    mbias_assert(a.count() >= 2 && b.count() >= 2,
                 "Welch test needs n >= 2 in both samples");
    const double va = a.variance() / double(a.count());
    const double vb = b.variance() / double(b.count());
    if (va + vb == 0.0)
        return a.mean() == b.mean() ? 1.0 : 0.0;
    const double t = (a.mean() - b.mean()) / std::sqrt(va + vb);
    const double df =
        (va + vb) * (va + vb) /
        (va * va / double(a.count() - 1) + vb * vb / double(b.count() - 1));
    const double p_one = 1.0 - studentTCdf(std::fabs(t), df);
    return std::min(1.0, 2.0 * p_one);
}

ConfidenceInterval
ratioInterval(const Sample &numerator, const Sample &denominator,
              double level)
{
    mbias_assert(numerator.count() >= 2 && denominator.count() >= 2,
                 "ratio interval needs n >= 2 in both samples");
    const double mn = numerator.mean();
    const double md = denominator.mean();
    mbias_assert(md != 0.0, "denominator mean is zero");
    const double ratio = mn / md;
    // Delta method: Var(a/b) ~ (1/b^2) Var(a) + (a^2/b^4) Var(b).
    const double var = numerator.variance() / double(numerator.count()) /
                           (md * md) +
                       mn * mn * denominator.variance() /
                           double(denominator.count()) / (md * md * md * md);
    const double df =
        double(std::min(numerator.count(), denominator.count()) - 1);
    const double half = studentTCritical(level, df) * std::sqrt(var);
    ConfidenceInterval ci;
    ci.estimate = ratio;
    ci.lower = ratio - half;
    ci.upper = ratio + half;
    ci.level = level;
    return ci;
}

} // namespace mbias::stats
