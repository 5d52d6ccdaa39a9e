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

} // namespace mbias::stats
