#include "stats/regression.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/logging.hh"

namespace mbias::stats
{

namespace
{

/** Average ranks (1-based) with ties sharing their mean rank. */
std::vector<double>
ranks(const std::vector<double> &v)
{
    const std::size_t n = v.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(n);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && v[idx[j + 1]] == v[idx[i]])
            ++j;
        const double avg = (double(i) + double(j)) / 2.0 + 1.0;
        for (std::size_t k = i; k <= j; ++k)
            r[idx[k]] = avg;
        i = j + 1;
    }
    return r;
}

} // namespace

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    mbias_assert(x.size() == y.size(), "correlation needs paired data");
    const std::size_t n = x.size();
    mbias_assert(n >= 2, "correlation needs n >= 2");
    const double mx = std::accumulate(x.begin(), x.end(), 0.0) / double(n);
    const double my = std::accumulate(y.begin(), y.end(), 0.0) / double(n);
    double sxx = 0.0, syy = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
        sxy += (x[i] - mx) * (y[i] - my);
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0; // a constant series carries no correlation signal
    return sxy / std::sqrt(sxx * syy);
}

double
spearman(const std::vector<double> &x, const std::vector<double> &y)
{
    return pearson(ranks(x), ranks(y));
}

} // namespace mbias::stats
