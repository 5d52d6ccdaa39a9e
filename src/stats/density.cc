#include "stats/density.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace mbias::stats
{

KernelDensity::KernelDensity(const Sample &s, double bandwidth)
    : data_(s.values())
{
    mbias_assert(!data_.empty(), "density of empty sample");
    if (bandwidth > 0.0) {
        bandwidth_ = bandwidth;
    } else if (s.count() >= 2 && s.stddev() > 0.0) {
        // Silverman's rule of thumb.
        bandwidth_ = 1.06 * s.stddev() *
                     std::pow(double(s.count()), -0.2);
    } else {
        // Degenerate sample: fall back to a tiny positive width.
        const double scale = std::fabs(data_.front());
        bandwidth_ = scale > 0.0 ? scale * 1e-3 : 1.0;
    }
}

double
KernelDensity::at(double x) const
{
    const double inv = 1.0 / bandwidth_;
    double acc = 0.0;
    for (double v : data_) {
        const double u = (x - v) * inv;
        acc += std::exp(-0.5 * u * u);
    }
    return acc * inv / (std::sqrt(2.0 * M_PI) * double(data_.size()));
}

ViolinSummary
ViolinSummary::of(const Sample &s)
{
    ViolinSummary v;
    v.min = s.min();
    v.p25 = s.quantile(0.25);
    v.median = s.median();
    v.p75 = s.quantile(0.75);
    v.max = s.max();
    return v;
}

std::string
ViolinSummary::strip(const Sample &s, int width) const
{
    mbias_assert(width >= 2, "strip needs width >= 2");
    static const char glyphs[] = " .:-=+*#%@";
    KernelDensity kde(s);
    std::vector<double> dens(width);
    double peak = 0.0;
    const double span = max > min ? max - min : 1.0;
    for (int i = 0; i < width; ++i) {
        const double x = min + span * double(i) / double(width - 1);
        dens[i] = kde.at(x);
        peak = std::max(peak, dens[i]);
    }
    std::string out(width, ' ');
    for (int i = 0; i < width; ++i) {
        const int level =
            peak > 0.0 ? int(dens[i] / peak * 9.0 + 0.5) : 0;
        out[i] = glyphs[std::clamp(level, 0, 9)];
    }
    return out;
}

} // namespace mbias::stats
