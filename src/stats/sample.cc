#include "stats/sample.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "base/logging.hh"

namespace mbias::stats
{

Sample::Sample(std::vector<double> values) : values_(std::move(values)) {}

void
Sample::add(double v)
{
    values_.push_back(v);
    sortedValid_ = false;
}

void
Sample::addAll(const Sample &other)
{
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
    sortedValid_ = false;
}

const std::vector<double> &
Sample::sorted() const
{
    if (!sortedValid_) {
        sorted_ = values_;
        std::sort(sorted_.begin(), sorted_.end());
        sortedValid_ = true;
    }
    return sorted_;
}

double
Sample::mean() const
{
    mbias_assert(!values_.empty(), "mean of empty sample");
    return sum() / double(values_.size());
}

double
Sample::sum() const
{
    return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double
Sample::variance() const
{
    mbias_assert(values_.size() >= 2, "variance needs n >= 2");
    const double m = mean();
    double acc = 0.0;
    for (double v : values_)
        acc += (v - m) * (v - m);
    return acc / double(values_.size() - 1);
}

double
Sample::stddev() const
{
    return std::sqrt(variance());
}

double
Sample::stderror() const
{
    return stddev() / std::sqrt(double(values_.size()));
}

double
Sample::min() const
{
    mbias_assert(!values_.empty(), "min of empty sample");
    return sorted().front();
}

double
Sample::max() const
{
    mbias_assert(!values_.empty(), "max of empty sample");
    return sorted().back();
}

double
Sample::median() const
{
    return quantile(0.5);
}

double
Sample::quantile(double q) const
{
    mbias_assert(!values_.empty(), "quantile of empty sample");
    mbias_assert(q >= 0.0 && q <= 1.0, "quantile requires q in [0,1]");
    const auto &s = sorted();
    if (s.size() == 1)
        return s.front();
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double
Sample::geomean() const
{
    mbias_assert(!values_.empty(), "geomean of empty sample");
    double acc = 0.0;
    for (double v : values_) {
        mbias_assert(v > 0.0, "geomean requires positive values");
        acc += std::log(v);
    }
    return std::exp(acc / double(values_.size()));
}

double
Sample::cv() const
{
    return stddev() / mean();
}

double
Sample::range() const
{
    return max() - min();
}

std::string
Sample::summary() const
{
    std::ostringstream os;
    os << "n=" << count();
    if (!empty()) {
        os << " mean=" << mean() << " min=" << min() << " med=" << median()
           << " max=" << max();
        if (count() >= 2)
            os << " sd=" << stddev();
    }
    return os.str();
}

double
geomean(const std::vector<double> &values)
{
    return Sample(values).geomean();
}

} // namespace mbias::stats
