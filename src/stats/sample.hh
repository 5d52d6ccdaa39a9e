#ifndef MBIAS_STATS_SAMPLE_HH
#define MBIAS_STATS_SAMPLE_HH

#include <cstddef>
#include <string>
#include <vector>

namespace mbias::stats
{

/**
 * A collection of scalar observations with summary statistics.
 *
 * Values are retained (not streamed) because the bias toolkit needs
 * quantiles, bootstrap resampling, and density estimates, all of which
 * require the raw data.  Quantile queries sort a lazily maintained
 * copy.
 */
class Sample
{
  public:
    Sample() = default;

    /** Constructs from an existing vector of observations. */
    explicit Sample(std::vector<double> values);

    /** Adds one observation. */
    void add(double v);

    /** Adds all observations of another sample. */
    void addAll(const Sample &other);

    /** Number of observations. */
    std::size_t count() const { return values_.size(); }

    /** True iff no observations have been added. */
    bool empty() const { return values_.empty(); }

    /** The raw observations, in insertion order. */
    const std::vector<double> &values() const { return values_; }

    /** Arithmetic mean; requires at least one observation. */
    double mean() const;

    /** Sum of all observations. */
    double sum() const;

    /** Unbiased sample variance (n-1 denominator); needs n >= 2. */
    double variance() const;

    /** Unbiased sample standard deviation; needs n >= 2. */
    double stddev() const;

    /** Standard error of the mean; needs n >= 2. */
    double stderror() const;

    /** Smallest observation. */
    double min() const;

    /** Largest observation. */
    double max() const;

    /** Median (0.5 quantile). */
    double median() const;

    /**
     * Linear-interpolated quantile, @p q in [0, 1] (type-7, the R and
     * NumPy default).
     */
    double quantile(double q) const;

    /** Geometric mean; all observations must be positive. */
    double geomean() const;

    /** Coefficient of variation (stddev / mean). */
    double cv() const;

    /** max() - min(). */
    double range() const;

    /** One-line human-readable summary. */
    std::string summary() const;

  private:
    const std::vector<double> &sorted() const;

    std::vector<double> values_;
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;
};

/** Geometric mean of a vector of positive values. */
double geomean(const std::vector<double> &values);

} // namespace mbias::stats

#endif // MBIAS_STATS_SAMPLE_HH
