#include "stats/anova2.hh"

#include <limits>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "stats/distributions.hh"

namespace mbias::stats
{

TwoWayAnovaResult
twoWayAnova(const std::vector<std::vector<Sample>> &cells)
{
    const std::size_t na = cells.size();
    mbias_assert(na >= 2, "two-way ANOVA needs >= 2 levels of factor A");
    const std::size_t nb = cells[0].size();
    mbias_assert(nb >= 2, "two-way ANOVA needs >= 2 levels of factor B");
    const std::size_t reps = cells[0][0].count();
    mbias_assert(reps >= 2, "two-way ANOVA needs >= 2 replicates/cell");
    for (const auto &row : cells) {
        mbias_assert(row.size() == nb, "ragged cell matrix");
        for (const auto &c : row)
            mbias_assert(c.count() == reps, "unbalanced cell design");
    }
    obs::ScopedSpan span("stats.anova", "stats");

    const double n_total = double(na * nb * reps);
    double grand_sum = 0.0;
    for (const auto &row : cells)
        for (const auto &c : row)
            grand_sum += c.sum();
    const double grand_mean = grand_sum / n_total;

    // Marginal means.
    std::vector<double> mean_a(na, 0.0), mean_b(nb, 0.0);
    for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t b = 0; b < nb; ++b) {
            mean_a[a] += cells[a][b].sum();
            mean_b[b] += cells[a][b].sum();
        }
    }
    for (auto &m : mean_a)
        m /= double(nb * reps);
    for (auto &m : mean_b)
        m /= double(na * reps);

    TwoWayAnovaResult r;
    for (std::size_t a = 0; a < na; ++a)
        r.ssA += double(nb * reps) * (mean_a[a] - grand_mean) *
                 (mean_a[a] - grand_mean);
    for (std::size_t b = 0; b < nb; ++b)
        r.ssB += double(na * reps) * (mean_b[b] - grand_mean) *
                 (mean_b[b] - grand_mean);
    for (std::size_t a = 0; a < na; ++a) {
        for (std::size_t b = 0; b < nb; ++b) {
            const double cell_mean = cells[a][b].mean();
            const double inter = cell_mean - mean_a[a] - mean_b[b] +
                                 grand_mean;
            r.ssAB += double(reps) * inter * inter;
            for (double v : cells[a][b].values())
                r.ssWithin += (v - cell_mean) * (v - cell_mean);
        }
    }

    r.dfA = double(na - 1);
    r.dfB = double(nb - 1);
    r.dfAB = double((na - 1) * (nb - 1));
    r.dfWithin = double(na * nb * (reps - 1));

    const double ms_within = r.ssWithin / r.dfWithin;
    auto ftest = [&](double ss, double df, double &f, double &p) {
        if (ms_within == 0.0) {
            f = ss > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
            p = ss > 0.0 ? 0.0 : 1.0;
            return;
        }
        f = (ss / df) / ms_within;
        p = 1.0 - fCdf(f, df, r.dfWithin);
    };
    ftest(r.ssA, r.dfA, r.fA, r.pA);
    ftest(r.ssB, r.dfB, r.fB, r.pB);
    ftest(r.ssAB, r.dfAB, r.fAB, r.pAB);
    return r;
}

} // namespace mbias::stats
