#include "core/variance.hh"

#include <limits>
#include <sstream>

#include "base/logging.hh"
#include "stats/streaming.hh"

namespace mbias::core
{

std::string
VarianceReport::str() const
{
    std::ostringstream os;
    os << "variance decomposition for " << specDescription << "\n";
    os << "  within one setup (" << withinSetup.count()
       << " noisy repetitions): speedup " << withinCI.str() << "\n";
    os << "  across setups (" << betweenSetups.count()
       << " setups): speedup " << betweenCI.str() << "\n";
    os << "  between/within variance ratio: " << varianceRatio << "\n";
    if (falseConfidence)
        os << "  ** FALSE CONFIDENCE: the repetition CI excludes the "
              "cross-setup mean — a tight interval around the wrong "
              "value **\n";
    return os.str();
}

VarianceAnalyzer::VarianceAnalyzer(double confidence)
    : confidence_(confidence)
{
    mbias_assert(confidence > 0.0 && confidence < 1.0, "bad confidence");
}

VarianceReport
VarianceAnalyzer::aggregate(const ExperimentSpec &spec,
                            const std::vector<double> &within,
                            const std::vector<double> &between) const
{
    mbias_assert(within.size() >= 2, "need >= 2 within-setup ratios");
    mbias_assert(between.size() >= 2, "need >= 2 between-setup ratios");

    VarianceReport r;
    r.specDescription = spec.str();

    // The streaming twins track single-pass Welford moments alongside
    // the retained samples; the variance ratio reads those, so it
    // never needs the raw vectors (and exercises the streaming path
    // the report aggregation uses at campaign scale).
    stats::StreamingSample withinStream, betweenStream;
    for (const double v : within) {
        r.withinSetup.add(v);
        withinStream.add(v);
    }
    r.withinCI = stats::tInterval(r.withinSetup, confidence_);

    for (const double v : between) {
        r.betweenSetups.add(v);
        betweenStream.add(v);
    }
    r.betweenCI = stats::tInterval(r.betweenSetups, confidence_);

    const double wv = withinStream.variance();
    r.varianceRatio = wv > 0.0 ? betweenStream.variance() / wv
                               : std::numeric_limits<double>::infinity();
    r.falseConfidence = !r.withinCI.contains(r.betweenSetups.mean());
    return r;
}

} // namespace mbias::core
