#include "core/bias.hh"

#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "stats/engine.hh"

namespace mbias::core
{

std::string
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::TreatmentHelps:
        return "treatment helps";
      case Verdict::TreatmentHurts:
        return "treatment hurts";
      case Verdict::Inconclusive:
        return "inconclusive";
    }
    mbias_panic("bad verdict");
}

std::string
BiasReport::str() const
{
    std::ostringstream os;
    os << specDescription << "\n";
    os << "  setups measured : " << outcomes.size() << "\n";
    os << "  speedup         : " << speedupCI.str() << " (CI over setups)\n";
    os << "  speedup range   : [" << speedups.min() << ", "
       << speedups.max() << "]\n";
    os << "  bias magnitude  : " << biasMagnitude << " vs effect size "
       << effectSize << (biased() ? "  ** BIASED **" : "") << "\n";
    os << "  conclusion flips: " << conclusionFlips << "/"
       << outcomes.size() << "\n";
    os << "  verdict         : " << verdictName(verdict) << "\n";
    os << "  worst setup     : " << minSetup.str() << " -> "
       << speedups.min() << "\n";
    os << "  best setup      : " << maxSetup.str() << " -> "
       << speedups.max() << "\n";
    return os.str();
}

BiasAnalyzer::BiasAnalyzer(double threshold, double confidence)
    : threshold_(threshold), confidence_(confidence)
{
    mbias_assert(threshold >= 0.0, "negative threshold");
    mbias_assert(confidence > 0.0 && confidence < 1.0, "bad confidence");
}

BiasAnalyzer &
BiasAnalyzer::withBootstrap(int resamples, std::uint64_t seed,
                            unsigned jobs)
{
    mbias_assert(resamples >= 10, "too few bootstrap resamples");
    bootstrapResamples_ = resamples;
    bootstrapSeed_ = seed;
    jobs_ = jobs;
    return *this;
}

BiasReport
BiasAnalyzer::aggregate(const ExperimentSpec &spec,
                        std::vector<RunOutcome> outcomes) const
{
    mbias_assert(outcomes.size() >= 2, "bias analysis needs >= 2 outcomes");
    obs::ScopedSpan span("core.aggregate", "core");

    BiasReport r;
    r.specDescription = spec.str();
    r.outcomes = std::move(outcomes);

    for (const auto &o : r.outcomes)
        r.speedups.add(o.speedup);
    if (bootstrapResamples_ > 0) {
        stats::EngineOptions eo;
        eo.jobs = jobs_;
        r.speedupCI = stats::Engine(eo).bootstrapInterval(
            r.speedups.values(), bootstrapSeed_, bootstrapResamples_,
            confidence_);
    } else {
        r.speedupCI = stats::tInterval(r.speedups, confidence_);
    }
    r.biasMagnitude = r.speedups.range();
    r.effectSize = std::fabs(r.speedups.mean() - 1.0);

    for (const auto &o : r.outcomes) {
        if (o.speedup == r.speedups.min())
            r.minSetup = o.setup;
        if (o.speedup == r.speedups.max())
            r.maxSetup = o.setup;
    }

    const double mean = r.speedups.mean();
    for (const auto &o : r.outcomes) {
        if ((mean > 1.0 && o.speedup < 1.0) ||
            (mean < 1.0 && o.speedup > 1.0))
            ++r.conclusionFlips;
    }

    if (r.speedupCI.entirelyAbove(1.0 + threshold_))
        r.verdict = Verdict::TreatmentHelps;
    else if (r.speedupCI.entirelyBelow(1.0 - threshold_))
        r.verdict = Verdict::TreatmentHurts;
    else
        r.verdict = Verdict::Inconclusive;

    return r;
}

} // namespace mbias::core
