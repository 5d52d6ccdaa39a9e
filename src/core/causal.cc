#include "core/causal.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "core/explain.hh"
#include "obs/trace.hh"
#include "stats/regression.hh"

namespace mbias::core
{

std::string
CausalReport::str() const
{
    std::ostringstream os;
    os << "causal analysis of " << specDescription << "\n";
    os << "  counter correlations with the metric (|spearman| ranked):\n";
    for (const auto &c : rankedCauses) {
        if (std::fabs(c.spearman) < 0.05)
            continue;
        os << "    " << sim::counterName(c.counter) << ": spearman "
           << c.spearman << ", pearson " << c.pearson << "\n";
    }
    os << "  setup-factor ANOVA: F=" << factorEffect.fStatistic
       << " p=" << factorEffect.pValue
       << (factorEffect.significant() ? " (significant)" : "") << "\n";
    for (const auto &iv : interventions) {
        os << "  intervention '" << iv.name << "': spread "
           << iv.spreadBefore << " -> " << iv.spreadAfter << " ("
           << iv.reduction() * 100.0 << "% removed"
           << (iv.confirmed() ? ", cause confirmed" : "") << ")\n";
    }
    return os.str();
}

CausalAnalyzer &
CausalAnalyzer::withSweep(SweepFn sweep)
{
    sweep_ = std::move(sweep);
    return *this;
}

CausalAnalyzer &
CausalAnalyzer::withMechanismEvidence(bool on)
{
    wantMechanismEvidence_ = on;
    return *this;
}

std::vector<sim::RunResult>
CausalAnalyzer::runSweep(const ExperimentSpec &spec,
                         const std::vector<ExperimentSetup> &setups,
                         std::uint64_t sp_align) const
{
    if (sweep_)
        return sweep_(spec, setups, sp_align);
    ExperimentRunner runner(spec);
    if (sp_align)
        runner.setSpAlignOverride(sp_align);
    std::vector<sim::RunResult> out;
    out.reserve(setups.size());
    for (const auto &s : setups)
        out.push_back(runner.runSide(spec.baseline, s));
    return out;
}

InterventionResult
CausalAnalyzer::tryIntervention(const ExperimentSpec &spec,
                                const std::vector<ExperimentSetup> &setups,
                                const std::string &name,
                                std::uint64_t sp_align,
                                sim::MachineConfig machine,
                                double spread_before) const
{
    ExperimentSpec modified = spec;
    modified.machine = std::move(machine);
    stats::Sample metric;
    for (const auto &rr : runSweep(modified, setups, sp_align))
        metric.add(metricValue(modified.metric, rr));

    InterventionResult iv;
    iv.name = name;
    iv.spreadBefore = spread_before;
    iv.spreadAfter = metric.range();
    return iv;
}

CausalReport
CausalAnalyzer::analyze(const ExperimentSpec &spec,
                        const std::vector<ExperimentSetup> &setups) const
{
    mbias_assert(setups.size() >= 3, "causal analysis needs >= 3 setups");
    obs::ScopedSpan span("core.causal", "core");

    CausalReport report;
    report.specDescription = spec.str();

    // Step 1: measure the baseline across setups and collect counters.
    std::vector<double> metric;
    std::vector<std::vector<double>> counter_series(sim::num_counters);
    for (const auto &rr : runSweep(spec, setups, 0)) {
        metric.push_back(metricValue(spec.metric, rr));
        for (unsigned c = 0; c < sim::num_counters; ++c)
            counter_series[c].push_back(
                double(rr.counters.get(sim::Counter(c))));
    }

    // Rank counters by rank-correlation with the outcome (cycles and
    // instructions are excluded: they are the outcome, not a cause).
    for (unsigned c = 0; c < sim::num_counters; ++c) {
        const auto counter = sim::Counter(c);
        if (counter == sim::Counter::Cycles ||
            counter == sim::Counter::Instructions)
            continue;
        CounterCorrelation cc;
        cc.counter = counter;
        cc.spearman = stats::spearman(counter_series[c], metric);
        cc.pearson = stats::pearson(counter_series[c], metric);
        report.rankedCauses.push_back(cc);
    }
    std::sort(report.rankedCauses.begin(), report.rankedCauses.end(),
              [](const CounterCorrelation &a, const CounterCorrelation &b) {
                  return std::fabs(a.spearman) > std::fabs(b.spearman);
              });

    // ANOVA: does the setup factor matter at all?  Each setup is a
    // group; with a deterministic simulator each group has a single
    // observation, so we group the metric by halves of the setup list
    // (first vs second half) as a crude factor-level split.
    {
        stats::Sample lo, hi;
        for (std::size_t i = 0; i < metric.size(); ++i)
            (i < metric.size() / 2 ? lo : hi).add(metric[i]);
        if (lo.count() >= 2 && hi.count() >= 2)
            report.factorEffect = stats::oneWayAnova({lo, hi});
    }

    const double spread_before =
        *std::max_element(metric.begin(), metric.end()) -
        *std::min_element(metric.begin(), metric.end());

    // Optional: diff the two extreme setups with attribution on, so
    // the report names the concrete sets/entries behind the spread.
    if (wantMechanismEvidence_) {
        const std::size_t lo = std::size_t(
            std::min_element(metric.begin(), metric.end()) -
            metric.begin());
        const std::size_t hi = std::size_t(
            std::max_element(metric.begin(), metric.end()) -
            metric.begin());
        report.mechanismEvidence = mechanismEvidence(
            explainSetupPair(spec, setups[lo], setups[hi]));
    }

    // Step 2: interventions.  Stack alignment first (the paper's
    // env-size cause), then machine-mechanism ablations for the
    // top-ranked counters.
    report.interventions.push_back(
        tryIntervention(spec, setups, "force 64-byte stack alignment", 64,
                        spec.machine, spread_before));

    unsigned tried = 0;
    std::vector<std::string> tried_names;
    for (const auto &cc : report.rankedCauses) {
        if (tried >= 3 || std::fabs(cc.spearman) < 0.3)
            break;
        sim::MachineConfig m = spec.machine;
        std::string name;
        switch (cc.counter) {
          case sim::Counter::LineSplits:
            m.enableLineSplitPenalty = false;
            name = "disable line-split penalty";
            break;
          case sim::Counter::AliasStalls:
            m.enableStoreBufferAliasing = false;
            name = "disable 4K-alias stalls";
            break;
          case sim::Counter::BranchMispredicts:
            m.enableBranchPrediction = false;
            name = "perfect branch prediction";
            break;
          case sim::Counter::BtbMisses:
            m.enableBtb = false;
            name = "perfect BTB";
            break;
          case sim::Counter::IcacheMisses:
          case sim::Counter::DcacheMisses:
          case sim::Counter::L2Misses:
            m.enableCaches = false;
            name = "perfect caches";
            break;
          case sim::Counter::ItlbMisses:
          case sim::Counter::DtlbMisses:
            m.enableTlbs = false;
            name = "perfect TLBs";
            break;
          default:
            continue;
        }
        if (std::find(tried_names.begin(), tried_names.end(), name) !=
            tried_names.end())
            continue;
        tried_names.push_back(name);
        ++tried;
        report.interventions.push_back(tryIntervention(
            spec, setups, name, 0, std::move(m), spread_before));
    }

    return report;
}

} // namespace mbias::core
