#include "campaign/report.hh"

#include <cstdio>
#include <sstream>

#include "base/logging.hh"
#include "campaign/store.hh"
#include "stats/engine.hh"

namespace mbias::campaign
{

std::string
CampaignStats::str() const
{
    std::ostringstream os;
    os << totalTasks << " tasks: " << executed << " executed, "
       << cacheHits << " cache hits, " << resumedFromStore
       << " resumed from store; " << jobs << " job(s), "
       << wallSeconds << " s";
    return os.str();
}

std::string
CampaignReport::str() const
{
    std::ostringstream os;
    os << bias.str();
    os << "  campaign        : " << stats.str() << "\n";
    // The acceptance-facing latency summary; schedule-dependent, so
    // informational only (unlike the counters above).
    auto hist = [&](const char *name) {
        auto it = metrics.histograms.find(name);
        return it == metrics.histograms.end() ? obs::HistogramStats{}
                                              : it->second;
    };
    const auto run = hist("task.execute_us");
    const auto wait = hist("pool.queue_wait_us");
    const auto barrier = hist("pool.barrier_wait_us");
    if (run.count || wait.count) {
        char means[64];
        std::snprintf(means, sizeof(means),
                      "queue wait mean %.1f us, barrier wait mean %.1f us",
                      wait.mean(), barrier.mean());
        os << "  latency         : task p50 " << run.quantile(0.5)
           << " us, p99 " << run.quantile(0.99) << " us; " << means
           << "\n";
    }
    return os.str();
}

std::string
StoreAnalysis::str() const
{
    std::ostringstream os;
    os << "store           : " << path << "\n"
       << "records         : " << records;
    if (tornLines)
        os << "  (+" << tornLines << " torn lines dropped)";
    os << "\n"
       << "speedup         : " << speedups.summary() << "\n"
       << "bootstrap CI    : " << bootstrapCI.str() << "  ("
       << bootstrapCI.level * 100.0 << "%, percentile bootstrap)\n"
       << "t CI            : " << tCI.str() << "  (Student-t)\n";
    obs::Provenance prov;
    if (!provenanceJson.empty() &&
        obs::Provenance::fromJson(provenanceJson, prov))
        os << "recorded by:\n" << prov.str();
    return os.str();
}

StoreAnalysis
analyzeStore(const std::string &path, const AnalyzeOptions &opts)
{
    StoreAnalysis a;
    a.path = path;

    const StoreColumns cols = readStoreColumns(path, opts.metrics);
    a.records = cols.rows();
    a.tornLines = cols.tornLines;
    a.provenanceJson = cols.provenanceJson;
    mbias_assert(a.records >= 2,
                 "store analysis needs >= 2 records: ", path);

    // Moments and quantiles in one pass over the column (exact
    // quantiles until a store outgrows the reservoir).
    a.speedups = stats::StreamingSample(1u << 16);
    for (double v : cols.speedup)
        a.speedups.add(v);
    a.tCI = stats::tIntervalMoments(a.speedups.mean(),
                                    a.speedups.stderror(), a.records,
                                    opts.confidence);

    stats::EngineOptions eo;
    eo.jobs = opts.jobs;
    eo.metrics = opts.metrics;
    a.bootstrapCI = stats::Engine(eo).bootstrapInterval(
        cols.speedup, opts.seed, opts.resamples, opts.confidence);
    return a;
}

} // namespace mbias::campaign
