#ifndef MBIAS_CAMPAIGN_REPORT_HH
#define MBIAS_CAMPAIGN_REPORT_HH

#include <cstdint>
#include <string>

#include "core/bias.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"
#include "stats/streaming.hh"

namespace mbias::campaign
{

/** Execution accounting of one engine run. */
struct CampaignStats
{
    std::uint64_t totalTasks = 0;

    /** Tasks that actually ran the simulator this time. */
    std::uint64_t executed = 0;

    /** Repeated tasks that copied the outcome of the first task with
     *  the same content address instead of executing. */
    std::uint64_t cacheHits = 0;

    /** Tasks served by the persistent store (resumed runs). */
    std::uint64_t resumedFromStore = 0;

    unsigned jobs = 1;
    double wallSeconds = 0.0;

    /** One-line accounting summary. */
    std::string str() const;
};

/**
 * What a campaign produces: the paper-facing bias analysis (the same
 * BiasReport the serial BiasAnalyzer yields, aggregated from the
 * campaign's outcomes in task order), execution accounting, the
 * run's metrics snapshot, and the host-setup provenance it ran under
 * — so every reported number is auditable after the fact.
 */
struct CampaignReport
{
    core::BiasReport bias;
    CampaignStats stats;

    /** This run's merged metrics. */
    obs::MetricsSnapshot metrics;

    /** Host setup of this run (also in the store header). */
    obs::Provenance provenance;

    /** bias.str() plus the accounting and latency lines. */
    std::string str() const;
};

/** How `mbias analyze` (and analyzeStore) re-analyzes a store. */
struct AnalyzeOptions
{
    /** Stats-engine workers; results identical for any value. */
    unsigned jobs = 1;

    /** Bootstrap resamples for the speedup CI. */
    int resamples = 1000;

    /** Confidence level of both reported intervals. */
    double confidence = 0.95;

    /** Root of the bootstrap's per-resample streams. */
    std::uint64_t seed = 42;

    /** Optional registry for stats.* / store.* counters. */
    obs::Registry *metrics = nullptr;
};

/**
 * Offline analysis of a persisted campaign store: what a finished (or
 * still-running) campaign's speedup distribution looks like, computed
 * without re-running anything.  Unlike CampaignReport — which holds
 * every RunOutcome — this aggregates the store's columnar view through
 * streaming moments plus the stats engine, so its memory footprint is
 * the store's speedup column, not the materialized outcome objects.
 */
struct StoreAnalysis
{
    std::string path;
    std::size_t records = 0;
    std::size_t tornLines = 0;

    /** Single-pass moments + exact-until-overflow quantiles of the
     *  speedup column. */
    stats::StreamingSample speedups;

    /** Percentile-bootstrap CI from the stats engine (AnalyzeOptions
     *  resamples/seed; bitwise identical at any jobs). */
    stats::ConfidenceInterval bootstrapCI;

    /** Student-t CI from the streaming moments, for comparison. */
    stats::ConfidenceInterval tCI;

    /** Provenance JSON of the store header; empty when absent. */
    std::string provenanceJson;

    /** Multi-line human-readable rendering. */
    std::string str() const;
};

/**
 * Reads @p path once (columnar fast path) and analyzes the speedup
 * column.  Requires at least two records.
 */
StoreAnalysis analyzeStore(const std::string &path,
                           const AnalyzeOptions &opts = {});

} // namespace mbias::campaign

#endif // MBIAS_CAMPAIGN_REPORT_HH
