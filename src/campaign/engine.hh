#ifndef MBIAS_CAMPAIGN_ENGINE_HH
#define MBIAS_CAMPAIGN_ENGINE_HH

#include <string>

#include "campaign/report.hh"
#include "campaign/spec.hh"

namespace mbias::campaign
{

/**
 * The process-wide caches' counts under the names a report books them
 * by: the one table of those names.  Every cache counts once, in its
 * stats(); a campaign books the difference between a reading at its
 * start and one at its end, and the end value of the byte gauge.
 */
obs::MetricsSnapshot cacheCounts();

/** How a campaign is executed and where results persist. */
struct CampaignOptions
{
    /** Worker threads; the task *results* are identical for any
     *  value (see docs/METHODOLOGY.md, "Why parallel == serial"). */
    unsigned jobs = 1;

    /**
     * Path of the JSONL result store; empty disables persistence.
     * Without resume an existing store file is discarded first.
     */
    std::string outPath;

    /** Reuse (skip) tasks already persisted under outPath. */
    bool resume = false;

    /**
     * Live progress line on stderr (tasks done/total, cache-hit
     * rate, ETA), redrawn in place a few times a second.  Meant for
     * interactive ttys; off by default.
     */
    bool progress = false;

    /** Confidence level of the report's speedup CI. */
    double confidence = 0.95;

    /**
     * 0 (the default) keeps the Student-t speedup CI; > 0 switches
     * the report to a percentile-bootstrap CI with this many
     * resamples, computed by the stats engine on the campaign's
     * worker budget (bitwise identical at any --jobs).  Resample
     * streams derive from the campaign seed.
     */
    int resamples = 0;
};

/**
 * Executes a CampaignSpec: expands it into the deterministic task
 * list, runs each distinct content address once (repeated setups copy
 * the outcome of their first occurrence), serves previously persisted
 * tasks from the ResultStore, and aggregates everything into a
 * CampaignReport.
 *
 * Tasks are not the unit of work.  Every task to run is lowered to
 * per-side lanes (an env size, an ASLR seed or 0, a noise model), and
 * the lanes of all tasks are grouped by (side, link order) into
 * families that share one linked program and one machine.  Each
 * family is cut into near-equal chunks of at most min(24, ceil(lanes /
 * jobs)) lanes, which a work-stealing ThreadPool runs through
 * ExperimentRunner::runFamily (one runner per worker — see the
 * runner's thread-safety contract): one recording, one lane pass.  A
 * task's one-lane families stay together in one unit.  The worker that
 * books a task's last lane reassembles its outcome and appends its
 * store record, so outcomes, records, task spans and task histograms
 * stay per task.
 *
 * Determinism guarantee: for a fixed spec, the report's outcomes are
 * bitwise-identical regardless of jobs, scheduling order, or resume
 * splits.
 *
 * Metrics: the report holds this run's own registry plus what the
 * process-wide counts gained during the run — the four caches'
 * stats() under their `artifacts.*` / `sim.plan.*` / `sim.trace.*` /
 * `sim.replay.*` names, and every entry of obs::Registry::global()
 * that moved.  Work done before the run (an `--asm-dir` load, a
 * fuzzed corpus) is not booked, and a repeated campaign shows only
 * its own cache misses.
 *
 * Tracing: the engine owns no trace session.  Its phase spans
 * (queue-wait, one "lanes" span per family chunk with its
 * setup-materialize and run, per task a "task" span around its
 * reassembly and store-append, aggregate) land in whatever
 * process-wide session is active — `--trace` opens one around every
 * `mbias` subcommand (pipeline::ScopedTraceSession).
 */
class CampaignEngine
{
  public:
    explicit CampaignEngine(CampaignSpec spec,
                            CampaignOptions opts = {});

    const CampaignSpec &spec() const { return spec_; }

    /** Runs (or resumes) the campaign to completion. */
    CampaignReport run();

  private:
    CampaignSpec spec_;
    CampaignOptions opts_;
};

} // namespace mbias::campaign

#endif // MBIAS_CAMPAIGN_ENGINE_HH
