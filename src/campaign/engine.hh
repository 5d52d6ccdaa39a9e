#ifndef MBIAS_CAMPAIGN_ENGINE_HH
#define MBIAS_CAMPAIGN_ENGINE_HH

#include <span>
#include <string>
#include <vector>

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
 * per-side lanes (a link order, an env size, an ASLR seed or 0, a
 * noise model), and the lanes of all tasks are grouped by side into
 * families that share one module set and one machine: at most two
 * families per campaign, each with the lanes of one link order
 * together.  Each family is cut into near-equal chunks of at most
 * min(24, ceil(lanes / jobs)) lanes (of one link order each when the
 * chunks come out too narrow for other link orders to ride their
 * pass, ExperimentRunner::timesOtherLinks), which a work-stealing
 * ThreadPool runs through ExperimentRunner::runFamily (one runner per
 * campaign and worker — see the runner's thread-safety contract): one
 * recording of the module set, found by every later chunk in the
 * ReplayCache, and one lane pass per chunk, whose lanes at other link
 * orders time only their own front end (Machine::runReplayLanes).
 * The worker that books a task's last lane reassembles its outcome
 * and appends its store record, so outcomes, records, task spans and
 * task histograms stay per task.
 *
 * A campaign may share its pool pass.  runBatch() plans each campaign
 * of a batch on its own (expand, dedup, store lookup, lowering and
 * chunking, exactly as a campaign run alone), runs the chunks of every
 * campaign in one ThreadPool::parallelFor, so no campaign waits at a
 * barrier for its slowest chunk while others have work, and then
 * finishes each campaign (duplicates, aggregation, store trailer) in
 * spec order.  run() is the batch of one.  Only the schedule depends
 * on the batch: every pass, and so every outcome, is the one the
 * campaign makes alone.
 *
 * Determinism guarantee: for a fixed spec, the report's outcomes are
 * bitwise-identical regardless of jobs, scheduling order, batch, or
 * resume splits.
 *
 * Metrics: each report holds its campaign's own registry (`engine.*`,
 * `cache.*`, `task.*`, `runner.*`, `store.*`).  What is the batch's
 * rather than one campaign's lands once, on the batch's first report:
 * the pool's `pool.*` metrics, and what the process-wide counts gained
 * during the batch — the four caches' stats() under their
 * `artifacts.*` / `sim.plan.*` / `sim.trace.*` / `sim.replay.*` names,
 * and every entry of obs::Registry::global() that moved.  Every report
 * carries the same cache rows (zero past the first), so the sum of a
 * batch's reports counts each cache event once.  Work done before the
 * batch (an `--asm-dir` load, a fuzzed corpus) is not booked, and a
 * repeated campaign shows only its own cache misses.  Each report's
 * stats.wallSeconds is its batch's wall time.
 *
 * Tracing: the engine owns no trace session.  Its phase spans (one
 * "campaign" span per batch, queue-wait and barrier-wait, one "run"
 * span per family chunk with its setup-materialize and lane pass, per
 * task a "task" span around its reassembly and store-append,
 * aggregate) land in whatever process-wide session is active —
 * `--trace` opens one around every `mbias` subcommand
 * (pipeline::ScopedTraceSession).
 */
class CampaignEngine
{
  public:
    explicit CampaignEngine(CampaignSpec spec,
                            CampaignOptions opts = {});

    const CampaignSpec &spec() const { return spec_; }

    /** Runs (or resumes) the campaign to completion: a batch of
     *  one. */
    CampaignReport run();

    /**
     * Runs (or resumes) every campaign of @p engines to completion as
     * one batch on one pool pass, and returns their reports in the
     * same order.  The engines must agree on `jobs`; each keeps its
     * own store, confidence and resamples.
     */
    static std::vector<CampaignReport>
    runBatch(std::span<const CampaignEngine> engines);

  private:
    CampaignSpec spec_;
    CampaignOptions opts_;
};

} // namespace mbias::campaign

#endif // MBIAS_CAMPAIGN_ENGINE_HH
