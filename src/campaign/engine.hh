#ifndef MBIAS_CAMPAIGN_ENGINE_HH
#define MBIAS_CAMPAIGN_ENGINE_HH

#include <string>

#include "campaign/report.hh"
#include "campaign/spec.hh"

namespace mbias::campaign
{

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
     * Chrome-trace JSON output path; empty disables tracing.  The
     * engine runs a process-wide trace session for the duration of
     * run() and writes per-task phase spans (queue-wait,
     * setup-materialize, run, store-append, aggregate) viewable in
     * Perfetto (ui.perfetto.dev).  No-op with MBIAS_OBS=OFF.
     */
    std::string tracePath;

    /**
     * Live progress line on stderr (tasks done/total, cache-hit
     * rate, ETA), redrawn in place a few times a second.  Meant for
     * interactive ttys; off by default.
     */
    bool progress = false;

    /**
     * Materialize setups through the process-wide toolchain
     * ArtifactCache, so all workers share one compile per toolchain,
     * one link per (modules, order), and one layout per (program,
     * environment).  Artifacts are immutable and the toolchain is
     * deterministic, so results are bitwise-identical either way —
     * off (`--no-artifact-cache`) re-links and re-loads per task,
     * which is the benchmark's pre-cache baseline.
     */
    bool artifactCache = true;

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
 * list, schedules the tasks on a work-stealing ThreadPool (one
 * ExperimentRunner per worker — see the runner's thread-safety
 * contract), runs each distinct content address once (repeated
 * setups copy the outcome of their first occurrence), serves
 * previously persisted tasks from the ResultStore, and aggregates
 * everything into a CampaignReport.
 *
 * Determinism guarantee: for a fixed spec, the report's outcomes are
 * bitwise-identical regardless of jobs, scheduling order, or resume
 * splits.
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
