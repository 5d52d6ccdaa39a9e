#ifndef MBIAS_CORE_RUNNER_HH
#define MBIAS_CORE_RUNNER_HH

#include <span>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "stats/sample.hh"
#include "toolchain/artifacts.hh"

namespace mbias::core
{

/** The measurements of one setup: baseline, treatment, and the ratio. */
struct RunOutcome
{
    ExperimentSetup setup;
    sim::RunResult baseline;
    sim::RunResult treatment;

    /**
     * Speedup of the treatment over the baseline on the spec's metric
     * (ratio of baseline to treatment, so > 1 means treatment wins).
     */
    double speedup = 0.0;

    /**
     * Per-repetition metric values of each side, in rep order.  Only
     * the sample-collecting campaign repetition plans (NoiseRepeated,
     * NoisePaired) fill these; paired single runs leave them empty.
     */
    std::vector<double> repBaseline;
    std::vector<double> repTreatment;
};

/**
 * One repetition of a lane family (ExperimentRunner::runFamily): the
 * setup details that move the stack, the code layout or the timing,
 * never the module set.
 */
struct Lane
{
    std::uint64_t envBytes = 0;
    /** Per-run stack ASLR draw; 0 loads without ASLR. */
    std::uint64_t aslrSeed = 0;
    sim::NoiseModel noise = sim::NoiseModel::none();
    toolchain::LinkOrder linkOrder = toolchain::LinkOrder::asGiven();
};

/**
 * Extracts @p metric from a run result — the spec-independent core of
 * ExperimentRunner::metricOf, usable by render/aggregate code that has
 * outcomes but no runner (e.g. pipeline figures reading campaign
 * results).
 */
double metricValue(Metric metric, const sim::RunResult &rr);

/**
 * Executes an ExperimentSpec under chosen setups: materializes each
 * setup (compile, link in the setup's order, load with the setup's
 * environment block) through the shared toolchain ArtifactCache, then
 * runs baseline and treatment on the simulator.
 *
 * Runners pull artifacts from ArtifactCache::global(), so every worker
 * of a parallel campaign shares one compile per (workload, toolchain)
 * and one link per (modules, order) no matter how tasks are scheduled
 * — the toolchain is deterministic and cached artifacts are immutable,
 * so results are identical to recomputing.
 */
class ExperimentRunner
{
  public:
    /**
     * Whether a family of @p lanes lanes shares its module set's
     * recording, so that its lanes at other link orders ride one pass
     * (runFamily): the pass, every lane but the recorded one, must be
     * wide enough for the machine to time other links
     * (sim::Machine::kMinLinkPass).  The campaign engine cuts no
     * narrower chunk across link orders.
     */
    static constexpr bool timesOtherLinks(std::size_t lanes)
    {
        return lanes > sim::Machine::kMinLinkPass;
    }

    explicit ExperimentRunner(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return spec_; }

    /** Runs baseline and treatment in one setup. */
    RunOutcome run(const ExperimentSetup &setup);

    /** Runs only one side (used by causal analysis).
     *  @p treatment_side selects the treatment machine for hardware
     *  studies.  Optional sinks add per-function profiling and per-set
     *  attribution (used by explain); the returned RunResult is bitwise
     *  identical either way — the sinks observe, never perturb. */
    sim::RunResult runSide(const toolchain::ToolchainSpec &tc,
                           const ExperimentSetup &setup,
                           bool treatment_side = false,
                           sim::Profile *profile = nullptr,
                           sim::Attribution *attribution = nullptr);

    /**
     * Repeats one side @p reps times in one setup under seeded
     * run-to-run noise (seeds base, base+1, ...), returning the
     * metric sample — the conventional "repeat the run k times"
     * methodology the paper contrasts with setup randomization.
     * Each repetition runs under @p noise_template with only the seed
     * overwritten; the default template (OS-interrupt noise, default
     * magnitudes) is what this method always built, and figures sweep
     * other factors (e.g. DVFS frequency steps) by passing their own.
     */
    stats::Sample repeatedMetric(
        const toolchain::ToolchainSpec &tc, const ExperimentSetup &setup,
        unsigned reps, std::uint64_t noise_seed_base,
        const sim::NoiseModel &noise_template = sim::NoiseModel::withSeed(0));

    /**
     * Runs a lane family: one side (@p tc, and the treatment machine
     * when @p treatment_side, as in runSide), lane k linked in
     * lanes[k].linkOrder and run under lanes[k].  Returns one RunResult
     * per lane, in lane order, each bitwise identical to a plain run of
     * that lane.
     *
     * Record-once / replay-many: lane 0 is recorded (or a recording of
     * its module set and data layout found in the ReplayCache), and
     * every other lane the recording can serve — any stack base, noise
     * and, unless the recording is code-visible, any link order that
     * keeps the data layout (FunctionalTrace::matches) — is timed in
     * one lane pass over it, which times lanes at other link orders
     * only when it is wide enough (timesOtherLinks()): a narrower
     * family uses a recording of lane 0's own link instead of its
     * module set's.  A lane refused for its link order counts as a
     * sim.replay.layout_fallbacks.  A family none of whose lanes could
     * share lane 0's recording never records, and lanes no recording
     * can serve run on their own.
     * run_us gets one sample per lane from the machine's sim.* spans
     * (Machine::setRunHistogram); a lane pass's wall time is shared
     * out evenly over its lanes.
     */
    std::vector<sim::RunResult> runFamily(const toolchain::ToolchainSpec &tc,
                                          bool treatment_side,
                                          std::span<const Lane> lanes);

    /** Extracts the spec's metric from a run result. */
    double metricOf(const sim::RunResult &rr) const;

    /**
     * Loader override hook: when set, forces the initial stack pointer
     * alignment (the paper-style "align the stack" causal
     * intervention).  0 = no override.
     */
    void setSpAlignOverride(std::uint64_t align) { spAlign_ = align; }

    /**
     * Attaches a metrics registry: the runner then counts
     * `runner.compiles` and records `runner.run_us` per simulated
     * side.  @p metrics must outlive the runner; nullptr detaches.
     * (Span tracing is independent of this — spans go to the global
     * Tracer whenever a session is active.)
     */
    void setMetrics(obs::Registry *metrics);

  private:
    /** Compiled modules of one side, from the artifact cache. */
    toolchain::ModulesPtr
    compiledModules(const toolchain::ToolchainSpec &tc);

    /** The program of (@p tc, @p order), from the artifact cache. */
    toolchain::ProgramPtr
    linkedProgram(const toolchain::ToolchainSpec &tc,
                  const toolchain::LinkOrder &order);

    /** The LoaderConfig of an @p env_bytes environment (plus the
     *  sp-align override). */
    toolchain::LoaderConfig loaderConfigFor(std::uint64_t env_bytes) const;

    /** The machine one side runs on (runSide's @p treatment_side). */
    const sim::MachineConfig &machineFor(bool treatment_side) const;

    /**
     * Materializes one setup end to end — compile on miss, link in
     * the setup's order, load with the setup's environment block —
     * one definition for every run flavor above.
     */
    toolchain::ProcessImage
    materialize(const toolchain::ToolchainSpec &tc,
                const ExperimentSetup &setup);

    /** The metric sample of a family's results, in lane order. */
    stats::Sample metricSample(const std::vector<sim::RunResult> &rs) const;

    ExperimentSpec spec_;
    std::uint64_t spAlign_ = 0;
    obs::Counter *compileCounter_ = nullptr;
    obs::Histogram *runHistogram_ = nullptr;
};

} // namespace mbias::core

#endif // MBIAS_CORE_RUNNER_HH
