#ifndef MBIAS_SIM_MACHINE_HH
#define MBIAS_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/metrics.hh"
#include "sim/config.hh"
#include "sim/counters.hh"
#include "sim/noise.hh"
#include "sim/profile.hh"
#include "sim/memory.hh"
#include "sim/registry.hh"
#include "toolchain/loader.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/storebuffer.hh"
#include "uarch/tlb.hh"

namespace mbias::sim
{

struct ExecutionPlan;   // sim/plan.hh
struct TracePlan;       // sim/trace.hh
struct Attribution;     // sim/attribution.hh
struct FunctionalTrace; // sim/replay.hh

/**
 * Human-readable description of the sim tier run() would pick for a
 * plain deterministic run right now — environment escape hatches
 * folded in (e.g. "trace + replay", "fast (MBIAS_SIM_TRACE=0) +
 * replay", or "reference (MBIAS_SIM_REFERENCE set)").  Recorded by
 * `mbias list`/`mbias workloads` so provenance explains perf deltas
 * between hosts.
 */
std::string activeSimTierDescription();

/** True when MBIAS_SIM_REFERENCE forces unobserved runs of this process
 *  onto the reference oracle (re-read per run). */
bool referenceForcedByEnv();

class Machine;

/** One repetition of a lane pass (Machine::runReplayLanes): the image
 *  it runs — its own ASLR draw, so its own stack base — and its own
 *  noise model. */
struct ReplayLane
{
    const toolchain::ProcessImage *image = nullptr;
    NoiseModel noise;
};

/**
 * True when every switch between here and the hardware allows the
 * superblock trace tier for @p machine: not vetoed by MBIAS_SIM_TRACE=0
 * or MBIAS_SIM_REFERENCE, the machine's own fast/trace toggles on, *and*
 * the machine's backend declares trace support (MachineRegistry) — the
 * tier's batch guards assume the OoO window model, so in-order cores
 * fall back to the plain fast path.  The replay tier's
 * precondition-fallback pattern (replayTierUsable), applied to trace.
 */
bool traceTierUsable(const Machine &machine);

/** Outcome of one simulated program run. */
struct RunResult
{
    PerfCounters counters;
    bool halted = false;        ///< reached Halt (vs. hit maxInsts)
    std::uint64_t result = 0;   ///< value of a0 (x10) at Halt

    /** Bitwise equality over every counter — the fast path's contract. */
    bool operator==(const RunResult &) const = default;

    Cycles cycles() const { return counters.get(Counter::Cycles); }
    std::uint64_t instructions() const
    {
        return counters.get(Counter::Instructions);
    }
    double cpi() const { return counters.cpi(); }
};

/**
 * A simulated machine: functional µRISC execution plus a deterministic
 * timing model with address-sensitive components (fetch blocks, caches,
 * TLBs, branch predictor, BTB, store buffer).
 *
 * The timing model is a coarse cycle accounting over a shared
 * execution spine (decode, dataflow, memory hierarchy, shadow
 * structures) with a per-backend CoreModel policy on top
 * (config.core): the out-of-order policy charges producer-consumer
 * stalls beyond what the OoO window can hide, the in-order policy
 * exposes every stall cycle, blocks issue behind multi-cycle ALU ops,
 * and pays a refetch on taken transfers into the middle of a fetch
 * block.  Both charge fetch-group cycles (fetchWidth per aligned fetch
 * block) and event penalties (mispredicts, cache/TLB misses, line
 * splits, 4K-alias stalls).  Every one of those penalties depends on
 * *addresses*, so the measured cycle count responds to link order and
 * environment size exactly the way the paper's hardware does.
 *
 * Determinism: given the same ProcessImage and config, run() returns
 * bit-identical results.  All components start cold on each run().
 *
 * One interpreter loop, runPlanImpl, serves every production run,
 * templated on where its functional stream comes from.  A *live* walk
 * executes values from a cached ExecutionPlan (sim/plan.hh) for one
 * run: the *fast path*, or the *trace tier* (sim/trace.hh), a
 * TracePlan whose hot superblocks apply pre-batched effects in one
 * guarded step.  Noisy runs take these tiers too, and observed runs
 * (Profile/Attribution sinks) the untraced walk with an observer
 * policy compiled in.  The *reference* interpreter walks the linker's
 * PlacedInst records and is kept only as the differential oracle — the
 * plan loop performs the identical component accesses in the
 * identical order, so its RunResult is bitwise equal.  The escape
 * hatches select the oracle per machine (setUseFastPath(false)) or per
 * process (MBIAS_SIM_REFERENCE=1); setUseTracePath(false) /
 * MBIAS_SIM_TRACE=0 drop only the trace tier.
 *
 * A fourth tier, *record/replay* (sim/replay.hh), serves repetition
 * families: runRecord() is a live walk (noise allowed — the functional
 * stream is noise-independent) that also captures branch outcomes,
 * return targets, resolved memory addresses, and the final
 * architectural state into a FunctionalTrace.  runReplayLanes() then
 * walks the same loop over that *recorded* stream: no value is
 * computed, and one walk times a whole repetition family under fresh
 * noise seeds, machine geometry or ASLR stack bases.  Work every
 * repetition shares (dispatch, stream decode, predictor/BTB, fetch
 * groups, ITLB) runs once per op, and one timing lane per repetition
 * keeps what can differ (clock, register readiness, noise).  The lanes
 * share one memory hierarchy, and a lane holds its own copy of only
 * the cache sets where it differs (and its own DTLB and store buffer
 * when the lanes' stack deltas differ).  runReplay() is a pass of one
 * lane.  The
 * tier's one hatch is MBIAS_SIM_REPLAY=0; it also stands down with the
 * fast path (setUseFastPath(false), MBIAS_SIM_REFERENCE=1).
 */
class Machine
{
  public:
    /** Rejects (fatal, naming the field) a config with any latency or
     *  penalty above kMaxLatency. */
    explicit Machine(const MachineConfig &config);

    /** The largest latency or penalty a MachineConfig may hold.  A lane
     *  pass keeps its clocks as int32 offsets and checks them once per
     *  op, so one op's charges must stay far below 2^31; every preset
     *  is orders of magnitude below this bound. */
    static constexpr Cycles kMaxLatency = Cycles(1) << 20;

    /** Default instruction budget for run() — shared with every
     *  ExperimentRunner call site so budget changes can't skew one
     *  path silently. */
    static constexpr std::uint64_t kDefaultRunBudget = 500'000'000;

    /** Runs the image to Halt (or @p max_insts).  A NoiseModel adds
     *  seeded run-to-run variation (OS-interrupt jitter, DVFS steps);
     *  the default disabled model keeps runs bit-deterministic.  A
     *  Profile sink books per-function events, an Attribution sink
     *  per-set/per-entry placement (noise-free runs only); sinks
     *  observe, never perturb — the RunResult is bitwise unchanged. */
    RunResult run(const toolchain::ProcessImage &image,
                  std::uint64_t max_insts = kDefaultRunBudget,
                  const NoiseModel &noise = NoiseModel::none(),
                  Profile *profile = nullptr,
                  Attribution *attribution = nullptr);

    /**
     * Record-once half of the replay tier: one fast/trace-tier run
     * that additionally captures the functional stream into @p *out.
     * The RunResult is bitwise identical to run() with the same
     * arguments.  Falls back to plain run() — leaving @p *out null —
     * when the tier is unusable (replayTierUsable()) or the stream
     * outgrows FunctionalTrace::kMaxBytes mid-run.
     */
    RunResult runRecord(const toolchain::ProcessImage &image,
                        std::uint64_t max_insts, const NoiseModel &noise,
                        std::shared_ptr<const FunctionalTrace> *out);

    /**
     * Replay-many half: re-runs only the timing models over @p trace
     * (which must match(image, max_insts)) under @p noise.  Stack
     * addresses are rebased by the image-vs-recording sp delta, so one
     * recording serves every ASLR draw.  The RunResult is bitwise
     * identical to run() with the same arguments.  Falls back to plain
     * run() when the tier is unusable.
     *
     * A pass of one lane, unless the latest runReplayLanes() on this
     * machine already timed exactly this repetition (same recording,
     * budget, stack base and noise model): then that lane's result is
     * handed out, once, without walking the stream again.  So a caller
     * can time a family in one pass and still return every repetition
     * through this per-rep entry point.  A call that matches no lane
     * drops the rest of that pass.
     */
    RunResult runReplay(const toolchain::ProcessImage &image,
                        std::uint64_t max_insts, const NoiseModel &noise,
                        const FunctionalTrace &trace);

    /**
     * Times every lane over one walk of @p trace (each lane's image
     * must match(image, max_insts)).  Result k is bitwise identical to
     * runReplay(*lanes[k].image, max_insts, lanes[k].noise, trace) and
     * so to run() with the same arguments; the results also stay
     * available to runReplay() until the next lane pass.  Falls back
     * to one plain run() per lane when the tier is unusable.
     */
    std::vector<RunResult> runReplayLanes(const FunctionalTrace &trace,
                                          std::uint64_t max_insts,
                                          std::span<const ReplayLane> lanes);

    const MachineConfig &config() const { return config_; }

    /** The backend's tier-capability declaration (sim/registry.hh). */
    const TierSupport &tierSupport() const { return tiers_; }

    /** Selects the plan-based fast interpreter (default on; results
     *  are bitwise identical either way). */
    void setUseFastPath(bool on) { useFastPath_ = on; }
    bool useFastPath() const { return useFastPath_; }

    /** Selects the superblock trace tier on top of the fast path
     *  (default on; results are bitwise identical either way).
     *  Ignored while the fast path is off. */
    void setUseTracePath(bool on) { useTracePath_ = on; }
    bool useTracePath() const { return useTracePath_; }

    /** Books each simulated lane's time into @p hist (null detaches)
     *  from the sim.* span that timed it: a lane pass's time is shared
     *  out evenly, and a runReplay() a pass served books nothing. */
    void setRunHistogram(obs::Histogram *hist) { runHistogram_ = hist; }

  private:
    struct Pipeline;   // the reference interpreter's timing state
    class RunObserver; // runPlanImpl's observing policy

    /** How a Live runPlanImpl treats the functional stream: execute
     *  it (Normal), or execute and capture it (Record). */
    enum class RunMode { Normal, Record };

    /** Where runPlanImpl's functional stream comes from: executed from
     *  the ExecutionPlan (Live), or decoded from a FunctionalTrace
     *  (Recorded). */
    enum class Source { Live, Recorded };

    /** The one place the Live tiers are chosen: looks up the image's
     *  ExecutionPlan and runs runPlanImpl over it — observed
     *  (untraced) when a Normal run has a sink, else traced when
     *  traceTierUsable(), else with the backend's core model.  run()
     *  and runRecord() come here. */
    template <RunMode Mode>
    RunResult runPlan(const toolchain::ProcessImage &image,
                      std::uint64_t max_insts, const NoiseModel &noise,
                      FunctionalTrace *rec, Profile *profile = nullptr,
                      Attribution *attribution = nullptr);

    /**
     * The one production interpreter: a direct-threaded walk of the
     * ExecutionPlan that times lanes[k] (image and noise) into out[k],
     * templated on where its functional stream comes from.
     *
     * Src = Live executes values for exactly one lane, lanes[0]: the
     * fast path (Traced = false), the trace tier (Traced = true,
     * walking @p tplan's rewritten ops with superblocks batched —
     * sim/trace.hh), and the recording half of the replay tier (Mode
     * = Record; @p rec receives the stream).  Obs is the observation
     * policy (NullObserver / RunObserver), compiled out when null.
     *
     * Src = Recorded decodes @p trace and times lanes.size() lanes in
     * one walk: dispatch, stream decode, predictor/BTB, fetch groups
     * and the ITLB run once per op; the noise check, clock, register
     * readiness and NoiseClock once per lane, in lane order; the memory
     * hierarchy once per op for the lanes whose state it holds, and on
     * a lane's own copies for the rest.  Stack addresses are rebased by
     * each lane's image-vs-recording sp delta.
     *
     * Core is the CoreModel policy (machine.cc: OooCore / InOrderCore)
     * selected per backend at compile time: it decides stall exposure,
     * multi-cycle issue blocking, and taken-redirect realignment at
     * `if constexpr` points, so the execution spine (decode, dataflow,
     * memory, shadow structures) is shared and each instantiation
     * keeps its direct-threaded throughput.
     */
    template <Source Src, bool Traced, RunMode Mode, class Core, class Obs>
    void runPlanImpl(std::span<const ReplayLane> lanes,
                     std::uint64_t max_insts, const ExecutionPlan &plan,
                     const TracePlan *tplan, const FunctionalTrace *trace,
                     FunctionalTrace *rec, Obs &obs, RunResult *out);

    /** The lane pass behind runReplay() and runReplayLanes(): checks
     *  every lane against @p trace, picks the backend's core model and
     *  runs the Recorded walk of runPlanImpl, which tallies the pass
     *  (the tier must be usable).  A pass wider than one lane mask
     *  (32 lanes) walks the stream once per chunk. */
    std::vector<RunResult> runLanes(const FunctionalTrace &trace,
                                    std::uint64_t max_insts,
                                    std::span<const ReplayLane> lanes);

    /** The reference interpreter, kept only as the differential
     *  oracle; run() reaches it only under the escape hatches. */
    RunResult runReference(const toolchain::ProcessImage &image,
                           std::uint64_t max_insts,
                           const NoiseModel &noise);

    /** Charges fetch/decode costs for the instruction at @p pc. */
    void fetchAccounting(Pipeline &pipe, Addr pc, unsigned size,
                         PerfCounters &ctrs);

    /** Data-side access: returns added load latency (0 for stores). */
    Cycles memoryAccess(Pipeline &pipe, Addr addr, unsigned size,
                        bool is_store, PerfCounters &ctrs);

    MachineConfig config_;
    /** The backend's tier-capability declaration, resolved once from
     *  the registry (ad-hoc configs inherit their core kind's). */
    TierSupport tiers_;

    uarch::Cache icache_;
    uarch::Cache dcache_;
    uarch::Cache l2_;
    uarch::Tlb itlb_;
    uarch::Tlb dtlb_;
    std::unique_ptr<uarch::BranchPredictor> predictor_;
    uarch::Btb btb_;
    uarch::StoreBuffer storeBuffer_;

    bool useFastPath_ = true;
    bool useTracePath_ = true;
    obs::Histogram *runHistogram_ = nullptr;

    /** A lane of the latest runReplayLanes() that runReplay() has not
     *  handed out yet, with the inputs its result depends on (the
     *  trace by FunctionalTrace::serial, which is never reused). */
    struct LaneResult
    {
        std::uint64_t serial = 0;
        std::uint64_t maxInsts = 0;
        Addr initialSp = 0;
        NoiseModel noise;
        RunResult result;
    };
    std::vector<LaneResult> laneResults_;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_MACHINE_HH
