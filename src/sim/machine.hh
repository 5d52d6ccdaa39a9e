#ifndef MBIAS_SIM_MACHINE_HH
#define MBIAS_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>

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

/** True when MBIAS_SIM_REFERENCE forces the reference interpreter for
 *  this process (re-read per run). */
bool referenceForcedByEnv();

class Machine;

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
 * Three tiers implement run().  The *reference* interpreter walks the
 * linker's PlacedInst records directly; the *fast path* walks a
 * cached ExecutionPlan (sim/plan.hh) — dense pre-decoded operands, a
 * straight-line lane for simple runs, an O(1) return-address table —
 * performing the identical component accesses in the identical order,
 * so its RunResult is bitwise equal by construction.  The *trace
 * tier* (sim/trace.hh) runs the fast loop over a TracePlan whose hot
 * superblocks apply pre-batched effects in one step, guarded so the
 * result stays bitwise equal.  Fast tiers are taken only for
 * noise-free, unprofiled runs; they can be disabled per machine
 * (setUseFastPath(false) / setUseTracePath(false)) or per process
 * (MBIAS_SIM_REFERENCE=1 / MBIAS_SIM_TRACE=0 in the environment).
 *
 * A fourth tier, *record/replay* (sim/replay.hh), serves repetition
 * families: runRecord() executes one instrumented fast/trace-tier run
 * (noise allowed — the functional stream is noise-independent) that
 * captures branch outcomes, return targets, resolved memory addresses,
 * and the final architectural state into a FunctionalTrace;
 * runReplay() then re-runs *only the timing models* over that stream
 * under a fresh noise seed, machine geometry, or ASLR stack base,
 * skipping functional execution.  Its hatches mirror the others:
 * setUseReplayPath(false) and MBIAS_SIM_REPLAY=0.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** Default instruction budget for run() — shared with every
     *  ExperimentRunner call site so budget changes can't skew one
     *  path silently. */
    static constexpr std::uint64_t kDefaultRunBudget = 500'000'000;

    /** Runs the image to Halt (or @p max_insts).  A NoiseModel adds
     *  seeded run-to-run variation (OS-interrupt jitter); the default
     *  disabled model keeps runs bit-deterministic.  An Attribution
     *  sink records per-set/per-entry event placement on the
     *  reference path (noise-free runs only; counters observe, never
     *  perturb — the RunResult is bitwise unchanged). */
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
     */
    RunResult runReplay(const toolchain::ProcessImage &image,
                        std::uint64_t max_insts, const NoiseModel &noise,
                        const FunctionalTrace &trace);

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

    /** Selects the record/replay tier for runRecord()/runReplay()
     *  (default on; off forces their plain-run() fallback).  Ignored
     *  while the fast path is off. */
    void setUseReplayPath(bool on) { useReplayPath_ = on; }
    bool useReplayPath() const { return useReplayPath_; }

  private:
    struct Pipeline; // per-run timing state

    /** How runPlanImpl treats the functional stream: execute it
     *  (Normal), execute and capture it (Record), or consume a
     *  captured one instead of executing (Replay). */
    enum class RunMode { Normal, Record, Replay };

    /** The one place the plan-based tiers are chosen: looks up the
     *  image's ExecutionPlan and runs runPlanImpl over it — traced
     *  when traceTierUsable(), else with the backend's core model.
     *  run() (Normal), runRecord() and runReplay() all come here. */
    template <RunMode Mode>
    RunResult runPlan(const toolchain::ProcessImage &image,
                      std::uint64_t max_insts, const NoiseModel &noise,
                      FunctionalTrace *rec, const FunctionalTrace *rep);

    /** Shared direct-threaded interpreter body behind runPlan: the
     *  fast path (Traced = false), the trace tier (Traced = true,
     *  walking a TracePlan's rewritten ops with superblocks batched —
     *  sim/trace.hh), and the record/replay tier (Mode != Normal;
     *  @p rec receives the stream under Record, @p rep supplies it
     *  under Replay, and @p noise drives the reference-equivalent
     *  OS-interrupt model).  Core is the
     *  CoreModel policy (machine.cc: OooCore / InOrderCore) selected
     *  per backend at compile time: it decides stall exposure,
     *  multi-cycle issue blocking, and taken-redirect realignment at
     *  `if constexpr` points, so the execution spine (decode,
     *  dataflow, memory, shadow structures) is shared and each
     *  instantiation keeps its direct-threaded throughput. */
    template <bool Traced, RunMode Mode, class Core>
    RunResult runPlanImpl(const toolchain::ProcessImage &image,
                          std::uint64_t max_insts,
                          const ExecutionPlan &plan,
                          const TracePlan *tplan,
                          const NoiseModel &noise, FunctionalTrace *rec,
                          const FunctionalTrace *rep);

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

    /** Live only inside run() when the caller passed an Attribution
     *  sink; lets fetchAccounting()/memoryAccess() record placement. */
    Attribution *attr_ = nullptr;

    bool useFastPath_ = true;
    bool useTracePath_ = true;
    bool useReplayPath_ = true;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_MACHINE_HH
