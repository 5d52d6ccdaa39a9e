#include "core/runner.hh"

#include <chrono>
#include <utility>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "sim/replay.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace mbias::core
{

namespace
{

std::uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

void
ExperimentRunner::addRep(stats::Sample &out, std::uint64_t run_us,
                         const sim::RunResult &rr)
{
    if (runHistogram_)
        runHistogram_->record(run_us);
    mbias_assert(rr.halted, "workload did not halt: ", spec_.workload);
    out.add(metricOf(rr));
}

void
ExperimentRunner::runFamily(sim::Machine &machine,
                            std::span<const sim::ReplayLane> reps,
                            stats::Sample &out)
{
    constexpr std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    std::shared_ptr<const sim::FunctionalTrace> trace;
    std::size_t r = 0;
    if (reps.size() > 1 && sim::replayTierUsable(machine)) {
        auto &cache = sim::ReplayCache::global();
        const toolchain::ProcessImage &image0 = *reps[0].image;
        bool unrecordable = false;
        trace = cache.find(image0, budget, &unrecordable);
        if (!trace && !unrecordable) {
            // The recording runs under rep 0's model: it IS rep 0.
            const auto t0 = std::chrono::steady_clock::now();
            const auto rr =
                machine.runRecord(image0, budget, reps[0].noise, &trace);
            addRep(out, microsSince(t0), rr);
            r = 1;
            cache.insert(image0, budget, trace); // null = negative entry
        }
        if (!trace)
            cache.noteFallback();
    }
    const auto rest = reps.subspan(r);
    if (!trace) {
        for (const sim::ReplayLane &rep : rest) {
            const auto t0 = std::chrono::steady_clock::now();
            const auto rr = machine.run(*rep.image, budget, rep.noise);
            addRep(out, microsSince(t0), rr);
        }
        return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    machine.runReplayLanes(*trace, budget, rest);
    // The pass's wall time, shared out evenly: run_us keeps one sample
    // per repetition, and its sum stays the time spent.
    const std::uint64_t share = microsSince(t0) / rest.size();
    // Every repetition still returns through runReplay(), which hands
    // out the lane the pass already timed, so per-rep instrumentation
    // (perfbench's link-time shims) keeps seeing one call per
    // repetition.
    for (const sim::ReplayLane &rep : rest)
        addRep(out, share,
               machine.runReplay(*rep.image, budget, rep.noise, *trace));
}

ExperimentRunner::ExperimentRunner(ExperimentSpec spec)
    : spec_(std::move(spec))
{
}

void
ExperimentRunner::setMetrics(obs::Registry *metrics)
{
    compileCounter_ =
        metrics ? &metrics->counter("runner.compiles") : nullptr;
    runHistogram_ =
        metrics ? &metrics->histogram("runner.run_us") : nullptr;
}

toolchain::ModulesPtr
ExperimentRunner::compiledModules(const toolchain::ToolchainSpec &tc)
{
    auto produce = [&]() -> std::vector<isa::Module> {
        obs::ScopedSpan span("compile", "runner");
        if (compileCounter_)
            compileCounter_->add();
        const auto &w = workloads::findWorkload(spec_.workload);
        toolchain::Compiler cc(tc.vendor, tc.level);
        return cc.compile(w.build(spec_.workloadConfig));
    };
    // The key carries every compile input; compilation is
    // deterministic, so the inputs identify the output.
    const std::string key =
        spec_.workload + '|' + std::to_string(spec_.workloadConfig.scale) +
        '|' + std::to_string(spec_.workloadConfig.seed) + '|' +
        std::to_string(int(tc.vendor)) + '|' + std::to_string(int(tc.level));
    return toolchain::ArtifactCache::global().compiled(key, produce);
}

toolchain::ProgramPtr
ExperimentRunner::linkedProgram(const toolchain::ToolchainSpec &tc,
                                const toolchain::LinkOrder &order)
{
    return toolchain::ArtifactCache::global().linked(compiledModules(tc),
                                                     order);
}

toolchain::LoaderConfig
ExperimentRunner::loaderConfigFor(const ExperimentSetup &setup) const
{
    toolchain::LoaderConfig lc;
    lc.envBytes = setup.envBytes;
    if (spAlign_)
        lc.spAlign = spAlign_;
    return lc;
}

toolchain::ProcessImage
ExperimentRunner::materialize(const toolchain::ToolchainSpec &tc,
                              const ExperimentSetup &setup)
{
    obs::ScopedSpan span("setup-materialize", "runner");
    return toolchain::ArtifactCache::global().image(
        linkedProgram(tc, setup.linkOrder), loaderConfigFor(setup));
}

sim::RunResult
ExperimentRunner::runSide(const toolchain::ToolchainSpec &tc,
                          const ExperimentSetup &setup, bool treatment_side,
                          sim::Profile *profile,
                          sim::Attribution *attribution)
{
    auto image = materialize(tc, setup);
    const sim::MachineConfig &mc =
        treatment_side && spec_.treatmentMachine ? *spec_.treatmentMachine
                                                 : spec_.machine;
    sim::Machine machine(mc);
    obs::ScopedSpan runSpan(profile || attribution ? "run-profiled" : "run",
                            "runner");
    const auto t0 = std::chrono::steady_clock::now();
    auto rr = machine.run(image, sim::Machine::kDefaultRunBudget,
                          sim::NoiseModel::none(), profile, attribution);
    if (runHistogram_)
        runHistogram_->record(microsSince(t0));
    mbias_assert(rr.halted, "workload did not halt: ", spec_.workload);
    return rr;
}

stats::Sample
ExperimentRunner::repeatedMetric(const toolchain::ToolchainSpec &tc,
                                 const ExperimentSetup &setup,
                                 unsigned reps,
                                 std::uint64_t noise_seed_base,
                                 const sim::NoiseModel &noise_template)
{
    mbias_assert(reps >= 1, "need at least one repetition");
    const auto image = materialize(tc, setup);
    sim::Machine machine(spec_.machine);
    // Rep r's model: the caller's template with seed base + r (the
    // default template reproduces the historical withSeed(base + r)).
    // The functional stream is identical across noise seeds (noise
    // perturbs timing and cache state, never a value), so one
    // recording serves every repetition, each a lane of one pass,
    // bitwise identical to per-rep execution (replay differential
    // test).
    std::vector<sim::ReplayLane> lanes(reps, {&image, noise_template});
    for (unsigned r = 0; r < reps; ++r)
        lanes[r].noise.seed = noise_seed_base + r;
    stats::Sample out;
    runFamily(machine, lanes, out);
    return out;
}

stats::Sample
ExperimentRunner::aslrRandomizedMetric(const toolchain::ToolchainSpec &tc,
                                       const ExperimentSetup &setup,
                                       unsigned reps,
                                       std::uint64_t aslr_seed_base)
{
    mbias_assert(reps >= 1, "need at least one repetition");
    toolchain::ProgramPtr prog;
    {
        obs::ScopedSpan span("setup-materialize", "runner");
        prog = linkedProgram(tc, setup.linkOrder);
    }
    sim::Machine machine(spec_.machine);
    obs::ScopedSpan runSpan("run", "runner");

    // ASLR only moves the stack region, so the recorded functional
    // stream is layout-invariant modulo the initial-sp delta: replay
    // rebases stack addresses per draw and re-runs just the timing
    // models, every draw a lane of one pass.  The ReplayCache key
    // excludes the stack base, so one recording (possibly from
    // repeatedMetric) serves every draw.  Each rep loads under a fresh
    // ASLR seed; these one-shot layouts bypass the artifact cache on
    // purpose (they would only displace reusable entries).
    std::vector<toolchain::ProcessImage> images;
    images.reserve(reps);
    for (unsigned r = 0; r < reps; ++r) {
        toolchain::LoaderConfig lc = loaderConfigFor(setup);
        lc.aslrSeed = aslr_seed_base + r;
        images.push_back(toolchain::Loader::load(prog, lc));
    }
    std::vector<sim::ReplayLane> lanes;
    lanes.reserve(reps);
    for (const auto &image : images)
        lanes.push_back({&image, sim::NoiseModel::none()});
    stats::Sample out;
    runFamily(machine, lanes, out);
    return out;
}

double
metricValue(Metric metric, const sim::RunResult &rr)
{
    switch (metric) {
      case Metric::Cycles:
        return double(rr.cycles());
      case Metric::Cpi:
        return rr.cpi();
      case Metric::Instructions:
        return double(rr.instructions());
    }
    mbias_panic("bad metric");
}

double
ExperimentRunner::metricOf(const sim::RunResult &rr) const
{
    return metricValue(spec_.metric, rr);
}

RunOutcome
ExperimentRunner::run(const ExperimentSetup &setup)
{
    RunOutcome o;
    o.setup = setup;
    o.baseline = runSide(spec_.baseline, setup, false);
    o.treatment = runSide(spec_.treatment, setup, true);
    const double treat = metricOf(o.treatment);
    mbias_assert(treat > 0.0, "degenerate metric");
    o.speedup = metricOf(o.baseline) / treat;
    return o;
}

std::vector<RunOutcome>
ExperimentRunner::runAll(const std::vector<ExperimentSetup> &setups)
{
    std::vector<RunOutcome> out;
    out.reserve(setups.size());
    for (const auto &s : setups)
        out.push_back(run(s));
    return out;
}

} // namespace mbias::core
