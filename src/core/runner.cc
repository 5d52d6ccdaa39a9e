#include "core/runner.hh"

#include <utility>

#include "base/logging.hh"
#include "obs/trace.hh"
#include "sim/replay.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace mbias::core
{

stats::Sample
ExperimentRunner::metricSample(const std::vector<sim::RunResult> &rs) const
{
    stats::Sample out;
    for (const sim::RunResult &rr : rs)
        out.add(metricOf(rr));
    return out;
}

std::vector<sim::RunResult>
ExperimentRunner::runFamily(const toolchain::ToolchainSpec &tc,
                            bool treatment_side,
                            std::span<const Lane> lanes)
{
    mbias_assert(!lanes.empty(), "a lane family needs at least one lane");
    const std::size_t n = lanes.size();
    // Neighbouring lanes in one layout share one image, and in one
    // link order one program.  ASLR draws are one-shot layouts and
    // bypass the artifact cache on purpose (they would only displace
    // reusable entries).
    std::vector<toolchain::ProcessImage> images;
    images.reserve(n);
    {
        obs::ScopedSpan span("setup-materialize", "runner");
        toolchain::ProgramPtr prog;
        for (std::size_t k = 0; k < n; ++k) {
            const Lane &lane = lanes[k];
            const bool same_order =
                k > 0 && lane.linkOrder == lanes[k - 1].linkOrder;
            if (same_order && lane.envBytes == lanes[k - 1].envBytes &&
                lane.aslrSeed == lanes[k - 1].aslrSeed) {
                images.push_back(images.back());
                continue;
            }
            if (!same_order)
                prog = linkedProgram(tc, lane.linkOrder);
            toolchain::LoaderConfig lc = loaderConfigFor(lane.envBytes);
            lc.aslrSeed = lane.aslrSeed;
            images.push_back(
                lane.aslrSeed
                    ? toolchain::Loader::load(prog, lc)
                    : toolchain::ArtifactCache::global().image(prog, lc));
        }
    }

    sim::Machine machine(machineFor(treatment_side));
    machine.setRunHistogram(runHistogram_);
    constexpr std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    std::vector<sim::RunResult> out(n);

    // Every lane differs from lane 0 only in its stack base, its noise
    // and its link order.  None of them changes the functional stream
    // while the link keeps the data layout and the program never reads
    // a code address, so one recording can time every lane it
    // matches(), and the lane pass decides which of them ride it
    // (Machine::kMinLinkPass).  A family whose pass would time other
    // link orders shares the recording of its module set; a narrower
    // one keeps a recording of lane 0's own link, which the lanes at
    // that link ride.
    const bool any_link = timesOtherLinks(n);
    bool shared = any_link;
    for (std::size_t k = 1; k < n; ++k)
        shared |= images[k].program == images[0].program;
    std::shared_ptr<const sim::FunctionalTrace> trace;
    std::size_t first = 0; // lanes before this one are done
    const bool replay = shared && sim::replayTierUsable(machine);
    if (replay) {
        auto &cache = sim::ReplayCache::global();
        bool unrecordable = false;
        trace = cache.find(images[0], budget, &unrecordable, !any_link);
        if (!trace && !unrecordable) {
            // The recording runs under lane 0's model: it IS lane 0.
            out[0] =
                machine.runRecord(images[0], budget, lanes[0].noise, &trace);
            first = 1;
            // null = negative entry
            cache.insert(images[0], budget, trace, !any_link);
        }
    }
    std::vector<std::size_t> served;
    std::vector<sim::ReplayLane> pass;
    bool refused = false; ///< a lane at the recorded layout ran alone
    for (std::size_t k = first; k < n; ++k) {
        if (trace && trace->matches(images[k], budget)) {
            served.push_back(k);
            pass.push_back({&images[k], lanes[k].noise});
            continue;
        }
        if (!trace || images[k].program == trace->program)
            refused = true;
        else
            sim::ReplayCache::global().noteLayoutFallback();
        out[k] = machine.run(images[k], budget, lanes[k].noise);
    }
    if (replay && refused)
        sim::ReplayCache::global().noteFallback();
    if (!pass.empty()) {
        machine.runReplayLanes(*trace, budget, pass);
        // Every lane still returns through runReplay(), which hands out
        // the lane the pass already timed, so per-run instrumentation
        // (perfbench's link-time shims, which also count the simulated
        // instructions) keeps seeing one call per lane.
        for (const std::size_t k : served)
            out[k] =
                machine.runReplay(images[k], budget, lanes[k].noise, *trace);
    }
    for (const sim::RunResult &rr : out)
        mbias_assert(rr.halted, "workload did not halt: ", spec_.workload);
    return out;
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
ExperimentRunner::loaderConfigFor(std::uint64_t env_bytes) const
{
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    if (spAlign_)
        lc.spAlign = spAlign_;
    return lc;
}

const sim::MachineConfig &
ExperimentRunner::machineFor(bool treatment_side) const
{
    return treatment_side && spec_.treatmentMachine ? *spec_.treatmentMachine
                                                    : spec_.machine;
}

toolchain::ProcessImage
ExperimentRunner::materialize(const toolchain::ToolchainSpec &tc,
                              const ExperimentSetup &setup)
{
    obs::ScopedSpan span("setup-materialize", "runner");
    return toolchain::ArtifactCache::global().image(
        linkedProgram(tc, setup.linkOrder), loaderConfigFor(setup.envBytes));
}

sim::RunResult
ExperimentRunner::runSide(const toolchain::ToolchainSpec &tc,
                          const ExperimentSetup &setup, bool treatment_side,
                          sim::Profile *profile,
                          sim::Attribution *attribution)
{
    auto image = materialize(tc, setup);
    sim::Machine machine(machineFor(treatment_side));
    machine.setRunHistogram(runHistogram_);
    obs::ScopedSpan runSpan(profile || attribution ? "run-profiled" : "run",
                            "runner");
    auto rr = machine.run(image, sim::Machine::kDefaultRunBudget,
                          sim::NoiseModel::none(), profile, attribution);
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
    // Rep r's model: the caller's template with seed base + r (the
    // default template reproduces the historical withSeed(base + r)).
    // Noise perturbs timing and cache state, never a value, so every
    // repetition is a lane of one family.
    std::vector<Lane> lanes(
        reps, {setup.envBytes, 0, noise_template, setup.linkOrder});
    for (unsigned r = 0; r < reps; ++r)
        lanes[r].noise.seed = noise_seed_base + r;
    return metricSample(runFamily(tc, false, lanes));
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

} // namespace mbias::core
