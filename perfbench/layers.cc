#include "layers.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "core/bias.hh"
#include "core/causal.hh"
#include "core/explain.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "sim/trace.hh"
#include "stats/anova2.hh"
#include "stats/engine.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/loader.hh"

namespace mbench
{

namespace
{

const char *const kLayerNames[kLayers] = {
    "toolchain.compile", "toolchain.link",   "toolchain.load",
    "sim.plan_build",    "sim.trace_translate", "sim.run",
    "sim.reference",     "sim.record",       "sim.replay",
    "core.explain",      "core.causal",      "core.aggregate",
    "campaign.expand",   "campaign.store_append", "campaign.store_read",
    "stats.bootstrap",   "stats.anova",
};

bool
waitsOnWorkers(Layer l)
{
    return l == Layer::Explain || l == Layer::Causal ||
           l == Layer::Aggregate;
}

/** One thread's recording buffer, owned by the registry below so it
 *  outlives the (short-lived) campaign worker that filled it. */
struct Buffer
{
    std::vector<Span> spans;
    std::vector<std::int32_t> open; ///< indices of unfinished spans
    std::uint32_t roots = 0;
};

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gGeneration{0};
std::atomic<std::uint64_t> gInsts{0};
std::atomic<std::uint64_t> gResamples{0};

std::mutex gMutex; // guards gBuffers
std::vector<std::unique_ptr<Buffer>> gBuffers;

thread_local Buffer *tBuffer = nullptr;
thread_local std::uint64_t tGeneration = 0;

Buffer &
threadBuffer()
{
    const std::uint64_t gen = gGeneration.load(std::memory_order_acquire);
    if (!tBuffer || tGeneration != gen) {
        std::lock_guard<std::mutex> lock(gMutex);
        gBuffers.push_back(std::make_unique<Buffer>());
        tBuffer = gBuffers.back().get();
        tBuffer->spans.reserve(1024);
        tGeneration = gen;
    }
    return *tBuffer;
}

/** RAII span around one wrapped call (no-op while not tracing). */
class Scope
{
  public:
    explicit Scope(Layer layer)
    {
        if (!gTracing.load(std::memory_order_relaxed))
            return;
        buf_ = &threadBuffer();
        index_ = std::int32_t(buf_->spans.size());
        Span s;
        s.layer = layer;
        if (buf_->open.empty()) {
            s.task = buf_->roots++;
        } else {
            s.parent = buf_->open.back();
            s.task = buf_->spans[std::size_t(s.parent)].task;
        }
        buf_->open.push_back(index_);
        s.startNs = nowNs();
        buf_->spans.push_back(s);
    }

    ~Scope()
    {
        if (!buf_)
            return;
        Span &s = buf_->spans[std::size_t(index_)];
        s.endNs = nowNs();
        s.insts = insts_;
        buf_->open.pop_back();
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Tallies a sim call's retired instructions (always). */
    void
    retired(std::uint64_t n)
    {
        gInsts.fetch_add(n, std::memory_order_relaxed);
        insts_ = n;
    }

  private:
    Buffer *buf_ = nullptr;
    std::int32_t index_ = -1;
    std::uint64_t insts_ = 0;
};

} // namespace

const char *
layerName(Layer l)
{
    return kLayerNames[std::size_t(l)];
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
simInstructions()
{
    return gInsts.load(std::memory_order_relaxed);
}

std::uint64_t
bootstrapResamples()
{
    return gResamples.load(std::memory_order_relaxed);
}

void
startTracing()
{
    std::lock_guard<std::mutex> lock(gMutex);
    gBuffers.clear();
    gGeneration.fetch_add(1, std::memory_order_release);
    gTracing.store(true, std::memory_order_release);
}

std::vector<ThreadSpans>
stopTracing()
{
    gTracing.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(gMutex);
    std::vector<ThreadSpans> out;
    for (auto &b : gBuffers)
        if (!b->spans.empty())
            out.push_back({std::move(b->spans)});
    gBuffers.clear();
    gGeneration.fetch_add(1, std::memory_order_release);
    return out;
}

LayerSplit
splitLayers(const std::vector<ThreadSpans> &threads, std::int64_t t0,
            std::int64_t t1)
{
    LayerSplit out;

    // Self time on each thread: duration minus the child spans.
    for (const ThreadSpans &th : threads) {
        std::vector<std::int64_t> childNs(th.spans.size(), 0);
        for (const Span &s : th.spans)
            if (s.parent >= 0)
                childNs[std::size_t(s.parent)] += s.endNs - s.startNs;
        for (std::size_t i = 0; i < th.spans.size(); ++i) {
            const Span &s = th.spans[i];
            const auto l = std::size_t(s.layer);
            out.threadS[l] += double(s.endNs - s.startNs - childNs[i]) * 1e-9;
            out.calls[l] += 1;
            out.insts[l] += s.insts;
        }
    }

    // Wall-clock share: sweep every span boundary in time order,
    // tracking each thread's innermost open span.
    struct Event
    {
        std::int64_t t;
        bool open;
        std::uint32_t thread;
        std::int32_t span;
    };
    std::vector<Event> events;
    for (std::uint32_t ti = 0; ti < threads.size(); ++ti)
        for (std::int32_t i = 0; i < std::int32_t(threads[ti].spans.size());
             ++i) {
            const Span &s = threads[ti].spans[std::size_t(i)];
            events.push_back({s.startNs, true, ti, i});
            events.push_back({s.endNs, false, ti, i});
        }
    // Ties: closes first; parents open before and close after their
    // children (a parent has the lower index on its thread).
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.t != b.t)
                      return a.t < b.t;
                  if (a.open != b.open)
                      return !a.open;
                  return a.open ? a.span < b.span : a.span > b.span;
              });

    std::vector<std::vector<std::int32_t>> stacks(threads.size());
    std::array<int, kLayers> busy{}; // threads whose innermost span is l
    int leafBusy = 0, waitBusy = 0;
    const auto adjust = [&](Layer l, int d) {
        busy[std::size_t(l)] += d;
        (waitsOnWorkers(l) ? waitBusy : leafBusy) += d;
    };
    const auto topLayer = [&](std::uint32_t ti) {
        return threads[ti].spans[std::size_t(stacks[ti].back())].layer;
    };
    const auto charge = [&](std::int64_t from, std::int64_t to) {
        from = std::max(from, t0);
        to = std::min(to, t1);
        if (to <= from)
            return;
        const double dt = double(to - from) * 1e-9;
        const bool leaves = leafBusy > 0;
        const int n = leaves ? leafBusy : waitBusy;
        if (n == 0) {
            out.unattributedS += dt;
            return;
        }
        for (std::size_t l = 0; l < kLayers; ++l)
            if (busy[l] && waitsOnWorkers(Layer(l)) != leaves)
                out.wallS[l] += dt * double(busy[l]) / double(n);
    };

    std::int64_t prev = t0;
    for (const Event &e : events) {
        charge(prev, e.t);
        prev = std::max(prev, e.t);
        auto &st = stacks[e.thread];
        if (!st.empty())
            adjust(topLayer(e.thread), -1);
        if (e.open) {
            st.push_back(e.span);
        } else {
            auto it = std::find(st.rbegin(), st.rend(), e.span);
            if (it != st.rend())
                st.erase(std::next(it).base());
        }
        if (!st.empty())
            adjust(topLayer(e.thread), +1);
    }
    charge(prev, t1);
    return out;
}

} // namespace mbench

// ---------------------------------------------------------------------
// Link-time shims (ld --wrap): each forwards to the real definition.

using namespace mbias;
using mbench::Layer;
using mbench::Scope;

#define MBENCH_REAL(sym) __real_##sym
#define MBENCH_WRAP(sym) __wrap_##sym

extern "C" {

// toolchain ----------------------------------------------------------

toolchain::ModulesPtr MBENCH_REAL(
    _ZN5mbias9toolchain13ArtifactCache8compiledERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt8functionIFSt6vectorINS_3isa6ModuleESaISD_EEvEE)(
    toolchain::ArtifactCache *, const std::string &,
    const std::function<std::vector<isa::Module>()> &);

toolchain::ModulesPtr
MBENCH_WRAP(
    _ZN5mbias9toolchain13ArtifactCache8compiledERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt8functionIFSt6vectorINS_3isa6ModuleESaISD_EEvEE)(
    toolchain::ArtifactCache *self, const std::string &key,
    const std::function<std::vector<isa::Module>()> &produce)
{
    Scope s(Layer::Compile);
    return MBENCH_REAL(
        _ZN5mbias9toolchain13ArtifactCache8compiledERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt8functionIFSt6vectorINS_3isa6ModuleESaISD_EEvEE)(
        self, key, produce);
}

toolchain::ProgramPtr MBENCH_REAL(
    _ZN5mbias9toolchain13ArtifactCache6linkedERKSt10shared_ptrIKNS0_15CompiledModulesEERKNS0_9LinkOrderERKNS0_12LinkerConfigE)(
    toolchain::ArtifactCache *, const toolchain::ModulesPtr &,
    const toolchain::LinkOrder &, const toolchain::LinkerConfig &);

toolchain::ProgramPtr
MBENCH_WRAP(
    _ZN5mbias9toolchain13ArtifactCache6linkedERKSt10shared_ptrIKNS0_15CompiledModulesEERKNS0_9LinkOrderERKNS0_12LinkerConfigE)(
    toolchain::ArtifactCache *self, const toolchain::ModulesPtr &mods,
    const toolchain::LinkOrder &order, const toolchain::LinkerConfig &config)
{
    Scope s(Layer::Link);
    return MBENCH_REAL(
        _ZN5mbias9toolchain13ArtifactCache6linkedERKSt10shared_ptrIKNS0_15CompiledModulesEERKNS0_9LinkOrderERKNS0_12LinkerConfigE)(
        self, mods, order, config);
}

toolchain::ProcessImage MBENCH_REAL(
    _ZN5mbias9toolchain13ArtifactCache5imageERKSt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    toolchain::ArtifactCache *, const toolchain::ProgramPtr &,
    const toolchain::LoaderConfig &, const std::string &);

toolchain::ProcessImage
MBENCH_WRAP(
    _ZN5mbias9toolchain13ArtifactCache5imageERKSt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    toolchain::ArtifactCache *self, const toolchain::ProgramPtr &prog,
    const toolchain::LoaderConfig &config, const std::string &entry)
{
    Scope s(Layer::Load);
    return MBENCH_REAL(
        _ZN5mbias9toolchain13ArtifactCache5imageERKSt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
        self, prog, config, entry);
}

toolchain::ProcessImage MBENCH_REAL(
    _ZN5mbias9toolchain6Loader4loadESt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    std::shared_ptr<const toolchain::LinkedProgram>,
    const toolchain::LoaderConfig &, const std::string &);

toolchain::ProcessImage
MBENCH_WRAP(
    _ZN5mbias9toolchain6Loader4loadESt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
    std::shared_ptr<const toolchain::LinkedProgram> prog,
    const toolchain::LoaderConfig &config, const std::string &entry)
{
    Scope s(Layer::Load);
    return MBENCH_REAL(
        _ZN5mbias9toolchain6Loader4loadESt10shared_ptrIKNS0_13LinkedProgramEERKNS0_12LoaderConfigERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE)(
        std::move(prog), config, entry);
}

// sim ----------------------------------------------------------------

std::shared_ptr<const sim::ExecutionPlan> MBENCH_REAL(
    _ZN5mbias3sim9PlanCache3getERKSt10shared_ptrIKNS_9toolchain13LinkedProgramEE)(
    sim::PlanCache *, const std::shared_ptr<const toolchain::LinkedProgram> &);

std::shared_ptr<const sim::ExecutionPlan>
MBENCH_WRAP(
    _ZN5mbias3sim9PlanCache3getERKSt10shared_ptrIKNS_9toolchain13LinkedProgramEE)(
    sim::PlanCache *self,
    const std::shared_ptr<const toolchain::LinkedProgram> &program)
{
    Scope s(Layer::PlanGet);
    return MBENCH_REAL(
        _ZN5mbias3sim9PlanCache3getERKSt10shared_ptrIKNS_9toolchain13LinkedProgramEE)(
        self, program);
}

std::shared_ptr<const sim::TracePlan> MBENCH_REAL(
    _ZN5mbias3sim10TraceCache3getERKSt10shared_ptrIKNS0_13ExecutionPlanEERKNS0_13TraceGeometryE)(
    sim::TraceCache *, const std::shared_ptr<const sim::ExecutionPlan> &,
    const sim::TraceGeometry &);

std::shared_ptr<const sim::TracePlan>
MBENCH_WRAP(
    _ZN5mbias3sim10TraceCache3getERKSt10shared_ptrIKNS0_13ExecutionPlanEERKNS0_13TraceGeometryE)(
    sim::TraceCache *self, const std::shared_ptr<const sim::ExecutionPlan> &base,
    const sim::TraceGeometry &g)
{
    Scope s(Layer::TraceGet);
    return MBENCH_REAL(
        _ZN5mbias3sim10TraceCache3getERKSt10shared_ptrIKNS0_13ExecutionPlanEERKNS0_13TraceGeometryE)(
        self, base, g);
}

sim::RunResult MBENCH_REAL(
    _ZN5mbias3sim7Machine3runERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPNS0_7ProfileEPNS0_11AttributionE)(
    sim::Machine *, const toolchain::ProcessImage &, std::uint64_t,
    const sim::NoiseModel &, sim::Profile *, sim::Attribution *);

sim::RunResult
MBENCH_WRAP(
    _ZN5mbias3sim7Machine3runERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPNS0_7ProfileEPNS0_11AttributionE)(
    sim::Machine *self, const toolchain::ProcessImage &image,
    std::uint64_t max_insts, const sim::NoiseModel &noise,
    sim::Profile *profile, sim::Attribution *attribution)
{
    // The tier test Machine::run applies (machine.cc).
    const bool fast = self->useFastPath() && self->tierSupport().fast &&
                      !noise.active() && !profile && !attribution &&
                      !sim::referenceForcedByEnv();
    Scope s(fast ? Layer::SimRun : Layer::SimRef);
    auto rr = MBENCH_REAL(
        _ZN5mbias3sim7Machine3runERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPNS0_7ProfileEPNS0_11AttributionE)(
        self, image, max_insts, noise, profile, attribution);
    s.retired(rr.instructions());
    return rr;
}

sim::RunResult MBENCH_REAL(
    _ZN5mbias3sim7Machine9runRecordERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPSt10shared_ptrIKNS0_15FunctionalTraceEE)(
    sim::Machine *, const toolchain::ProcessImage &, std::uint64_t,
    const sim::NoiseModel &, std::shared_ptr<const sim::FunctionalTrace> *);

sim::RunResult
MBENCH_WRAP(
    _ZN5mbias3sim7Machine9runRecordERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPSt10shared_ptrIKNS0_15FunctionalTraceEE)(
    sim::Machine *self, const toolchain::ProcessImage &image,
    std::uint64_t max_insts, const sim::NoiseModel &noise,
    std::shared_ptr<const sim::FunctionalTrace> *out)
{
    Scope s(Layer::SimRecord);
    auto rr = MBENCH_REAL(
        _ZN5mbias3sim7Machine9runRecordERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelEPSt10shared_ptrIKNS0_15FunctionalTraceEE)(
        self, image, max_insts, noise, out);
    s.retired(rr.instructions());
    return rr;
}

sim::RunResult MBENCH_REAL(
    _ZN5mbias3sim7Machine9runReplayERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelERKNS0_15FunctionalTraceE)(
    sim::Machine *, const toolchain::ProcessImage &, std::uint64_t,
    const sim::NoiseModel &, const sim::FunctionalTrace &);

sim::RunResult
MBENCH_WRAP(
    _ZN5mbias3sim7Machine9runReplayERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelERKNS0_15FunctionalTraceE)(
    sim::Machine *self, const toolchain::ProcessImage &image,
    std::uint64_t max_insts, const sim::NoiseModel &noise,
    const sim::FunctionalTrace &trace)
{
    Scope s(Layer::SimReplay);
    auto rr = MBENCH_REAL(
        _ZN5mbias3sim7Machine9runReplayERKNS_9toolchain12ProcessImageEmRKNS0_10NoiseModelERKNS0_15FunctionalTraceE)(
        self, image, max_insts, noise, trace);
    s.retired(rr.instructions());
    return rr;
}

// core ---------------------------------------------------------------

core::ExplainReport MBENCH_REAL(
    _ZN5mbias4core16explainSetupPairERKNS0_14ExperimentSpecERKNS0_15ExperimentSetupES6_)(
    const core::ExperimentSpec &, const core::ExperimentSetup &,
    const core::ExperimentSetup &);

core::ExplainReport
MBENCH_WRAP(
    _ZN5mbias4core16explainSetupPairERKNS0_14ExperimentSpecERKNS0_15ExperimentSetupES6_)(
    const core::ExperimentSpec &spec, const core::ExperimentSetup &a,
    const core::ExperimentSetup &b)
{
    Scope s(Layer::Explain);
    return MBENCH_REAL(
        _ZN5mbias4core16explainSetupPairERKNS0_14ExperimentSpecERKNS0_15ExperimentSetupES6_)(
        spec, a, b);
}

core::CausalReport MBENCH_REAL(
    _ZNK5mbias4core14CausalAnalyzer7analyzeERKNS0_14ExperimentSpecERKSt6vectorINS0_15ExperimentSetupESaIS6_EE)(
    const core::CausalAnalyzer *, const core::ExperimentSpec &,
    const std::vector<core::ExperimentSetup> &);

core::CausalReport
MBENCH_WRAP(
    _ZNK5mbias4core14CausalAnalyzer7analyzeERKNS0_14ExperimentSpecERKSt6vectorINS0_15ExperimentSetupESaIS6_EE)(
    const core::CausalAnalyzer *self, const core::ExperimentSpec &spec,
    const std::vector<core::ExperimentSetup> &setups)
{
    Scope s(Layer::Causal);
    return MBENCH_REAL(
        _ZNK5mbias4core14CausalAnalyzer7analyzeERKNS0_14ExperimentSpecERKSt6vectorINS0_15ExperimentSetupESaIS6_EE)(
        self, spec, setups);
}

core::BiasReport MBENCH_REAL(
    _ZNK5mbias4core12BiasAnalyzer9aggregateERKNS0_14ExperimentSpecESt6vectorINS0_10RunOutcomeESaIS6_EE)(
    const core::BiasAnalyzer *, const core::ExperimentSpec &,
    std::vector<core::RunOutcome>);

core::BiasReport
MBENCH_WRAP(
    _ZNK5mbias4core12BiasAnalyzer9aggregateERKNS0_14ExperimentSpecESt6vectorINS0_10RunOutcomeESaIS6_EE)(
    const core::BiasAnalyzer *self, const core::ExperimentSpec &spec,
    std::vector<core::RunOutcome> outcomes)
{
    Scope s(Layer::Aggregate);
    return MBENCH_REAL(
        _ZNK5mbias4core12BiasAnalyzer9aggregateERKNS0_14ExperimentSpecESt6vectorINS0_10RunOutcomeESaIS6_EE)(
        self, spec, std::move(outcomes));
}

// campaign -----------------------------------------------------------

std::vector<campaign::CampaignTask>
    MBENCH_REAL(_ZNK5mbias8campaign12CampaignSpec6expandEv)(
        const campaign::CampaignSpec *);

std::vector<campaign::CampaignTask>
MBENCH_WRAP(_ZNK5mbias8campaign12CampaignSpec6expandEv)(
    const campaign::CampaignSpec *self)
{
    Scope s(Layer::Expand);
    return MBENCH_REAL(_ZNK5mbias8campaign12CampaignSpec6expandEv)(self);
}

void MBENCH_REAL(_ZN5mbias8campaign11ResultStore6appendERKNS0_10TaskRecordE)(
    campaign::ResultStore *, const campaign::TaskRecord &);

void
MBENCH_WRAP(_ZN5mbias8campaign11ResultStore6appendERKNS0_10TaskRecordE)(
    campaign::ResultStore *self, const campaign::TaskRecord &rec)
{
    Scope s(Layer::StoreAppend);
    MBENCH_REAL(_ZN5mbias8campaign11ResultStore6appendERKNS0_10TaskRecordE)(
        self, rec);
}

campaign::StoreColumns MBENCH_REAL(
    _ZN5mbias8campaign16readStoreColumnsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_3obs8RegistryE)(
    const std::string &, obs::Registry *);

campaign::StoreColumns
MBENCH_WRAP(
    _ZN5mbias8campaign16readStoreColumnsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_3obs8RegistryE)(
    const std::string &path, obs::Registry *metrics)
{
    Scope s(Layer::StoreRead);
    return MBENCH_REAL(
        _ZN5mbias8campaign16readStoreColumnsERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS_3obs8RegistryE)(
        path, metrics);
}

// stats --------------------------------------------------------------

stats::ConfidenceInterval MBENCH_REAL(
    _ZNK5mbias5stats6Engine17bootstrapIntervalERKSt6vectorIdSaIdEEmid)(
    const stats::Engine *, const std::vector<double> &, std::uint64_t, int,
    double);

stats::ConfidenceInterval
MBENCH_WRAP(_ZNK5mbias5stats6Engine17bootstrapIntervalERKSt6vectorIdSaIdEEmid)(
    const stats::Engine *self, const std::vector<double> &data,
    std::uint64_t seed, int resamples, double level)
{
    mbench::Scope s(Layer::Bootstrap);
    mbench::gResamples.fetch_add(std::uint64_t(resamples),
                                 std::memory_order_relaxed);
    return MBENCH_REAL(
        _ZNK5mbias5stats6Engine17bootstrapIntervalERKSt6vectorIdSaIdEEmid)(
        self, data, seed, resamples, level);
}

stats::TwoWayAnovaResult MBENCH_REAL(
    _ZNK5mbias5stats6Engine11twoWayAnovaERKSt6vectorIS2_INS0_6SampleESaIS3_EESaIS5_EE)(
    const stats::Engine *, const std::vector<std::vector<stats::Sample>> &);

stats::TwoWayAnovaResult
MBENCH_WRAP(
    _ZNK5mbias5stats6Engine11twoWayAnovaERKSt6vectorIS2_INS0_6SampleESaIS3_EESaIS5_EE)(
    const stats::Engine *self,
    const std::vector<std::vector<stats::Sample>> &cells)
{
    Scope s(Layer::Anova);
    return MBENCH_REAL(
        _ZNK5mbias5stats6Engine11twoWayAnovaERKSt6vectorIS2_INS0_6SampleESaIS3_EESaIS5_EE)(
        self, cells);
}

stats::TwoWayAnovaResult MBENCH_REAL(
    _ZN5mbias5stats11twoWayAnovaERKSt6vectorIS1_INS0_6SampleESaIS2_EESaIS4_EE)(
    const std::vector<std::vector<stats::Sample>> &);

stats::TwoWayAnovaResult
MBENCH_WRAP(
    _ZN5mbias5stats11twoWayAnovaERKSt6vectorIS1_INS0_6SampleESaIS2_EESaIS4_EE)(
    const std::vector<std::vector<stats::Sample>> &cells)
{
    Scope s(Layer::Anova);
    return MBENCH_REAL(
        _ZN5mbias5stats11twoWayAnovaERKSt6vectorIS1_INS0_6SampleESaIS2_EESaIS4_EE)(
        cells);
}

} // extern "C"
