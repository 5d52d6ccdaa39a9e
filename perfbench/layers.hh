#ifndef MBENCH_LAYERS_HH
#define MBENCH_LAYERS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/**
 * Layer spans recorded from outside the program.
 *
 * The linker routes calls into a fixed set of public mbias functions
 * through the __wrap_ shims in layers.cc (see CMakeLists.txt).  Each
 * shim always adds the simulated instructions a sim call retired to
 * a process-wide tally; while tracing is on it also records a span:
 * layer, start, end, parent span and task id, on the calling thread.
 * Spans stay in memory until collect().
 */
namespace mbench
{

enum class Layer : std::uint8_t
{
    Compile,     ///< ArtifactCache::compiled (compile on miss)
    Link,        ///< ArtifactCache::linked
    Load,        ///< ArtifactCache::image, Loader::load
    PlanGet,     ///< PlanCache::get (plan build on miss)
    TraceGet,    ///< TraceCache::get (superblock translation on miss)
    SimRun,      ///< Machine::run taking the fast/trace tiers
    SimRef,      ///< Machine::run on the reference interpreter
    SimRecord,   ///< Machine::runRecord
    SimReplay,   ///< Machine::runReplay
    Explain,     ///< core::explainSetupPair
    Causal,      ///< CausalAnalyzer::analyze
    Aggregate,   ///< BiasAnalyzer::aggregate
    Expand,      ///< CampaignSpec::expand
    StoreAppend, ///< ResultStore::append
    StoreRead,   ///< readStoreColumns
    Bootstrap,   ///< stats::Engine::bootstrapInterval
    Anova,       ///< stats::Engine::twoWayAnova, stats::twoWayAnova
    Count,
};

constexpr std::size_t kLayers = std::size_t(Layer::Count);

/** Metric-name stem of each layer ("toolchain.compile", ...). */
const char *layerName(Layer l);

/** One recorded call. */
struct Span
{
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t insts = 0;  ///< simulated instructions (sim layers)
    std::int32_t parent = -1; ///< index in the same thread's spans
    std::uint32_t task = 0;   ///< root span ordinal on its thread
    Layer layer = Layer::Count;
};

/** Spans of one thread, in start order. */
struct ThreadSpans
{
    std::vector<Span> spans;
};

/** steady_clock nanoseconds (the span clock). */
std::int64_t nowNs();

/** Simulated instructions retired by every wrapped sim call so far
 *  (replayed repetitions included); counted with tracing on or off. */
std::uint64_t simInstructions();

/** Extra resamples requested through Engine::bootstrapInterval. */
std::uint64_t bootstrapResamples();

/** Starts recording spans (drops any earlier ones). */
void startTracing();

/** Stops recording and hands over every span recorded since
 *  startTracing().  Call only once the traced work has finished on
 *  every thread. */
std::vector<ThreadSpans> stopTracing();

/** Per-layer totals of one traced interval. */
struct LayerSplit
{
    /** Wall-clock share per layer: each instant of the interval is
     *  split evenly between the threads busy in a layer at that
     *  instant (by their innermost span).  A core.* span waits on its
     *  callees' workers, so it is charged only for instants in which
     *  no other thread is busy in a layer. */
    std::array<double, kLayers> wallS{};

    /** Self time per layer summed over threads (span duration minus
     *  its child spans), and the instructions those spans retired. */
    std::array<double, kLayers> threadS{};
    std::array<std::uint64_t, kLayers> calls{};
    std::array<std::uint64_t, kLayers> insts{};

    /** Instants of the interval in which no thread was in a layer. */
    double unattributedS = 0.0;
};

/** Splits [@p t0, @p t1) over @p spans as described on LayerSplit. */
LayerSplit splitLayers(const std::vector<ThreadSpans> &spans,
                       std::int64_t t0, std::int64_t t1);

} // namespace mbench

#endif // MBENCH_LAYERS_HH
