#ifndef MBENCH_WORKLOADS_HH
#define MBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"

/**
 * The benchmark's workloads.  Each one is built from the benchmark
 * seed alone (setup()), then executed any number of times as a "pass"
 * from cold mbias caches; mbias only ever sees the generated inputs.
 */
namespace mbench
{

struct Options
{
    unsigned jobs = 1;
    std::uint64_t seed = 0;
    std::string root = ".";    ///< source checkout (tests/golden lives here)
    std::string workdir = "."; ///< scratch space for stores and captures
    bool corruptGolden = false;    ///< self-test: break one golden line
    bool corruptSpotCheck = false; ///< self-test: break one reference run
};

/** What one pass (or spot-check) produced and how much of it failed. */
struct PassResult
{
    /** Digest over every RunResult-derived value, in input order (so
     *  it is independent of the pass order and of --jobs). */
    std::uint64_t digest = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few, for stderr

    /** Campaign tasks and the ones the in-memory ResultCache served
     *  (only where the campaign report is visible to the benchmark). */
    std::uint64_t tasks = 0;
    std::uint64_t resultCacheHits = 0;

    /** Host seconds per rendered figure id (paper_all only). */
    std::vector<std::pair<std::string, double>> figureSeconds;

    void check(bool ok, const std::string &what);

    /** Adds @p o's checks (not its digest or timings) to these. */
    void merge(const PassResult &o);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds the inputs from the seed; callable repeatedly (each call
     *  rebuilds them from scratch and must yield the same inputs). */
    virtual void setup() = 0;

    /** One pass over the inputs, in an order drawn from @p order. */
    virtual PassResult pass(mbias::Rng &order) = 0;

    /** Outside timing: re-runs a seeded subset of the pass on the
     *  reference interpreter and requires bitwise-equal results. */
    virtual PassResult spotCheck() { return {}; }

    /** Canonical text of the generated inputs (self-test). */
    virtual std::string describeInputs() const = 0;
};

/** Every figure id paper_all renders, in registry order. */
std::vector<std::string> figureIds();

/** nullptr when @p name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Options &opts);

} // namespace mbench

#endif // MBENCH_WORKLOADS_HH
