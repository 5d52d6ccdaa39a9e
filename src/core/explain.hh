#ifndef MBIAS_CORE_EXPLAIN_HH
#define MBIAS_CORE_EXPLAIN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "sim/attribution.hh"
#include "sim/machine.hh"
#include "sim/profile.hh"

namespace mbias::core
{

/**
 * The setup-diff engine behind `mbias explain`: run the same workload
 * (baseline toolchain) under two setups with profiling + attribution
 * on (the untraced plan loop's observer policy), and rank what
 * explains the cycle delta — which functions moved, and which
 * microarchitectural mechanism (cache-set conflicts, predictor/BTB
 * aliasing, stack-alignment line splits, store-load aliasing, TLB
 * pressure) carries it.  Everything here is a pure function of two deterministic
 * runs, so every rendering (text, heatmaps, JSON, trace counter
 * tracks) is byte-stable.
 */

/** One event class's contribution to the A→B cycle delta. */
struct MechanismContribution
{
    std::string key;  ///< stable slug, e.g. "dcache_set_conflict"
    std::string name; ///< e.g. "dcache-set conflict"
    std::int64_t eventDelta = 0;    ///< event count, B - A
    std::int64_t weightedCycles = 0; ///< eventDelta x penalty cycles
    double share = 0.0; ///< |weightedCycles| / sum of all |weighted|
    std::string evidence; ///< hottest set/entry/function, one line
};

/** One function's movement between the two setups (ProfileDiff row). */
struct FunctionDelta
{
    std::string name;
    std::uint64_t cyclesA = 0;
    std::uint64_t cyclesB = 0;
    std::int64_t delta = 0; ///< cyclesB - cyclesA

    std::int64_t icacheMisses = 0;
    std::int64_t dcacheMisses = 0;
    std::int64_t branchMispredicts = 0;
    std::int64_t btbMisses = 0;
    std::int64_t lineSplits = 0;
    std::int64_t aliasStalls = 0;
    std::int64_t stallCycles = 0;
    std::int64_t fetchGroups = 0;
};

/** The full A-vs-B attribution diff. */
struct ExplainReport
{
    /** Bumped when the JSON shape changes. */
    static constexpr int kSchemaVersion = 1;

    std::string workload;
    std::string toolchain;   ///< baseline side, e.g. "gcc-O2"
    std::string machineName; ///< e.g. "core2like"
    ExperimentSetup setupA;
    ExperimentSetup setupB;

    sim::RunResult resultA;
    sim::RunResult resultB;
    sim::Profile profileA;
    sim::Profile profileB;
    sim::Attribution attrA;
    sim::Attribution attrB;

    /** Functions ranked by |cycle delta|, largest first. */
    std::vector<FunctionDelta> functions;

    /** Mechanisms ranked by |weightedCycles|, largest first. */
    std::vector<MechanismContribution> mechanisms;

    /** The top-ranked mechanism's name ("none" when nothing moved). */
    std::string dominantMechanism() const;

    std::int64_t cycleDelta() const
    {
        return std::int64_t(resultB.cycles()) -
               std::int64_t(resultA.cycles());
    }

    /** Deterministic report: header, mechanism ranking, function
     *  diff table (top @p top_functions), and attribution evidence. */
    std::string str(unsigned top_functions = 8) const;

    /** Per-set delta heatmaps (i$/d$/TLB buckets/BTB sets) plus the
     *  top aliased PHT entries, as deterministic ASCII. */
    std::string heatmaps() const;

    /** Schema-versioned one-line JSON (embeddable in campaign
     *  stores next to provenance). */
    std::string toJson() const;

    /**
     * Records per-set counter tracks ("ph":"C" events; ts = set
     * index, args = {"a","b","delta"}) into the global Tracer so the
     * diff loads in Perfetto alongside an existing --trace session.
     * No-op when no session is active.  Returns events recorded.
     */
    std::size_t emitCounterTracks() const;
};

/**
 * Parses a setup spec string: comma-separated `env=BYTES` and
 * `link=given|alpha|seed:N` (e.g. "env=960,link=seed:17").  BYTES and
 * N take the flags' integer grammar (mbias::parseDecimal), and BYTES
 * is capped at ExperimentSetup::kMaxEnvBytes like `--env`.  Returns
 * false and fills @p error on malformed input.
 */
bool parseSetupSpec(const std::string &text, ExperimentSetup &out,
                    std::string &error);

/**
 * Runs the diff: two profiled + attributed runs of
 * @p spec's baseline toolchain (via ExperimentRunner, so artifacts
 * come from the shared cache) and the full ranking.
 */
ExplainReport explainSetupPair(const ExperimentSpec &spec,
                               const ExperimentSetup &a,
                               const ExperimentSetup &b);

/**
 * Compact mechanism-evidence block for a causal report: dominant
 * mechanism plus the top @p top contributions with evidence lines.
 * Used by CausalAnalyzer to ship mechanism evidence with a localized
 * factor.
 */
std::string mechanismEvidence(const ExplainReport &report,
                              unsigned top = 3);

} // namespace mbias::core

#endif // MBIAS_CORE_EXPLAIN_HH
