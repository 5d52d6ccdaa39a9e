#ifndef MBIAS_CAMPAIGN_STORE_HH
#define MBIAS_CAMPAIGN_STORE_HH

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/spec.hh"
#include "core/runner.hh"
#include "obs/metrics.hh"
#include "obs/provenance.hh"

namespace mbias::campaign
{

/**
 * Content address of one campaign task: a 64-bit FNV-1a hash (16 hex
 * digits) over every input that determines the task's outcome —
 * workload + config, machine name(s), both toolchain specs, metric,
 * the setup, and the repetition plan (including the task seed, but
 * only when the plan actually consumes it, i.e. ASLR mode — so two
 * Single-mode tasks measuring the same setup share an address and a
 * cached result).
 *
 * Machines are identified by MachineConfig::name: campaigns over
 * hand-tweaked anonymous configs should give them distinct names or
 * forgo the store.
 */
std::string taskKey(const core::ExperimentSpec &experiment,
                    const CampaignTask &task);

/**
 * One persisted task outcome: the flat, order-stable JSON object
 * stored per line in the campaign's JSONL result store.  Speedup and
 * metric values are stored as raw IEEE-754 bit patterns (hex) so a
 * resumed campaign reproduces them *bitwise*, not round-tripped
 * through decimal.
 */
struct TaskRecord
{
    std::string key;
    std::uint64_t taskIndex = 0;

    // The setup (Explicit link orders are not storable; see toJson).
    std::uint64_t envBytes = 0;
    int linkKind = 0;
    std::uint64_t linkSeed = 0;

    int planKind = 0;
    unsigned reps = 1;

    // Single-mode payloads (zero in ASLR mode).
    std::uint64_t baseCycles = 0, baseInsts = 0, baseResult = 0;
    std::uint64_t treatCycles = 0, treatInsts = 0, treatResult = 0;

    // IEEE-754 bit patterns.
    std::uint64_t baseMetricBits = 0;
    std::uint64_t treatMetricBits = 0;
    std::uint64_t speedupBits = 0;

    /** Builds the record for a finished task. */
    static TaskRecord make(std::string key, const CampaignTask &task,
                           const core::RunOutcome &outcome,
                           double base_metric, double treat_metric);

    /** Reconstitutes the outcome a resumed campaign reuses. */
    core::RunOutcome toOutcome() const;

    /** One JSON object, no newline. */
    std::string toJson() const;

    /** Parses one line; returns false on malformed input, a missing
     *  or duplicate field, or a value that does not fit its field (a
     *  link kind that is not storable included). */
    static bool fromJson(const std::string &line, TaskRecord &out);
};

/**
 * The persistent result store: an append-only JSONL file that makes
 * campaigns resumable and self-describing.  Three line shapes share
 * the file:
 *
 *  - `{"mbias_store":1,"provenance":{...}}` — the header, first line
 *    of a fresh store: the host-setup provenance block of the run
 *    that created it (see obs::Provenance);
 *  - one TaskRecord object per finished task;
 *  - `{"mbias_metrics":1,...}` — a metrics-snapshot trailer appended
 *    when a campaign finishes (one per run; the last one wins).
 *
 * load() reads whatever a previous (possibly killed) run managed to
 * append — every torn line is counted in tornLines() (and
 * `store.torn_lines`) and warned about with its byte offset, so
 * corruption is visible instead of silent — and the engine serves
 * loaded tasks from the store instead of re-executing them.  Records
 * are keyed by content address, so duplicate appends collapse on
 * load (the last one wins).
 *
 * load(), summarizeStore() and readStoreColumns() read the file by one
 * rule: a line counts only if it ends in a newline and parses through
 * the one JSON reader (base/json.hh), and anything else is exactly one
 * torn line.  So a record that lost its newline is never served, and the
 * first write truncates it and the task runs again.
 */
class ResultStore
{
  public:
    /** With @p metrics, counts `store.appends`, `store.loaded`, and
     *  `store.torn_lines`. */
    explicit ResultStore(std::string path,
                        obs::Registry *metrics = nullptr);

    /** Loads existing records and header; returns how many records
     *  were read. */
    std::size_t load();

    /** Deletes any existing file (fresh, non-resumed campaigns).
     *  Every writer below needs load() or reset() to have run. */
    void reset();

    /** Writes the provenance header line (fresh stores only — call
     *  after reset(), or after a load() that found no header). */
    void writeHeader(const obs::Provenance &prov);

    /** Appends a `{"mbias_metrics":1,...}` snapshot trailer. */
    void appendMetrics(const obs::MetricsSnapshot &snap);

    /** Raw provenance JSON of the header (written or loaded);
     *  empty when the store has none. */
    const std::string &headerProvenanceJson() const
    {
        return headerJson_;
    }

    /** Parses the header provenance; false when absent/malformed. */
    bool headerProvenance(obs::Provenance &out) const;

    /** Looks up a loaded record; nullptr when absent. */
    const TaskRecord *find(const std::string &key) const;

    /** Appends one record and flushes it to disk (thread-safe). */
    void append(const TaskRecord &rec);

    /** Number of loaded (not appended) records. */
    std::size_t loadedCount() const { return byKey_.size(); }

    /** Torn lines load() found. */
    std::uint64_t tornLines() const { return tornLines_; }

    const std::string &path() const { return path_; }

  private:
    /** Opens the file for appending; the first call truncates an
     *  unterminated tail (caller holds mutex_). */
    std::ofstream openForAppend();

    std::string path_;
    std::mutex mutex_;
    bool tailChecked_ = false; ///< torn-tail repair done
    /** The file's length up to its last newline, as load() found it
     *  (0 after reset()); unset until one of them runs. */
    std::optional<std::uintmax_t> keepBytes_;
    std::string headerJson_;
    std::uint64_t tornLines_ = 0;
    obs::Counter *tornCounter_ = nullptr;
    obs::Counter *appendCounter_ = nullptr;
    obs::Counter *loadedCounter_ = nullptr;
    std::unordered_map<std::string, TaskRecord> byKey_;
};

/**
 * What `mbias obs-summary` prints: the self-description a finished
 * store carries — provenance header, the last metrics trailer, and
 * record accounting.
 */
struct StoreSummary
{
    std::string path;
    std::string provenanceJson; ///< empty when the store has no header
    std::string metricsJson;    ///< last metrics trailer, or empty
    std::size_t records = 0;
    std::size_t tornLines = 0;

    /** Pretty, human-readable rendering. */
    std::string str() const;
};

/** Scans a store file without loading it into an engine. */
StoreSummary summarizeStore(const std::string &path);

/**
 * Columnar in-memory view of a store: one array per analyzed field,
 * rows deduplicated by content address (last record wins, matching
 * ResultStore::load) and ordered by ascending task index so the view
 * is independent of append order.  This is the shape the stats engine
 * consumes — analysis passes stream over a contiguous `speedup`
 * column instead of hopping across TaskRecord objects.
 */
struct StoreColumns
{
    std::vector<std::uint64_t> taskIndex;
    std::vector<std::uint64_t> envBytes;
    std::vector<double> baseMetric;
    std::vector<double> treatMetric;
    std::vector<double> speedup;
    std::size_t tornLines = 0;  ///< dropped unparseable lines
    std::string provenanceJson; ///< empty when the store has no header

    std::size_t rows() const { return speedup.size(); }
};

/**
 * Single-pass columnar read of a store file.  With @p metrics, counts
 * `store.loaded` and `store.torn_lines` like ResultStore::load.
 */
StoreColumns readStoreColumns(const std::string &path,
                              obs::Registry *metrics = nullptr);

} // namespace mbias::campaign

#endif // MBIAS_CAMPAIGN_STORE_HH
