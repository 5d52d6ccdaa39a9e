#include "campaign/store.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "base/hash.hh"
#include "base/json.hh"
#include "base/logging.hh"
#include "obs/trace.hh"

namespace mbias::campaign
{

namespace
{

void
requireStorableOrder(const toolchain::LinkOrder &order)
{
    mbias_assert(order.kind() != toolchain::LinkOrder::Kind::Explicit,
                 "explicit link orders have no stable content address; "
                 "campaigns must use as-given/alphabetical/seeded orders");
}

toolchain::LinkOrder
orderFromKind(int kind, std::uint64_t seed)
{
    using Kind = toolchain::LinkOrder::Kind;
    switch (Kind(kind)) {
      case Kind::AsGiven:
        return toolchain::LinkOrder::asGiven();
      case Kind::Alphabetical:
        return toolchain::LinkOrder::alphabetical();
      case Kind::Seeded:
        return toolchain::LinkOrder::shuffled(seed);
      case Kind::Explicit:
        break;
    }
    mbias_panic("unstorable link order kind ", kind);
}

/**
 * The record in the fields of one line.  Field order is free, unknown
 * names are skipped (forward compatibility), and a record is valid
 * only when every known field was seen and fits.  The reader refuses a
 * duplicate name, so no field is read twice.
 */
bool
recordFromFields(const JsonObject &fields, TaskRecord &out)
{
    TaskRecord r;
    unsigned seen = 0;
    for (const JsonField &f : fields) {
        // Each reader marks field @p bit seen when its value fits; an
        // integer field goes through its own maximum, so a value that
        // does not fit refuses the record instead of wrapping.
        const auto mark = [&seen](unsigned bit, bool ok) {
            seen |= unsigned(ok) << bit;
            return ok;
        };
        const auto decimal = [&](unsigned bit, auto &member,
                                 std::uint64_t max) {
            const auto v = f.value.decimal(max);
            if (v)
                member = std::remove_reference_t<decltype(member)>(*v);
            return mark(bit, v.has_value());
        };
        const auto hex = [&](unsigned bit, std::uint64_t &member) {
            const auto v = f.value.hex();
            member = v.value_or(0);
            return mark(bit, v.has_value());
        };
        constexpr std::uint64_t u64 = ~std::uint64_t(0);
        bool ok = false;
        if (f.name == "key") {
            auto key = f.value.string();
            ok = mark(0, key && key->size() == 16);
            if (ok)
                r.key = std::move(*key);
        } else if (f.name == "task") {
            ok = decimal(1, r.taskIndex, u64);
        } else if (f.name == "env") {
            ok = decimal(2, r.envBytes, u64);
        } else if (f.name == "link_kind") {
            // Only the storable kinds, the ones below Explicit: it has
            // no stable content address.
            ok = decimal(3, r.linkKind,
                         int(toolchain::LinkOrder::Kind::Explicit) - 1);
        } else if (f.name == "link_seed") {
            ok = decimal(4, r.linkSeed, u64);
        } else if (f.name == "plan") {
            ok = decimal(5, r.planKind, std::numeric_limits<int>::max());
        } else if (f.name == "reps") {
            ok = decimal(6, r.reps, std::numeric_limits<unsigned>::max());
        } else if (f.name == "base_cycles") {
            ok = decimal(7, r.baseCycles, u64);
        } else if (f.name == "base_insts") {
            ok = decimal(8, r.baseInsts, u64);
        } else if (f.name == "base_result") {
            ok = decimal(9, r.baseResult, u64);
        } else if (f.name == "treat_cycles") {
            ok = decimal(10, r.treatCycles, u64);
        } else if (f.name == "treat_insts") {
            ok = decimal(11, r.treatInsts, u64);
        } else if (f.name == "treat_result") {
            ok = decimal(12, r.treatResult, u64);
        } else if (f.name == "base_metric") {
            ok = hex(13, r.baseMetricBits);
        } else if (f.name == "treat_metric") {
            ok = hex(14, r.treatMetricBits);
        } else if (f.name == "speedup") {
            ok = hex(15, r.speedupBits);
        } else {
            continue;
        }
        if (!ok)
            return false;
    }
    if (seen != 0xffffu)
        return false;
    out = std::move(r);
    return true;
}

} // namespace

std::string
taskKey(const core::ExperimentSpec &e, const CampaignTask &task)
{
    requireStorableOrder(task.setup.linkOrder);
    std::ostringstream os;
    os << "wl=" << e.workload << ";scale=" << e.workloadConfig.scale
       << ";wseed=" << e.workloadConfig.seed << ";m=" << e.machine.name
       << ";tm=" << (e.treatmentMachine ? e.treatmentMachine->name : "-")
       << ";base=" << e.baseline.str() << ";treat=" << e.treatment.str()
       << ";metric=" << int(e.metric) << ";env=" << task.setup.envBytes
       << ";link=" << task.setup.linkOrder.str()
       << ";plan=" << int(task.plan.kind) << ";reps=" << task.plan.reps;
    // The task seed only influences the outcome when the plan draws
    // per-run randomness from it; keying it unconditionally would
    // needlessly split addresses of identical Single-mode tasks.
    // (Single/AslrRandomized keys are byte-stable across this rule's
    // extension to the newer seed-consuming kinds — existing stores
    // stay resumable.)
    if (task.plan.consumesSeed())
        os << ";tseed=" << task.taskSeed;
    if (task.plan.kind == RepetitionPlan::Kind::NoisePaired)
        os << ";toff=" << task.plan.treatSeedOffset;
    return hex16(fnv1a(os.str()));
}

TaskRecord
TaskRecord::make(std::string key, const CampaignTask &task,
                 const core::RunOutcome &outcome, double base_metric,
                 double treat_metric)
{
    requireStorableOrder(task.setup.linkOrder);
    TaskRecord r;
    r.key = std::move(key);
    r.taskIndex = task.index;
    r.envBytes = task.setup.envBytes;
    r.linkKind = int(task.setup.linkOrder.kind());
    r.linkSeed = task.setup.linkOrder.seed();
    r.planKind = int(task.plan.kind);
    r.reps = task.plan.reps;
    if (task.plan.kind == RepetitionPlan::Kind::Single) {
        r.baseCycles = outcome.baseline.cycles();
        r.baseInsts = outcome.baseline.instructions();
        r.baseResult = outcome.baseline.result;
        r.treatCycles = outcome.treatment.cycles();
        r.treatInsts = outcome.treatment.instructions();
        r.treatResult = outcome.treatment.result;
    }
    r.baseMetricBits = std::bit_cast<std::uint64_t>(base_metric);
    r.treatMetricBits = std::bit_cast<std::uint64_t>(treat_metric);
    r.speedupBits = std::bit_cast<std::uint64_t>(outcome.speedup);
    return r;
}

core::RunOutcome
TaskRecord::toOutcome() const
{
    core::RunOutcome o;
    o.setup.envBytes = envBytes;
    o.setup.linkOrder = orderFromKind(linkKind, linkSeed);
    o.baseline.halted = o.treatment.halted = true;
    o.baseline.result = baseResult;
    o.treatment.result = treatResult;
    o.baseline.counters.set(sim::Counter::Cycles, baseCycles);
    o.baseline.counters.set(sim::Counter::Instructions, baseInsts);
    o.treatment.counters.set(sim::Counter::Cycles, treatCycles);
    o.treatment.counters.set(sim::Counter::Instructions, treatInsts);
    o.speedup = std::bit_cast<double>(speedupBits);
    return o;
}

std::string
TaskRecord::toJson() const
{
    std::ostringstream os;
    os << "{\"key\":\"" << key << "\",\"task\":" << taskIndex
       << ",\"env\":" << envBytes << ",\"link_kind\":" << linkKind
       << ",\"link_seed\":" << linkSeed << ",\"plan\":" << planKind
       << ",\"reps\":" << reps << ",\"base_cycles\":" << baseCycles
       << ",\"base_insts\":" << baseInsts
       << ",\"base_result\":" << baseResult
       << ",\"treat_cycles\":" << treatCycles
       << ",\"treat_insts\":" << treatInsts
       << ",\"treat_result\":" << treatResult << ",\"base_metric\":\""
       << hex16(baseMetricBits) << "\",\"treat_metric\":\""
       << hex16(treatMetricBits) << "\",\"speedup\":\""
       << hex16(speedupBits) << "\"}";
    return os.str();
}

bool
TaskRecord::fromJson(const std::string &line, TaskRecord &out)
{
    const auto fields = JsonObject::parse(line);
    return fields && recordFromFields(*fields, out);
}

namespace
{

/** Store meta lines (header / metrics trailer) all share this prefix;
 *  they are intentionally unparseable as TaskRecords. */
constexpr const char *kMetaPrefix = "{\"mbias_";

bool
isMetaLine(const std::string &line)
{
    return line.rfind(kMetaPrefix, 0) == 0;
}

/** Counter @p name of a metrics trailer: the trailer's `snapshot` →
 *  `counters` → @p name, or 0 when any step is absent. */
std::uint64_t
trailerCounter(const std::string &trailer, std::string_view name)
{
    std::optional<JsonObject> obj = JsonObject::parse(trailer);
    for (const std::string_view step : {"snapshot", "counters"}) {
        const JsonValue *v = obj ? obj->find(step) : nullptr;
        obj = v ? v->object() : std::nullopt;
    }
    const JsonValue *v = obj ? obj->find(name) : nullptr;
    return v ? v->decimal().value_or(0) : 0;
}

/** One torn line: where it starts and what it looked like. */
struct TornLine
{
    std::uintmax_t offset = 0;
    const char *what = "";
};

/** Everything a store file holds, read by the one rule all readers
 *  share (see scanStore). */
struct StoreScan
{
    std::vector<TaskRecord> records; ///< in file order, duplicates kept
    std::string provenanceJson;      ///< the last header's; may be empty
    std::string metricsJson;         ///< the last metrics trailer line
    std::vector<TornLine> torn;
    /** Length of the file up to its last newline: what a writer keeps
     *  before appending, dropping an unterminated tail. */
    std::uintmax_t completeBytes = 0;
};

/**
 * The one line scanner behind ResultStore::load, summarizeStore and
 * readStoreColumns.  A line counts only if it ends in a newline and
 * parses through the one JSON reader (mbias::JsonObject), as a
 * TaskRecord or as a meta line.  Anything else is exactly one torn
 * line — including a final line that parses but lost its newline,
 * which a kill between the `}` and the `\n` leaves behind and the
 * next append truncates.
 */
StoreScan
scanStore(const std::string &path)
{
    StoreScan scan;
    JsonObject fields; // one buffer for every line
    std::ifstream in(path, std::ios::binary);
    std::string line;
    std::uintmax_t offset = 0;
    while (std::getline(in, line)) {
        const std::uintmax_t start = offset;
        // getline sets eof only when the line ran out before a newline.
        if (in.eof()) {
            scan.torn.push_back({start, "unterminated final line"});
            break;
        }
        offset += line.size() + 1;
        scan.completeBytes = offset;
        const bool parsed = fields.read(line);
        if (isMetaLine(line)) {
            if (!parsed) {
                scan.torn.push_back({start, "unparseable meta line"});
            } else if (fields.find("mbias_store")) {
                const JsonValue *prov = fields.find("provenance");
                scan.provenanceJson = prov ? prov->raw() : "";
            } else if (fields.find("mbias_metrics")) {
                scan.metricsJson = line;
            }
            continue;
        }
        TaskRecord rec;
        if (parsed && recordFromFields(fields, rec))
            scan.records.push_back(std::move(rec));
        else
            scan.torn.push_back({start, "unparseable record"});
    }
    return scan;
}

} // namespace

ResultStore::ResultStore(std::string path, obs::Registry *metrics)
    : path_(std::move(path))
{
    mbias_assert(!path_.empty(), "result store needs a path");
    if (metrics) {
        tornCounter_ = &metrics->counter("store.torn_lines");
        appendCounter_ = &metrics->counter("store.appends");
        loadedCounter_ = &metrics->counter("store.loaded");
    }
}

std::size_t
ResultStore::load()
{
    StoreScan scan = scanStore(path_);
    for (const TornLine &t : scan.torn)
        mbias_warn("result store ", path_, ": dropping ", t.what,
                   " at byte offset ", t.offset,
                   " (torn tail of a killed run, or corruption)");
    tornLines_ += scan.torn.size();
    if (tornCounter_)
        tornCounter_->add(scan.torn.size());
    headerJson_ = std::move(scan.provenanceJson);
    keepBytes_ = scan.completeBytes;
    const std::size_t read = scan.records.size();
    for (TaskRecord &rec : scan.records)
        byKey_[rec.key] = std::move(rec);
    if (loadedCounter_)
        loadedCounter_->add(read);
    return read;
}

void
ResultStore::reset()
{
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    byKey_.clear();
    headerJson_.clear();
    keepBytes_ = 0;
}

std::ofstream
ResultStore::openForAppend()
{
    mbias_assert(keepBytes_, "result store ", path_,
                 ": load() or reset() it before writing");
    const auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    // A killed run can leave an unterminated line at the end of the
    // file.  load() already counted it as torn; before the first
    // write, truncate it away so every line starts on its own and the
    // healed file is pure JSONL again.
    if (!tailChecked_) {
        tailChecked_ = true;
        std::error_code ec;
        const auto size = std::filesystem::file_size(path_, ec);
        if (!ec && size > *keepBytes_) {
            std::filesystem::resize_file(path_, *keepBytes_, ec);
            mbias_assert(!ec, "cannot drop torn tail of ", path_);
        }
    }
    std::ofstream out(path_, std::ios::app);
    mbias_assert(out.good(), "cannot append to result store ", path_);
    return out;
}

void
ResultStore::writeHeader(const obs::Provenance &prov)
{
    std::lock_guard<std::mutex> lock(mutex_);
    mbias_assert(headerJson_.empty(),
                 "store ", path_, " already has a provenance header");
    std::ofstream out = openForAppend();
    headerJson_ = prov.toJson();
    out << "{\"mbias_store\":1,\"provenance\":" << headerJson_
        << "}\n";
    out.flush();
    mbias_assert(out.good(), "store header write failed: ", path_);
}

void
ResultStore::appendMetrics(const obs::MetricsSnapshot &snap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out = openForAppend();
    out << "{\"mbias_metrics\":1,\"snapshot\":" << snap.toJson()
        << "}\n";
    out.flush();
    mbias_assert(out.good(), "metrics append failed: ", path_);
}

bool
ResultStore::headerProvenance(obs::Provenance &out) const
{
    return !headerJson_.empty() &&
           obs::Provenance::fromJson(headerJson_, out);
}

const TaskRecord *
ResultStore::find(const std::string &key) const
{
    auto it = byKey_.find(key);
    return it == byKey_.end() ? nullptr : &it->second;
}

void
ResultStore::append(const TaskRecord &rec)
{
    obs::ScopedSpan span("campaign.store_append", "campaign");
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out = openForAppend();
    out << rec.toJson() << "\n";
    out.flush();
    mbias_assert(out.good(), "write to result store failed: ", path_);
    if (appendCounter_)
        appendCounter_->add();
}

StoreSummary
summarizeStore(const std::string &path)
{
    StoreScan scan = scanStore(path);
    StoreSummary s;
    s.path = path;
    s.provenanceJson = std::move(scan.provenanceJson);
    s.metricsJson = std::move(scan.metricsJson);
    s.records = scan.records.size();
    s.tornLines = scan.torn.size();
    return s;
}

std::string
StoreSummary::str() const
{
    std::ostringstream os;
    os << "store           : " << path << "\n"
       << "records         : " << records << "\n";
    if (tornLines)
        os << "torn lines      : " << tornLines << "  <-- corrupted "
           << "or killed mid-append\n";
    obs::Provenance prov;
    if (!provenanceJson.empty() &&
        obs::Provenance::fromJson(provenanceJson, prov))
        os << "provenance:\n" << prov.str();
    else
        os << "provenance      : (none recorded — store predates the "
           << "obs layer?)\n";
    if (!metricsJson.empty()) {
        // Lanes per unit the engine scheduled: how many stack-only
        // variants of a program shared one unit of work.
        const std::uint64_t units =
            trailerCounter(metricsJson, "engine.lane_units");
        if (units) {
            const std::uint64_t lanes =
                trailerCounter(metricsJson, "engine.lanes");
            os << "engine lanes    : " << lanes << " lanes in " << units
               << " units, mean lane width "
               << double(lanes) / double(units) << "\n";
        }
        // Replayed repetitions per walk of a recorded stream: how wide
        // the replay tier's lane passes ran.
        const std::uint64_t passes =
            trailerCounter(metricsJson, "sim.replay.lane_passes");
        if (passes) {
            const std::uint64_t replays =
                trailerCounter(metricsJson, "sim.replay.replays");
            os << "replay lanes    : " << replays << " replays in " << passes
               << " passes, mean lane width "
               << double(replays) / double(passes) << "\n";
        }
        // How much of the lane passes' memory-model work the lanes
        // shared: the rest ran on a lane's own copy.
        const std::uint64_t accesses =
            trailerCounter(metricsJson, "sim.replay.lane_accesses");
        if (accesses) {
            const std::uint64_t diverged =
                trailerCounter(metricsJson, "sim.replay.diverged_accesses");
            char share[32];
            std::snprintf(share, sizeof share, "%.2f",
                          100.0 * double(diverged) / double(accesses));
            // DTLB and store-buffer outcomes a stack delta changed:
            // decided once per delta class instead of once per pass.
            const std::uint64_t decisions =
                trailerCounter(metricsJson, "sim.replay.class_decisions");
            // Link orders timed by a recording of their module set, and
            // lanes at other link orders that a recording refused.
            const std::uint64_t codes =
                trailerCounter(metricsJson, "sim.replay.code_classes");
            const std::uint64_t refused =
                trailerCounter(metricsJson, "sim.replay.layout_fallbacks");
            os << "replay sharing  : " << diverged << " of " << accesses
               << " lane memory accesses ran on a lane's own copy ("
               << share << "%); " << decisions
               << " DTLB/store-buffer outcomes decided per delta class; "
               << codes << " code classes timed, " << refused
               << " lanes refused for their layout\n";
        }
        os << "metrics (final snapshot of the writing run):\n"
           << obs::prettyJson(metricsJson) << "\n";
    }
    else
        os << "metrics         : (no snapshot trailer — campaign "
           << "still running, or killed)\n";
    return os.str();
}

StoreColumns
readStoreColumns(const std::string &path, obs::Registry *metrics)
{
    obs::ScopedSpan span("campaign.store_read", "campaign");
    StoreScan scan = scanStore(path);
    StoreColumns cols;
    cols.tornLines = scan.torn.size();
    cols.provenanceJson = std::move(scan.provenanceJson);

    // Dedup by content address with last-record-wins, matching what a
    // resumed ResultStore::load would serve, then order rows by task
    // index so the columns are independent of the append order
    // (resumed and work-stolen campaigns interleave).
    const std::vector<TaskRecord> &records = scan.records;
    std::unordered_map<std::string_view, std::size_t> lastOf;
    for (std::size_t i = 0; i < records.size(); ++i)
        lastOf[records[i].key] = i;
    std::vector<std::size_t> order;
    order.reserve(lastOf.size());
    for (const auto &[key, i] : lastOf)
        order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (records[a].taskIndex != records[b].taskIndex)
                      return records[a].taskIndex < records[b].taskIndex;
                  return records[a].key < records[b].key;
              });

    cols.taskIndex.reserve(order.size());
    cols.envBytes.reserve(order.size());
    cols.baseMetric.reserve(order.size());
    cols.treatMetric.reserve(order.size());
    cols.speedup.reserve(order.size());
    for (std::size_t i : order) {
        const TaskRecord &r = records[i];
        cols.taskIndex.push_back(r.taskIndex);
        cols.envBytes.push_back(r.envBytes);
        cols.baseMetric.push_back(
            std::bit_cast<double>(r.baseMetricBits));
        cols.treatMetric.push_back(
            std::bit_cast<double>(r.treatMetricBits));
        cols.speedup.push_back(std::bit_cast<double>(r.speedupBits));
    }
    if (metrics) {
        metrics->counter("store.loaded").add(cols.rows());
        metrics->counter("store.torn_lines").add(cols.tornLines);
    }
    return cols;
}

} // namespace mbias::campaign
