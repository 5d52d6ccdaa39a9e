#include "campaign/store.hh"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string_view>

#include "base/hash.hh"
#include "base/logging.hh"

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

/** Parses an unsigned integer token in @p base; the whole token must
 *  be consumed. */
bool
parseU64(std::string_view tok, std::uint64_t &out, int base)
{
    if (tok.empty())
        return false;
    const char *first = tok.data();
    const char *last = tok.data() + tok.size();
    const auto res = std::from_chars(first, last, out, base);
    return res.ec == std::errc() && res.ptr == last;
}

/**
 * Single-pass record parser.  Records keep the invariants that always
 * made plain scanning exact — each line is one *flat* JSON object (no
 * nesting), field names never occur as substrings of values, and
 * values contain no escapes — but where the old reader rescanned the
 * whole line once per field (sixteen passes of string::find), this
 * walks the line left to right exactly once and dispatches each
 * `"name":value` pair as it is encountered.  Field order is not
 * assumed, unknown names are skipped (forward compatibility), and a
 * record is valid only when every known field was seen.
 */
bool
parseRecord(const std::string &line, TaskRecord &out)
{
    // A record is only valid if the line is complete — a run killed
    // mid-append leaves a truncated last line with no closing brace.
    if (line.size() < 2 || line.front() != '{' || line.back() != '}')
        return false;
    TaskRecord r;
    unsigned seen = 0;
    const char *p = line.data() + 1;
    const char *end = line.data() + line.size() - 1; // the final '}'
    while (p < end) {
        if (*p == ',') {
            ++p;
            continue;
        }
        if (*p != '"')
            return false;
        const char *nameBeg = ++p;
        while (p < end && *p != '"')
            ++p;
        if (p >= end)
            return false;
        const std::string_view name(nameBeg, std::size_t(p - nameBeg));
        if (++p >= end || *p != ':')
            return false;
        ++p;
        std::string_view value;
        bool quoted = false;
        if (p < end && *p == '"') {
            quoted = true;
            const char *valBeg = ++p;
            while (p < end && *p != '"')
                ++p;
            if (p >= end)
                return false;
            value = std::string_view(valBeg, std::size_t(p - valBeg));
            ++p;
        } else {
            const char *valBeg = p;
            while (p < end && *p != ',')
                ++p;
            value = std::string_view(valBeg, std::size_t(p - valBeg));
        }

        bool ok = true;
        std::uint64_t v = 0;
        if (name == "key") {
            ok = quoted && value.size() == 16;
            r.key.assign(value);
            seen |= 1u << 0;
        } else if (name == "task") {
            ok = parseU64(value, r.taskIndex, 10);
            seen |= 1u << 1;
        } else if (name == "env") {
            ok = parseU64(value, r.envBytes, 10);
            seen |= 1u << 2;
        } else if (name == "link_kind") {
            ok = parseU64(value, v, 10);
            r.linkKind = int(v);
            seen |= 1u << 3;
        } else if (name == "link_seed") {
            ok = parseU64(value, r.linkSeed, 10);
            seen |= 1u << 4;
        } else if (name == "plan") {
            ok = parseU64(value, v, 10);
            r.planKind = int(v);
            seen |= 1u << 5;
        } else if (name == "reps") {
            ok = parseU64(value, v, 10);
            r.reps = unsigned(v);
            seen |= 1u << 6;
        } else if (name == "base_cycles") {
            ok = parseU64(value, r.baseCycles, 10);
            seen |= 1u << 7;
        } else if (name == "base_insts") {
            ok = parseU64(value, r.baseInsts, 10);
            seen |= 1u << 8;
        } else if (name == "base_result") {
            ok = parseU64(value, r.baseResult, 10);
            seen |= 1u << 9;
        } else if (name == "treat_cycles") {
            ok = parseU64(value, r.treatCycles, 10);
            seen |= 1u << 10;
        } else if (name == "treat_insts") {
            ok = parseU64(value, r.treatInsts, 10);
            seen |= 1u << 11;
        } else if (name == "treat_result") {
            ok = parseU64(value, r.treatResult, 10);
            seen |= 1u << 12;
        } else if (name == "base_metric") {
            ok = parseU64(value, r.baseMetricBits, 16);
            seen |= 1u << 13;
        } else if (name == "treat_metric") {
            ok = parseU64(value, r.treatMetricBits, 16);
            seen |= 1u << 14;
        } else if (name == "speedup") {
            ok = parseU64(value, r.speedupBits, 16);
            seen |= 1u << 15;
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
    return parseRecord(line, out);
}

namespace
{

/** Store meta lines (header / metrics trailer) all share this prefix;
 *  they are intentionally unparseable as TaskRecords. */
constexpr const char *kMetaPrefix = "{\"mbias_";
constexpr const char *kHeaderTag = "\"mbias_store\"";
constexpr const char *kMetricsTag = "\"mbias_metrics\"";

bool
isMetaLine(const std::string &line)
{
    return line.rfind(kMetaPrefix, 0) == 0;
}

/** The value of counter @p name in a metrics snapshot line, or 0 when
 *  absent (counter names are unique and never occur inside values). */
std::uint64_t
snapshotCounter(const std::string &json, const std::string &name)
{
    const std::string needle = '"' + name + "\":";
    const auto at = json.find(needle);
    if (at == std::string::npos)
        return 0;
    const auto from = at + needle.size();
    const auto to = json.find_first_not_of("0123456789", from);
    std::uint64_t v = 0;
    return parseU64(std::string_view(json).substr(from, to - from), v, 10)
               ? v
               : 0;
}

/** Extracts the raw `{...}` after `"provenance":` in a header line;
 *  empty when absent. */
std::string
provenanceOfHeader(const std::string &line)
{
    const std::string needle = "\"provenance\":";
    const auto at = line.find(needle);
    if (at == std::string::npos || line.back() != '}')
        return "";
    // The provenance object runs to the header's final closing brace.
    return line.substr(at + needle.size(),
                       line.size() - 1 - (at + needle.size()));
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

void
ResultStore::countTorn(std::uintmax_t byte_offset, const char *what)
{
    ++tornLines_;
    if (tornCounter_)
        tornCounter_->add();
    mbias_warn("result store ", path_, ": dropping ", what,
               " at byte offset ", byte_offset,
               " (torn tail of a killed run, or corruption)");
}

std::size_t
ResultStore::load()
{
    std::ifstream in(path_);
    if (!in)
        return 0;
    std::size_t read = 0;
    std::string line;
    std::uintmax_t offset = 0;
    while (std::getline(in, line)) {
        const std::uintmax_t lineStart = offset;
        offset += line.size() + 1; // +1: the newline getline consumed
        if (isMetaLine(line)) {
            if (line.back() != '}') { // killed while writing the line
                countTorn(lineStart, "truncated meta line");
                continue;
            }
            if (line.find(kHeaderTag) != std::string::npos)
                headerJson_ = provenanceOfHeader(line);
            continue; // metrics trailers are for obs-summary, not load
        }
        TaskRecord rec;
        if (!TaskRecord::fromJson(line, rec)) {
            countTorn(lineStart, "unparseable record");
            continue;
        }
        byKey_[rec.key] = std::move(rec);
        ++read;
    }
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
}

void
ResultStore::writeHeader(const obs::Provenance &prov)
{
    std::lock_guard<std::mutex> lock(mutex_);
    mbias_assert(headerJson_.empty(),
                 "store ", path_, " already has a provenance header");
    headerJson_ = prov.toJson();
    const auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    std::ofstream out(path_, std::ios::app);
    mbias_assert(out.good(), "cannot write store header: ", path_);
    out << "{\"mbias_store\":1,\"provenance\":" << headerJson_
        << "}\n";
    out.flush();
    mbias_assert(out.good(), "store header write failed: ", path_);
}

void
ResultStore::appendMetrics(const obs::MetricsSnapshot &snap)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path_, std::ios::app);
    mbias_assert(out.good(), "cannot append to result store ", path_);
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
    std::lock_guard<std::mutex> lock(mutex_);
    const auto parent = std::filesystem::path(path_).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    // A killed run can leave a torn partial line at the end of the
    // file; before the first append, truncate back to the last
    // complete record so the new record starts on its own line and
    // the healed file is pure JSONL again.
    if (!tailChecked_) {
        tailChecked_ = true;
        std::uintmax_t keep = 0;
        bool torn = false;
        {
            std::ifstream in(path_, std::ios::binary);
            char c;
            std::uintmax_t pos = 0;
            while (in && in.get(c)) {
                ++pos;
                if (c == '\n')
                    keep = pos;
            }
            torn = in.eof() && pos > keep;
        }
        if (torn) {
            countTorn(keep, "torn trailing line (healing file)");
            std::error_code ec;
            std::filesystem::resize_file(path_, keep, ec);
            mbias_assert(!ec, "cannot drop torn tail of ", path_);
        }
    }
    std::ofstream out(path_, std::ios::app);
    mbias_assert(out.good(), "cannot append to result store ", path_);
    out << rec.toJson() << "\n";
    out.flush();
    mbias_assert(out.good(), "write to result store failed: ", path_);
    if (appendCounter_)
        appendCounter_->add();
}

StoreSummary
summarizeStore(const std::string &path)
{
    StoreSummary s;
    s.path = path;
    std::ifstream in(path);
    if (!in)
        return s;
    std::string line;
    bool sawNewlineEnd = true;
    while (std::getline(in, line)) {
        sawNewlineEnd = !in.eof();
        if (isMetaLine(line)) {
            if (line.back() != '}') {
                ++s.tornLines;
                continue;
            }
            if (line.find(kHeaderTag) != std::string::npos)
                s.provenanceJson = provenanceOfHeader(line);
            else if (line.find(kMetricsTag) != std::string::npos)
                s.metricsJson = line;
            continue;
        }
        TaskRecord rec;
        if (TaskRecord::fromJson(line, rec))
            ++s.records;
        else
            ++s.tornLines;
    }
    // A file that does not end in a newline has a torn final line
    // even if the prefix happened to parse.
    if (!sawNewlineEnd && s.tornLines == 0)
        ++s.tornLines;
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
            snapshotCounter(metricsJson, "engine.lane_units");
        if (units) {
            const std::uint64_t lanes =
                snapshotCounter(metricsJson, "engine.lanes");
            os << "engine lanes    : " << lanes << " lanes in " << units
               << " units, mean lane width "
               << double(lanes) / double(units) << "\n";
        }
        // Replayed repetitions per walk of a recorded stream: how wide
        // the replay tier's lane passes ran.
        const std::uint64_t passes =
            snapshotCounter(metricsJson, "sim.replay.lane_passes");
        if (passes) {
            const std::uint64_t replays =
                snapshotCounter(metricsJson, "sim.replay.replays");
            os << "replay lanes    : " << replays << " replays in " << passes
               << " passes, mean lane width "
               << double(replays) / double(passes) << "\n";
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
    StoreColumns cols;
    obs::Counter *torn = nullptr;
    obs::Counter *loaded = nullptr;
    if (metrics) {
        torn = &metrics->counter("store.torn_lines");
        loaded = &metrics->counter("store.loaded");
    }

    // Pass 1 (the only file pass): parse every line once, dedup by
    // content address with last-record-wins, matching what a resumed
    // ResultStore::load would serve.
    std::vector<TaskRecord> records;
    std::unordered_map<std::string, std::size_t> slotByKey;
    {
        std::ifstream in(path);
        if (!in)
            return cols;
        std::string line;
        while (std::getline(in, line)) {
            if (isMetaLine(line)) {
                if (line.back() != '}') {
                    ++cols.tornLines;
                    continue;
                }
                if (line.find(kHeaderTag) != std::string::npos)
                    cols.provenanceJson = provenanceOfHeader(line);
                continue;
            }
            TaskRecord rec;
            if (!TaskRecord::fromJson(line, rec)) {
                ++cols.tornLines;
                continue;
            }
            const auto [it, fresh] =
                slotByKey.try_emplace(rec.key, records.size());
            if (fresh)
                records.push_back(std::move(rec));
            else
                records[it->second] = std::move(rec);
        }
    }

    // Order rows by task index so the columns are independent of the
    // append order (resumed and work-stolen campaigns interleave).
    std::vector<std::size_t> order(records.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (records[a].taskIndex != records[b].taskIndex)
                      return records[a].taskIndex < records[b].taskIndex;
                  return records[a].key < records[b].key;
              });

    cols.taskIndex.reserve(records.size());
    cols.envBytes.reserve(records.size());
    cols.baseMetric.reserve(records.size());
    cols.treatMetric.reserve(records.size());
    cols.speedup.reserve(records.size());
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
    if (loaded)
        loaded->add(cols.rows());
    if (torn && cols.tornLines)
        torn->add(cols.tornLines);
    return cols;
}

} // namespace mbias::campaign
