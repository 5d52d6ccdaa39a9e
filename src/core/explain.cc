#include "core/explain.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string_view>

#include "base/json.hh"
#include "base/logging.hh"
#include "base/parse.hh"
#include "core/runner.hh"
#include "obs/heatmap.hh"
#include "obs/trace.hh"
#include "sim/counters.hh"

namespace mbias::core
{

namespace
{

std::int64_t
counterDelta(const ExplainReport &r, sim::Counter c)
{
    return std::int64_t(r.resultB.counters.get(c)) -
           std::int64_t(r.resultA.counters.get(c));
}

/** Per-set miss deltas (B - A) of one structure, as doubles for the
 *  heatmap renderer. */
std::vector<double>
missDelta(const sim::SetCounters &a, const sim::SetCounters &b)
{
    std::vector<double> out(b.misses.size(), 0.0);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = double(b.misses[i]) -
                 double(i < a.misses.size() ? a.misses[i] : 0);
    return out;
}

std::vector<double>
aliasDelta(const sim::TableCounters &a, const sim::TableCounters &b)
{
    std::vector<double> out(b.aliasSwitches.size(), 0.0);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = double(b.aliasSwitches[i]) -
                 double(i < a.aliasSwitches.size() ? a.aliasSwitches[i]
                                                   : 0);
    return out;
}

/** Index with the largest |delta| (lowest index wins ties). */
std::size_t
hottestIndex(const std::vector<double> &delta)
{
    std::size_t best = 0;
    double best_mag = -1.0;
    for (std::size_t i = 0; i < delta.size(); ++i) {
        if (std::fabs(delta[i]) > best_mag) {
            best_mag = std::fabs(delta[i]);
            best = i;
        }
    }
    return best;
}

std::string
setEvidence(const char *what, const sim::SetCounters &a,
            const sim::SetCounters &b)
{
    const auto delta = missDelta(a, b);
    if (delta.empty())
        return "(no sets)";
    const std::size_t hot = hottestIndex(delta);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s %zu: %+lld misses (A %llu, B %llu)",
                  what, hot, (long long)delta[hot],
                  (unsigned long long)(hot < a.misses.size()
                                           ? a.misses[hot]
                                           : 0),
                  (unsigned long long)b.misses[hot]);
    return buf;
}

std::string
entryEvidence(const char *what, const sim::TableCounters &a,
              const sim::TableCounters &b)
{
    const auto delta = aliasDelta(a, b);
    if (delta.empty())
        return "(no entries)";
    const std::size_t hot = hottestIndex(delta);
    char buf[192];
    int n = std::snprintf(buf, sizeof buf,
                          "%s %zu: %+lld alias switches, pcs", what, hot,
                          (long long)delta[hot]);
    const unsigned pcs = b.distinctPcs(hot);
    for (unsigned i = 0; i < pcs && n > 0 && std::size_t(n) < sizeof buf;
         ++i)
        n += std::snprintf(buf + n, sizeof buf - n, " 0x%llx",
                           (unsigned long long)
                               b.pcs[hot * sim::TableCounters::kPcsPerEntry +
                                     i]);
    if (pcs == 0 && n > 0 && std::size_t(n) < sizeof buf)
        std::snprintf(buf + n, sizeof buf - n, " (none recorded)");
    return buf;
}

/** Evidence from the function diff: the row with the largest |delta|
 *  of @p field. */
std::string
functionEvidence(const std::vector<FunctionDelta> &functions,
                 std::int64_t FunctionDelta::*field, const char *what)
{
    const FunctionDelta *best = nullptr;
    std::int64_t best_mag = 0;
    for (const auto &f : functions) {
        const std::int64_t mag = std::llabs(f.*field);
        if (mag > best_mag) {
            best_mag = mag;
            best = &f;
        }
    }
    if (!best)
        return "(no function moved)";
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: %+lld %s", best->name.c_str(),
                  (long long)(best->*field), what);
    return buf;
}

void
appendDeltaArray(std::string &os, const char *key,
                 const std::vector<double> &delta)
{
    os += '"';
    os += key;
    os += "\":[";
    char num[32];
    for (std::size_t i = 0; i < delta.size(); ++i) {
        std::snprintf(num, sizeof num, "%s%lld", i ? "," : "",
                      (long long)delta[i]);
        os += num;
    }
    os += ']';
}

} // namespace

bool
parseSetupSpec(const std::string &text, ExperimentSetup &out,
               std::string &error)
{
    out = ExperimentSetup{};
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        const std::string part = text.substr(pos, end - pos);
        pos = end + 1;
        if (part.empty())
            continue;
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos) {
            error = "setup spec part '" + part + "' is not key=value";
            return false;
        }
        const std::string key = part.substr(0, eq);
        const std::string val = part.substr(eq + 1);
        if (key == "env") {
            const auto env =
                parseDecimal(val, ExperimentSetup::kMaxEnvBytes);
            if (!env) {
                error = "bad env size '" + val + "' (want 0.." +
                        std::to_string(ExperimentSetup::kMaxEnvBytes) +
                        ")";
                return false;
            }
            out.envBytes = *env;
        } else if (key == "link") {
            if (val == "given") {
                out.linkOrder = toolchain::LinkOrder::asGiven();
            } else if (val == "alpha") {
                out.linkOrder = toolchain::LinkOrder::alphabetical();
            } else if (val.rfind("seed:", 0) == 0) {
                const auto seed =
                    parseDecimal(std::string_view(val).substr(5));
                if (!seed) {
                    error = "bad link seed '" + val + "'";
                    return false;
                }
                out.linkOrder = toolchain::LinkOrder::shuffled(*seed);
            } else {
                error = "bad link spec '" + val +
                        "' (want given|alpha|seed:N)";
                return false;
            }
        } else {
            error = "unknown setup key '" + key + "' (want env|link)";
            return false;
        }
    }
    return true;
}

ExplainReport
explainSetupPair(const ExperimentSpec &spec, const ExperimentSetup &a,
                 const ExperimentSetup &b)
{
    obs::ScopedSpan span("core.explain", "core");

    ExplainReport r;
    r.workload = spec.workload;
    r.toolchain = spec.baseline.str();
    r.machineName = spec.machine.name;
    r.setupA = a;
    r.setupB = b;

    ExperimentRunner runner(spec);
    r.resultA =
        runner.runSide(spec.baseline, a, false, &r.profileA, &r.attrA);
    r.resultB =
        runner.runSide(spec.baseline, b, false, &r.profileB, &r.attrB);

    // ProfileDiff: match functions by name (link order permutes the
    // profile's function order between the two runs).
    std::map<std::string, const sim::FunctionProfile *> byName;
    for (const auto &f : r.profileA.functions)
        byName[f.name] = &f;
    for (const auto &fb : r.profileB.functions) {
        const auto it = byName.find(fb.name);
        if (it == byName.end())
            continue;
        const sim::FunctionProfile &fa = *it->second;
        FunctionDelta d;
        d.name = fb.name;
        d.cyclesA = fa.cycles;
        d.cyclesB = fb.cycles;
        d.delta = std::int64_t(fb.cycles) - std::int64_t(fa.cycles);
        const auto df = [](std::uint64_t bb, std::uint64_t aa) {
            return std::int64_t(bb) - std::int64_t(aa);
        };
        d.icacheMisses = df(fb.icacheMisses, fa.icacheMisses);
        d.dcacheMisses = df(fb.dcacheMisses, fa.dcacheMisses);
        d.branchMispredicts =
            df(fb.branchMispredicts, fa.branchMispredicts);
        d.btbMisses = df(fb.btbMisses, fa.btbMisses);
        d.lineSplits = df(fb.lineSplits, fa.lineSplits);
        d.aliasStalls = df(fb.aliasStalls, fa.aliasStalls);
        d.stallCycles = df(fb.stallCycles, fa.stallCycles);
        d.fetchGroups = df(fb.fetchGroups, fa.fetchGroups);
        r.functions.push_back(std::move(d));
    }
    std::sort(r.functions.begin(), r.functions.end(),
              [](const FunctionDelta &x, const FunctionDelta &y) {
                  if (std::llabs(x.delta) != std::llabs(y.delta))
                      return std::llabs(x.delta) > std::llabs(y.delta);
                  return x.name < y.name;
              });

    // Mechanism ranking: each event class's count delta weighted by
    // its configured penalty.  Fetch-side penalties hit the clock
    // directly; data-side latencies can be partially hidden by the
    // OoO window, so their weighted cycles are an upper bound — the
    // ranking is a where-to-look order, not an exact decomposition.
    const sim::MachineConfig &mc = spec.machine;
    using C = sim::Counter;
    const struct
    {
        const char *key;
        const char *name;
        C counter;
        std::uint64_t penalty;
        std::string evidence;
    } defs[] = {
        {"icache_set_conflict", "icache-set conflict", C::IcacheMisses,
         mc.icache.missPenalty, setEvidence("set", r.attrA.icache,
                                            r.attrB.icache)},
        // Every fetch group is one front-end cycle: code placement
        // that straddles more fetch blocks costs exactly its delta.
        {"fetch_alignment", "fetch-block alignment", C::FetchGroups, 1,
         functionEvidence(r.functions, &FunctionDelta::fetchGroups,
                          "fetch groups")},
        {"dcache_set_conflict", "dcache-set conflict", C::DcacheMisses,
         mc.dcache.missPenalty, setEvidence("set", r.attrA.dcache,
                                            r.attrB.dcache)},
        {"l2_conflict", "L2 conflict", C::L2Misses, mc.l2.missPenalty,
         functionEvidence(r.functions, &FunctionDelta::dcacheMisses,
                          "d$ misses")},
        {"itlb_pressure", "ITLB pressure", C::ItlbMisses,
         mc.itlb.missPenalty, setEvidence("bucket", r.attrA.itlb,
                                          r.attrB.itlb)},
        {"dtlb_pressure", "DTLB pressure", C::DtlbMisses,
         mc.dtlb.missPenalty, setEvidence("bucket", r.attrA.dtlb,
                                          r.attrB.dtlb)},
        {"pht_aliasing", "branch-predictor aliasing",
         C::BranchMispredicts, mc.branchMispredictPenalty,
         entryEvidence("entry", r.attrA.pht, r.attrB.pht)},
        {"btb_aliasing", "BTB aliasing", C::BtbMisses, mc.btbMissPenalty,
         entryEvidence("set", r.attrA.btb, r.attrB.btb)},
        {"stack_align_line_splits", "stack-alignment line splits",
         C::LineSplits, mc.lineSplitPenalty,
         functionEvidence(r.functions, &FunctionDelta::lineSplits,
                          "line splits")},
        {"store_load_aliasing", "store-load (4K) aliasing",
         C::AliasStalls, mc.aliasPenalty,
         functionEvidence(r.functions, &FunctionDelta::aliasStalls,
                          "alias stalls")},
    };
    double total_weight = 0.0;
    for (const auto &def : defs) {
        MechanismContribution m;
        m.key = def.key;
        m.name = def.name;
        m.eventDelta = counterDelta(r, def.counter);
        m.weightedCycles = m.eventDelta * std::int64_t(def.penalty);
        m.evidence = def.evidence;
        total_weight += double(std::llabs(m.weightedCycles));
        r.mechanisms.push_back(std::move(m));
    }
    for (auto &m : r.mechanisms)
        m.share = total_weight > 0.0
                      ? double(std::llabs(m.weightedCycles)) / total_weight
                      : 0.0;
    std::sort(r.mechanisms.begin(), r.mechanisms.end(),
              [](const MechanismContribution &x,
                 const MechanismContribution &y) {
                  if (std::llabs(x.weightedCycles) !=
                      std::llabs(y.weightedCycles))
                      return std::llabs(x.weightedCycles) >
                             std::llabs(y.weightedCycles);
                  return x.key < y.key;
              });
    return r;
}

std::string
ExplainReport::dominantMechanism() const
{
    if (mechanisms.empty() || mechanisms.front().weightedCycles == 0)
        return "none";
    return mechanisms.front().name;
}

std::string
ExplainReport::str(unsigned top_functions) const
{
    char line[256];
    std::string os;
    std::snprintf(line, sizeof line,
                  "mbias explain (schema v%d)\n", kSchemaVersion);
    os += line;
    std::snprintf(line, sizeof line, "  workload : %s (%s on %s)\n",
                  workload.c_str(), toolchain.c_str(),
                  machineName.c_str());
    os += line;
    std::snprintf(line, sizeof line, "  setup A  : %s\n",
                  setupA.str().c_str());
    os += line;
    std::snprintf(line, sizeof line, "  setup B  : %s\n",
                  setupB.str().c_str());
    os += line;
    const double pct =
        resultA.cycles()
            ? 100.0 * double(cycleDelta()) / double(resultA.cycles())
            : 0.0;
    std::snprintf(line, sizeof line,
                  "  cycles   : A=%llu  B=%llu  delta=%+lld (%+.3f%%)\n",
                  (unsigned long long)resultA.cycles(),
                  (unsigned long long)resultB.cycles(),
                  (long long)cycleDelta(), pct);
    os += line;

    os += "\nmechanisms ranked by |event delta x penalty|:\n";
    std::snprintf(line, sizeof line, "  %4s  %-28s %10s %12s %6s\n",
                  "rank", "mechanism", "events-d", "cycles-d", "share");
    os += line;
    unsigned rank = 0;
    for (const auto &m : mechanisms) {
        ++rank;
        std::snprintf(line, sizeof line,
                      "  %4u  %-28s %+10lld %+12lld %5.1f%%\n", rank,
                      m.name.c_str(), (long long)m.eventDelta,
                      (long long)m.weightedCycles, 100.0 * m.share);
        os += line;
        std::snprintf(line, sizeof line, "        `- %s\n",
                      m.evidence.c_str());
        os += line;
    }
    std::snprintf(line, sizeof line, "  dominant mechanism: %s\n",
                  dominantMechanism().c_str());
    os += line;

    std::snprintf(line, sizeof line,
                  "\nfunctions ranked by |cycle delta| (top %u):\n",
                  top_functions);
    os += line;
    std::snprintf(line, sizeof line,
                  "  %-16s %12s %12s %10s %7s %7s %7s %7s %8s\n",
                  "function", "cycles-A", "cycles-B", "delta", "i$-d",
                  "d$-d", "misp-d", "split-d", "fetch-d");
    os += line;
    unsigned shown = 0;
    for (const auto &f : functions) {
        if (shown++ >= top_functions)
            break;
        std::snprintf(line, sizeof line,
                      "  %-16s %12llu %12llu %+10lld %+7lld %+7lld "
                      "%+7lld %+7lld %+8lld\n",
                      f.name.c_str(), (unsigned long long)f.cyclesA,
                      (unsigned long long)f.cyclesB, (long long)f.delta,
                      (long long)f.icacheMisses, (long long)f.dcacheMisses,
                      (long long)f.branchMispredicts,
                      (long long)f.lineSplits, (long long)f.fetchGroups);
        os += line;
    }
    return os;
}

std::string
ExplainReport::heatmaps() const
{
    std::string os = "attribution delta heatmaps (B - A):\n";
    os += obs::asciiHeatmapSigned("icache miss delta per set",
                                  missDelta(attrA.icache, attrB.icache));
    os += obs::asciiHeatmapSigned("dcache miss delta per set",
                                  missDelta(attrA.dcache, attrB.dcache));
    os += obs::asciiHeatmapSigned("itlb miss delta per VPN bucket",
                                  missDelta(attrA.itlb, attrB.itlb));
    os += obs::asciiHeatmapSigned("dtlb miss delta per VPN bucket",
                                  missDelta(attrA.dtlb, attrB.dtlb));
    os += obs::asciiHeatmapSigned("btb alias-switch delta per set",
                                  aliasDelta(attrA.btb, attrB.btb));

    os += "top aliased PHT entries (by |alias-switch delta|):\n";
    const auto delta = aliasDelta(attrA.pht, attrB.pht);
    std::vector<std::size_t> order(delta.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) {
                  if (std::fabs(delta[x]) != std::fabs(delta[y]))
                      return std::fabs(delta[x]) > std::fabs(delta[y]);
                  return x < y;
              });
    char line[192];
    unsigned shown = 0;
    for (std::size_t idx : order) {
        if (delta[idx] == 0.0 || shown >= 5)
            break;
        ++shown;
        int n = std::snprintf(line, sizeof line,
                              "  entry %4zu: %+6lld switches, pcs", idx,
                              (long long)delta[idx]);
        for (unsigned i = 0; i < attrB.pht.distinctPcs(idx) && n > 0 &&
                             std::size_t(n) < sizeof line;
             ++i)
            n += std::snprintf(
                line + n, sizeof line - n, " 0x%llx",
                (unsigned long long)
                    attrB.pht.pcs[idx * sim::TableCounters::kPcsPerEntry +
                                  i]);
        os += line;
        os += "\n";
    }
    if (shown == 0)
        os += "  (no PHT entry moved)\n";
    return os;
}

std::string
ExplainReport::toJson() const
{
    char num[192];
    std::string os = "{\"mbias_explain\":";
    os += std::to_string(kSchemaVersion);
    os += ",\"workload\":\"" + jsonEscape(workload) + "\"";
    os += ",\"toolchain\":\"" + jsonEscape(toolchain) + "\"";
    os += ",\"machine\":\"" + jsonEscape(machineName) + "\"";
    os += ",\"setup_a\":\"" + jsonEscape(setupA.str()) + "\"";
    os += ",\"setup_b\":\"" + jsonEscape(setupB.str()) + "\"";
    std::snprintf(num, sizeof num,
                  ",\"cycles_a\":%llu,\"cycles_b\":%llu,"
                  "\"cycle_delta\":%lld",
                  (unsigned long long)resultA.cycles(),
                  (unsigned long long)resultB.cycles(),
                  (long long)cycleDelta());
    os += num;
    // Always true; kept so readers of mbias_explain 1 documents that
    // look for it do not break.
    os += ",\"attribution_enabled\":true";
    os += ",\"dominant_mechanism\":\"" + jsonEscape(dominantMechanism()) +
          "\"";

    os += ",\"mechanisms\":[";
    bool first = true;
    for (const auto &m : mechanisms) {
        os += first ? "" : ",";
        first = false;
        os += "{\"key\":\"" + jsonEscape(m.key) + "\",\"name\":\"" +
              jsonEscape(m.name) + "\"";
        std::snprintf(num, sizeof num,
                      ",\"event_delta\":%lld,\"weighted_cycles\":%lld,"
                      "\"share\":%.3f",
                      (long long)m.eventDelta, (long long)m.weightedCycles,
                      m.share);
        os += num;
        os += ",\"evidence\":\"" + jsonEscape(m.evidence) + "\"}";
    }
    os += "]";

    os += ",\"functions\":[";
    first = true;
    for (const auto &f : functions) {
        os += first ? "" : ",";
        first = false;
        os += "{\"name\":\"" + jsonEscape(f.name) + "\"";
        std::snprintf(num, sizeof num,
                      ",\"cycles_a\":%llu,\"cycles_b\":%llu,"
                      "\"delta\":%lld,\"icache\":%lld,\"dcache\":%lld,"
                      "\"mispredicts\":%lld,\"btb\":%lld,"
                      "\"line_splits\":%lld,\"alias_stalls\":%lld,"
                      "\"stall_cycles\":%lld,\"fetch_groups\":%lld}",
                      (unsigned long long)f.cyclesA,
                      (unsigned long long)f.cyclesB, (long long)f.delta,
                      (long long)f.icacheMisses, (long long)f.dcacheMisses,
                      (long long)f.branchMispredicts,
                      (long long)f.btbMisses, (long long)f.lineSplits,
                      (long long)f.aliasStalls, (long long)f.stallCycles,
                      (long long)f.fetchGroups);
        os += num;
    }
    os += "]";

    os += ",\"attribution\":{";
    appendDeltaArray(os, "icache_miss_delta",
                     missDelta(attrA.icache, attrB.icache));
    os += ",";
    appendDeltaArray(os, "dcache_miss_delta",
                     missDelta(attrA.dcache, attrB.dcache));
    os += ",";
    appendDeltaArray(os, "itlb_miss_delta",
                     missDelta(attrA.itlb, attrB.itlb));
    os += ",";
    appendDeltaArray(os, "dtlb_miss_delta",
                     missDelta(attrA.dtlb, attrB.dtlb));
    os += ",";
    appendDeltaArray(os, "btb_alias_delta",
                     aliasDelta(attrA.btb, attrB.btb));
    os += "}}";
    return os;
}

std::size_t
ExplainReport::emitCounterTracks() const
{
    obs::Tracer &tracer = obs::Tracer::global();
    if (!tracer.active())
        return 0;
    std::size_t emitted = 0;
    const auto track = [&](const char *name, const sim::SetCounters &a,
                           const sim::SetCounters &b) {
        for (std::size_t i = 0; i < b.misses.size(); ++i) {
            obs::TraceEvent e;
            e.name = name;
            e.cat = "explain";
            e.ph = 'C';
            e.tsUs = i; // counter x-axis = set index
            char args[96];
            std::snprintf(
                args, sizeof args, "{\"a\":%llu,\"b\":%llu,\"delta\":%lld}",
                (unsigned long long)(i < a.misses.size() ? a.misses[i]
                                                         : 0),
                (unsigned long long)b.misses[i],
                (long long)(std::int64_t(b.misses[i]) -
                            std::int64_t(i < a.misses.size()
                                             ? a.misses[i]
                                             : 0)));
            e.args = args;
            tracer.record(std::move(e));
            ++emitted;
        }
    };
    track("explain.icache_misses", attrA.icache, attrB.icache);
    track("explain.dcache_misses", attrA.dcache, attrB.dcache);
    track("explain.itlb_misses", attrA.itlb, attrB.itlb);
    track("explain.dtlb_misses", attrA.dtlb, attrB.dtlb);
    return emitted;
}

std::string
mechanismEvidence(const ExplainReport &report, unsigned top)
{
    char line[256];
    std::string os;
    std::snprintf(line, sizeof line,
                  "mechanism evidence (%s vs %s): dominant %s\n",
                  report.setupA.str().c_str(), report.setupB.str().c_str(),
                  report.dominantMechanism().c_str());
    os += line;
    unsigned shown = 0;
    for (const auto &m : report.mechanisms) {
        if (shown++ >= top)
            break;
        std::snprintf(line, sizeof line,
                      "  %-28s %+10lld weighted cycles  %s\n",
                      m.name.c_str(), (long long)m.weightedCycles,
                      m.evidence.c_str());
        os += line;
    }
    return os;
}

} // namespace mbias::core
