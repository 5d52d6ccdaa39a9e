#include "obs/provenance.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#ifdef _WIN32
#else
#include <unistd.h>
#endif

#include "base/parse.hh"

extern char **environ;

namespace mbias::obs
{

namespace
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

/**
 * Finds `"name":` in a flat JSON object and returns the raw token
 * after it: digits, or an unescaped quoted string.  The walk honours
 * backslash escapes, which is all toJson() ever emits.
 */
bool
scanValue(const std::string &json, const std::string &name,
          std::string &out)
{
    const std::string needle = "\"" + name + "\":";
    const auto at = json.find(needle);
    if (at == std::string::npos)
        return false;
    std::size_t i = at + needle.size();
    if (i >= json.size())
        return false;
    out.clear();
    if (json[i] != '"') {
        while (i < json.size() && json[i] != ',' && json[i] != '}')
            out += json[i++];
        return !out.empty();
    }
    for (++i; i < json.size(); ++i) {
        if (json[i] == '\\' && i + 1 < json.size()) {
            const char esc = json[++i];
            if (esc == 'u' && i + 4 < json.size()) {
                // jsonEscape() emits control bytes as \u00XX.
                out += char(std::strtoul(json.substr(i + 1, 4).c_str(),
                                         nullptr, 16));
                i += 4;
            } else {
                out += esc; // \" and \\ — the only other escapes emitted
            }
            continue;
        }
        if (json[i] == '"')
            return true;
        out += json[i];
    }
    return false;
}

/** Reads field @p name through the flags' integer grammar
 *  (mbias::parseDecimal): a sign, a blank or a value above @p max
 *  fails the header instead of wrapping. */
bool
scanUint(const std::string &json, const std::string &name,
         std::uint64_t &out,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::string tok;
    if (!scanValue(json, name, tok))
        return false;
    const auto v = parseDecimal(tok, max);
    if (!v)
        return false;
    out = *v;
    return true;
}

std::string
cpuModelName()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            break;
        auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
    }
    return "unknown";
}

} // namespace

Provenance
Provenance::capture(unsigned jobs)
{
    Provenance p;
    p.jobs = jobs;

    char host[256] = "unknown";
    if (gethostname(host, sizeof(host) - 1) != 0)
        std::strcpy(host, "unknown");
    p.hostname = host;

    p.cpuModel = cpuModelName();

#ifdef MBIAS_BUILD_COMPILER
    p.compiler = MBIAS_BUILD_COMPILER;
#else
    p.compiler = "unknown";
#endif
#ifdef MBIAS_BUILD_FLAGS
    p.compilerFlags = MBIAS_BUILD_FLAGS;
#endif
#ifdef MBIAS_BUILD_TYPE
    p.buildType = MBIAS_BUILD_TYPE;
#endif

    char cwd[4096];
    if (getcwd(cwd, sizeof(cwd)))
        p.workdir = cwd;
    p.workdirLen = p.workdir.size();

    // The paper's headline factor: total size of the environment
    // block the loader copies onto the stack.
    for (char **e = environ; e && *e; ++e)
        p.envBlockBytes += std::strlen(*e) + 1;

    const long page = sysconf(_SC_PAGESIZE);
    p.pageSize = page > 0 ? std::uint64_t(page) : 0;
    return p;
}

std::string
Provenance::toJson() const
{
    std::ostringstream os;
    os << "{\"hostname\":\"" << jsonEscape(hostname) << "\""
       << ",\"cpu\":\"" << jsonEscape(cpuModel) << "\""
       << ",\"compiler\":\"" << jsonEscape(compiler) << "\""
       << ",\"flags\":\"" << jsonEscape(compilerFlags) << "\""
       << ",\"build_type\":\"" << jsonEscape(buildType) << "\""
       << ",\"workdir\":\"" << jsonEscape(workdir) << "\""
       << ",\"workdir_len\":" << workdirLen
       << ",\"env_bytes\":" << envBlockBytes
       << ",\"page_size\":" << pageSize << ",\"jobs\":" << jobs
       << "}";
    return os.str();
}

bool
Provenance::fromJson(const std::string &json, Provenance &out)
{
    Provenance p;
    std::uint64_t v = 0;
    if (!scanValue(json, "hostname", p.hostname))
        return false;
    if (!scanValue(json, "cpu", p.cpuModel))
        return false;
    if (!scanValue(json, "compiler", p.compiler))
        return false;
    // flags/build_type/workdir may legitimately be empty strings;
    // scanValue fails only on absent fields for quoted values.
    scanValue(json, "flags", p.compilerFlags);
    scanValue(json, "build_type", p.buildType);
    scanValue(json, "workdir", p.workdir);
    if (!scanUint(json, "workdir_len", p.workdirLen))
        return false;
    if (!scanUint(json, "env_bytes", p.envBlockBytes))
        return false;
    if (!scanUint(json, "page_size", p.pageSize))
        return false;
    if (!scanUint(json, "jobs", v, std::numeric_limits<unsigned>::max()))
        return false;
    p.jobs = unsigned(v);
    out = std::move(p);
    return true;
}

std::string
Provenance::str() const
{
    std::ostringstream os;
    os << "  hostname        : " << hostname << "\n"
       << "  cpu             : " << cpuModel << "\n"
       << "  compiler        : " << compiler << " (" << buildType
       << ")\n"
       << "  flags           : "
       << (compilerFlags.empty() ? "(none)" : compilerFlags) << "\n"
       << "  workdir         : " << workdir << " (" << workdirLen
       << " chars)\n"
       << "  env block       : " << envBlockBytes << " bytes\n"
       << "  page size       : " << pageSize << "\n"
       << "  jobs            : " << jobs << "\n";
    return os.str();
}

} // namespace mbias::obs
