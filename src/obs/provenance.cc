#include "obs/provenance.hh"

#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#ifdef _WIN32
#else
#include <unistd.h>
#endif

#include "base/json.hh"

extern char **environ;

namespace mbias::obs
{

namespace
{

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
    const auto obj = JsonObject::parse(json);
    if (!obj)
        return false;
    // A string field; flags, build_type and workdir may be absent.
    const auto text = [&obj](const char *name, std::string &field,
                             bool required) {
        const JsonValue *v = obj->find(name);
        if (!v)
            return !required;
        auto s = v->string();
        if (s)
            field = std::move(*s);
        return s.has_value();
    };
    // The integers take the flags' grammar (mbias::parseDecimal): a
    // sign, a blank or a value above the field's width fails the
    // header instead of wrapping.
    const auto number = [&obj](const char *name, auto &field) {
        using Field = std::remove_reference_t<decltype(field)>;
        const JsonValue *v = obj->find(name);
        const auto n =
            v ? v->decimal(std::numeric_limits<Field>::max()) : std::nullopt;
        if (n)
            field = Field(*n);
        return n.has_value();
    };
    Provenance p;
    if (!text("hostname", p.hostname, true) ||
        !text("cpu", p.cpuModel, true) ||
        !text("compiler", p.compiler, true) ||
        !text("flags", p.compilerFlags, false) ||
        !text("build_type", p.buildType, false) ||
        !text("workdir", p.workdir, false) ||
        !number("workdir_len", p.workdirLen) ||
        !number("env_bytes", p.envBlockBytes) ||
        !number("page_size", p.pageSize) || !number("jobs", p.jobs))
        return false;
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
