#include "pipeline/options.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "base/logging.hh"

namespace mbias::pipeline
{

namespace
{

/** True when @p tok looks like a flag rather than a value. */
bool
isFlag(const char *tok)
{
    return std::strncmp(tok, "--", 2) == 0;
}

double
parseDouble(const char *flag, const char *value)
{
    char *end = nullptr;
    const double v = std::strtod(value, &end);
    if (end == value || *end != '\0')
        mbias_fatal("bad value for ", flag, ": '", value, "'");
    return v;
}

} // namespace

std::uint64_t
parseUint(const char *flag, const char *value, std::uint64_t max)
{
    // strtoull skips blanks and accepts a sign (wrapping "-1" to
    // 2^64 - 1), so the value must start with a digit.
    if (!std::isdigit(static_cast<unsigned char>(value[0])))
        mbias_fatal("bad value for ", flag, ": '", value, "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(value, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        mbias_fatal("bad value for ", flag, ": '", value, "'");
    return v;
}

ParsedArgs
parsePipelineArgs(int argc, char **argv)
{
    ParsedArgs parsed;
    PipelineOptions &o = parsed.options;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        const bool hasValue = i + 1 < argc && !isFlag(argv[i + 1]);
        if (std::strcmp(a, "--quiet") == 0) {
            o.quiet = true;
        } else if (std::strcmp(a, "--verbose") == 0) {
            o.verbose = true;
        } else if (std::strcmp(a, "--jobs") == 0) {
            if (hasValue)
                o.jobs = unsigned(parseUint(
                    a, argv[++i], std::numeric_limits<unsigned>::max()));
        } else if (std::strcmp(a, "--seed") == 0) {
            if (hasValue)
                o.seed = parseUint(a, argv[++i]);
        } else if (std::strcmp(a, "--resamples") == 0) {
            if (hasValue)
                o.resamples = int(parseUint(
                    a, argv[++i], std::numeric_limits<int>::max()));
        } else if (std::strcmp(a, "--confidence") == 0) {
            if (hasValue)
                o.confidence = parseDouble(a, argv[++i]);
        } else if (std::strcmp(a, "--trace") == 0) {
            if (hasValue)
                o.tracePath = argv[++i];
        } else {
            parsed.rest.push_back(a);
        }
    }
    if (o.jobs < 1)
        mbias_fatal("--jobs must be >= 1");
    // Written so that NaN, which fails every comparison, fails too.
    if (o.confidence &&
        !(*o.confidence > 0.0 && *o.confidence < 1.0))
        mbias_fatal("--confidence must be in (0, 1)");
    return parsed;
}

void
applyLogging(const PipelineOptions &opts)
{
    if (opts.quiet)
        setLoggingEnabled(false);
    else if (opts.verbose)
        setLoggingEnabled(true);
}

} // namespace mbias::pipeline
