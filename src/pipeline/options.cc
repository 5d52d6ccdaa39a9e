#include "pipeline/options.hh"

#include <cstdlib>
#include <cstring>
#include <limits>

#include "base/logging.hh"
#include "base/parse.hh"

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
    const auto v = parseDecimal(value, max);
    if (!v)
        mbias_fatal("bad value for ", flag, ": '", value, "'");
    return *v;
}

ParsedArgs
parsePipelineArgs(int argc, char **argv)
{
    ParsedArgs parsed;
    PipelineOptions &o = parsed.options;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        // A value flag's value is the next token, unless that is
        // another flag or missing: then the flag was given bare.
        auto value = [&]() -> const char * {
            if (i + 1 >= argc || isFlag(argv[i + 1]))
                mbias_fatal("missing value for ", a);
            return argv[++i];
        };
        if (std::strcmp(a, "--quiet") == 0) {
            o.quiet = true;
        } else if (std::strcmp(a, "--verbose") == 0) {
            o.verbose = true;
        } else if (std::strcmp(a, "--jobs") == 0) {
            o.jobs = unsigned(parseUint(a, value(),
                                        std::numeric_limits<unsigned>::max()));
        } else if (std::strcmp(a, "--seed") == 0) {
            o.seed = parseUint(a, value());
        } else if (std::strcmp(a, "--resamples") == 0) {
            o.resamples = int(
                parseUint(a, value(), std::numeric_limits<int>::max()));
        } else if (std::strcmp(a, "--confidence") == 0) {
            o.confidence = parseDouble(a, value());
        } else if (std::strcmp(a, "--trace") == 0) {
            o.tracePath = value();
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

PipelineOptions
parseOnlyPipelineArgs(int argc, char **argv)
{
    ParsedArgs parsed = parsePipelineArgs(argc, argv);
    if (!parsed.rest.empty()) {
        const char *slash = std::strrchr(argv[0], '/');
        mbias_fatal("unknown argument ", parsed.rest.front(), " for ",
                    slash ? slash + 1 : argv[0],
                    " (it takes only the shared --jobs --seed "
                    "--resamples --confidence --trace --quiet --verbose)");
    }
    return parsed.options;
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
