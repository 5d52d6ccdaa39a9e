#ifndef MBIAS_PIPELINE_OPTIONS_HH
#define MBIAS_PIPELINE_OPTIONS_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

namespace mbias::pipeline
{

/**
 * The flag set every experiment entry point shares — the `mbias`
 * subcommands and the throughput microbenches parse these with the
 * *same* code, so `--jobs/--seed/--resamples/--confidence/--trace/
 * --quiet/--verbose` behave identically everywhere.
 *
 * Value flags are optionals: a figure (or subcommand) supplies its own
 * historical default when the user did not pass the flag, so the
 * defaults that differ by entry point (e.g. `mbias analyze` defaults
 * --resamples to 1000, figures to 0) keep their bytes while the
 * parsing stays shared.
 */
struct PipelineOptions
{
    /** Campaign worker threads; results are identical for any value. */
    unsigned jobs = 1;

    std::optional<std::uint64_t> seed;
    std::optional<int> resamples;
    std::optional<double> confidence;

    /** Chrome-trace JSON output path; empty disables tracing. */
    std::string tracePath;

    bool quiet = false;
    bool verbose = false;

    std::uint64_t seedOr(std::uint64_t dflt) const
    {
        return seed.value_or(dflt);
    }
    int resamplesOr(int dflt) const { return resamples.value_or(dflt); }
    double confidenceOr(double dflt = 0.95) const
    {
        return confidence.value_or(dflt);
    }
};

/** parsePipelineArgs result: the shared flags plus everything else. */
struct ParsedArgs
{
    PipelineOptions options;

    /** Non-pipeline arguments in their original order (subcommand
     *  names, positional ids, caller-specific flags). */
    std::vector<std::string> rest;
};

/**
 * Extracts the shared pipeline flags from @p argv (excluding argv[0])
 * and returns them with the remaining arguments.  Flags take their
 * value as the next token (`--jobs 8`); a value flag at the end of the
 * line, or one followed by another `--flag`, is fatal ("missing value
 * for --jobs"), as are malformed or out-of-range values (a negative
 * count, --resamples past INT_MAX, a --confidence outside (0, 1) or
 * NaN).
 */
ParsedArgs parsePipelineArgs(int argc, char **argv);

/**
 * parsePipelineArgs for a program that takes nothing but the shared
 * flags (the throughput microbenches): any other argument is fatal,
 * naming it and the program (argv[0]'s basename).
 */
PipelineOptions parseOnlyPipelineArgs(int argc, char **argv);

/**
 * The one integer grammar of every flag, shared and
 * subcommand-specific alike (mbias::parseDecimal): a plain decimal in
 * [0, @p max], starting with a digit (no sign, no blanks) and with no
 * trailing text.  Anything else is fatal, naming @p flag.
 */
std::uint64_t
parseUint(const char *flag, const char *value,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** Applies --quiet/--verbose to the global logging switch. */
void applyLogging(const PipelineOptions &opts);

} // namespace mbias::pipeline

#endif // MBIAS_PIPELINE_OPTIONS_HH
