#ifndef MBIAS_PROVENANCE_HH
#define MBIAS_PROVENANCE_HH

#include <cstdint>
#include <string>

namespace mbias::obs
{

/**
 * The host-setup provenance block: exactly the "innocuous" execution
 * context the paper shows can bias measurements — the UNIX
 * environment-block size, the working-directory length (both shift
 * the stack), the compiler and flags the binary was built with, plus
 * host identity and the campaign's job count.
 *
 * Every campaign captures one of these and embeds it in the result
 * store's header line and in the CampaignReport, so a surprising
 * number can always be traced back to the setup that produced it
 * (the paper's "document your setup" remedy, docs/observability.md).
 */
struct Provenance
{
    std::string hostname;
    std::string cpuModel;

    /** Compiler id + version this binary was built with. */
    std::string compiler;
    std::string compilerFlags;
    std::string buildType;

    std::string workdir;
    std::uint64_t workdirLen = 0;

    /** Total bytes of the environment block (sum of "VAR=val\0"). */
    std::uint64_t envBlockBytes = 0;

    std::uint64_t pageSize = 0;
    unsigned jobs = 0;

    bool operator==(const Provenance &) const = default;

    /** Captures the current process's provenance (@p jobs recorded
     *  verbatim — it is a campaign option, not host state). */
    static Provenance capture(unsigned jobs);

    /** Flat one-line JSON object (strings escaped). */
    std::string toJson() const;

    /** Parses toJson() output (base/json.hh); false when a required
     *  field is missing, or any field is duplicated or does not fit. */
    static bool fromJson(const std::string &json, Provenance &out);

    /** Aligned human-readable rendering. */
    std::string str() const;
};

} // namespace mbias::obs

#endif // MBIAS_PROVENANCE_HH
