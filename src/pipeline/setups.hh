/**
 * @file
 * The named setup lists figures pass to CampaignSpec::withSetups.
 * SetupSpace names the others: SetupSpace().varyLinkOrder().grid(n)
 * is the canonical link-order grid (setup 0 links as given, setup s
 * shuffled with seed s), and CampaignSpec::withSpace draws the
 * campaign-native random sample.
 */
#ifndef MBIAS_PIPELINE_SETUPS_HH
#define MBIAS_PIPELINE_SETUPS_HH

#include <cstdint>
#include <vector>

#include "core/setup.hh"

namespace mbias::pipeline
{

/**
 * The legacy sequential sample: SetupRandomizer(space, seed) drawing
 * @p n setups from one RNG in order.  Kept as a named derivation so
 * the figures that historically sampled this way (fig10, table3) and
 * `mbias bias` stay byte-identical; new figures should prefer
 * CampaignSpec::withSpace, whose per-task streams are
 * schedule-independent by construction.
 */
std::vector<core::ExperimentSetup>
sequentialSetups(const core::SetupSpace &space, unsigned n,
                 std::uint64_t seed);

/** The canonical env grid: envBytes = min, min+step, ... <= max. */
std::vector<core::ExperimentSetup>
envGridSetups(std::uint64_t max, std::uint64_t step,
              std::uint64_t min = 0);

} // namespace mbias::pipeline

#endif // MBIAS_PIPELINE_SETUPS_HH
