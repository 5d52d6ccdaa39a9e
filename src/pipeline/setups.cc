#include "pipeline/setups.hh"

#include "base/logging.hh"

namespace mbias::pipeline
{

std::vector<core::ExperimentSetup>
sequentialSetups(const core::SetupSpace &space, unsigned n,
                 std::uint64_t seed)
{
    core::SetupRandomizer randomizer(space, seed);
    return randomizer.sample(n);
}

std::vector<core::ExperimentSetup>
envGridSetups(std::uint64_t max, std::uint64_t step, std::uint64_t min)
{
    mbias_assert(step > 0, "env grid needs a positive step");
    std::vector<core::ExperimentSetup> out;
    for (std::uint64_t env = min; env <= max; env += step) {
        core::ExperimentSetup setup;
        setup.envBytes = env;
        out.push_back(setup);
    }
    return out;
}

} // namespace mbias::pipeline
