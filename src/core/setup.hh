#ifndef MBIAS_CORE_SETUP_HH
#define MBIAS_CORE_SETUP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "base/random.hh"
#include "toolchain/linkorder.hh"

namespace mbias::core
{

/**
 * One concrete choice of the "innocuous" experimental-setup factors:
 * the UNIX environment size and the link order.  The paper's central
 * observation is that this choice — which almost no paper reports —
 * can flip the conclusion of an optimization study.
 */
struct ExperimentSetup
{
    /** The largest environment a setup may ask for: Linux's default
     *  ARG_MAX, the most environment a real exec could pass. */
    static constexpr std::uint64_t kMaxEnvBytes = 2 << 20;

    std::uint64_t envBytes = 0;
    toolchain::LinkOrder linkOrder = toolchain::LinkOrder::asGiven();

    /** e.g. "env=960 link=shuffled(17)". */
    std::string str() const;

    bool operator==(const ExperimentSetup &) const = default;
};

/**
 * The space of setups an experiment could legitimately have been run
 * in.  Factors are opt-in so studies can isolate one factor (the
 * paper's per-factor sections) or combine them (its setup
 * randomization remedy).
 */
class SetupSpace
{
  public:
    SetupSpace() = default;

    /** Varies the environment size uniformly in [min, max] bytes. */
    SetupSpace &varyEnvSize(std::uint64_t min = 0,
                            std::uint64_t max = 4096);

    /** Varies the module link order over random permutations. */
    SetupSpace &varyLinkOrder();

    bool envVaries() const { return varyEnv_; }
    bool linkOrderVaries() const { return varyLink_; }
    std::uint64_t envMin() const { return envMin_; }
    std::uint64_t envMax() const { return envMax_; }

    /** Draws one setup uniformly from the space. */
    ExperimentSetup sample(Rng &rng) const;

    /**
     * A deterministic sweep of @p points setups: the env factor is
     * swept on an evenly spaced grid (non-varying factors stay at
     * their defaults); if only link order varies, seeds 0..points-1
     * are used.
     */
    std::vector<ExperimentSetup> grid(unsigned points) const;

  private:
    bool varyEnv_ = false;
    std::uint64_t envMin_ = 0;
    std::uint64_t envMax_ = 4096;
    bool varyLink_ = false;
};

/**
 * The paper's first remedy: *experimental setup randomization*.
 * Instead of measuring in one (arbitrary, possibly lucky) setup,
 * sample many setups and report the effect with a confidence interval
 * over the setup distribution.
 */
class SetupRandomizer
{
  public:
    SetupRandomizer(SetupSpace space, std::uint64_t seed);

    /** Draws @p n independent setups. */
    std::vector<ExperimentSetup> sample(unsigned n);

    const SetupSpace &space() const { return space_; }

  private:
    SetupSpace space_;
    Rng rng_;
};

} // namespace mbias::core

#endif // MBIAS_CORE_SETUP_HH
