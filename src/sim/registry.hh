#ifndef MBIAS_SIM_REGISTRY_HH
#define MBIAS_SIM_REGISTRY_HH

#include <string>
#include <vector>

#include "sim/config.hh"

namespace mbias::sim
{

/**
 * Which interpreter tiers a backend's core model supports beyond the
 * reference interpreter.  Follows the replay tier's precondition-
 * fallback pattern (sim/replay.hh): a caller that asks for an
 * unsupported tier silently gets the next tier down — run() checks
 * these declarations, so unsupported tiers are a documented fallback,
 * never an error.
 */
struct TierSupport
{
    bool fast = true;  ///< ExecutionPlan direct-threaded path
    bool trace = true; ///< superblock op_batch tier on top of fast
};

/**
 * One registered machine backend: a configuration plus the tier
 * capabilities its core model declares.
 */
struct MachineBackend
{
    MachineConfig config;
    TierSupport tiers;
    /**
     * True for the three machines the paper actually measured (Core 2,
     * Pentium 4, m5 O3CPU).  MachineConfig::allPresets() — and every
     * figure pinned to the paper's platform set — iterates only these;
     * non-paper backends extend the study without disturbing goldens.
     */
    bool paperPreset = false;
    /** Human-readable core-model label ("out-of-order", "in-order"). */
    std::string coreModel;
};

/**
 * The ordered registry of machine backends.  Presets used to live in
 * MachineConfig::allPresets(); they now register here, and allPresets()
 * forwards to the paper subset.  Order is load-bearing: the paper
 * presets come first, in paper order, so existing consumers see the
 * same iteration they always did.
 */
class MachineRegistry
{
  public:
    static const MachineRegistry &global();

    const std::vector<MachineBackend> &backends() const
    {
        return backends_;
    }

    /** Paper-platform configs, in paper order (allPresets() source). */
    const std::vector<MachineConfig> &paperPresets() const
    {
        return paperPresets_;
    }

    /** All registered preset names, in registry order. */
    const std::vector<std::string> &names() const { return names_; }

    /** Registry names joined with ", " (CLI help/error text). */
    const std::string &namesJoined() const { return namesJoined_; }

    /** nullptr when no backend has that name. */
    const MachineBackend *byName(const std::string &name) const;

    /**
     * Tier capabilities for a configuration: the declaration of the
     * backend registered under config.name, or — for ad-hoc configs
     * that never registered — the declaration derived from the core
     * kind, so tweaked copies of a preset behave like the preset.
     */
    static TierSupport tiersFor(const MachineConfig &config);

  private:
    MachineRegistry();

    void add(MachineBackend backend);

    std::vector<MachineBackend> backends_;
    std::vector<MachineConfig> paperPresets_;
    std::vector<std::string> names_;
    std::string namesJoined_;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_REGISTRY_HH
