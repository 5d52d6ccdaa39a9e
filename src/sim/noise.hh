#ifndef MBIAS_SIM_NOISE_HH
#define MBIAS_SIM_NOISE_HH

#include <cstdint>

#include "base/types.hh"

namespace mbias::sim
{

/**
 * Run-to-run measurement noise: a model of OS timer interrupts and
 * their cache pollution.  Real measurements vary between runs even in
 * a fixed setup; the paper's point is that this *visible* variance is
 * small and well-behaved compared to the *invisible* setup bias — so
 * a tight confidence interval computed from repeated runs can be a
 * tight interval around the wrong value.
 *
 * The model is deterministic given @c seed: an interrupt fires every
 * roughly @c meanIntervalCycles (uniform in [0.5x, 1.5x]), costs
 * @c costCycles, and evicts a few cache sets.
 *
 * A second, orthogonal factor models DVFS frequency steps (Kalibera &
 * Jones argue frequency belongs among the *controlled* factors of a
 * rigorous benchmark, not the ambient noise): roughly every
 * @c dvfsMeanIntervalCycles the governor drops to a lower P-state for
 * about @c dvfsMeanResidencyCycles, during which the core retires
 * @c dvfsSlowdownPercent fewer cycles' worth of work — charged as a
 * lump of @c dvfsTransitionCycles plus the slowed residency's excess
 * at the step, purely timing (no cache pollution; unlike an interrupt,
 * a frequency step touches no architectural state).  Both factors
 * draw from independent seeded streams, so either can be swept alone.
 */
struct NoiseModel
{
    bool enabled = false;
    std::uint64_t seed = 0;
    Cycles meanIntervalCycles = 20000; ///< ~ a 50 us tick at 1 GHz-ish
    Cycles costCycles = 600;           ///< handler + refill cost
    unsigned linesEvictedPerInterrupt = 8;

    // DVFS frequency-step factor (off by default; swept as a
    // first-class pipeline factor by bench/figures/fig13).
    bool dvfsEnabled = false;
    Cycles dvfsMeanIntervalCycles = 150000; ///< between governor steps
    Cycles dvfsTransitionCycles = 500;      ///< PLL relock / voltage ramp
    Cycles dvfsMeanResidencyCycles = 30000; ///< time at the low P-state
    unsigned dvfsSlowdownPercent = 25;      ///< work lost while slowed

    /** True when the model perturbs runs at all — any factor on.  No
     *  sim tier keys off it (noisy runs take the plan loop like any
     *  other); perfbench's layer classifier still reads it. */
    bool active() const { return enabled || dvfsEnabled; }

    /** Bitwise equality (RepetitionPlan compares template defaults). */
    bool operator==(const NoiseModel &) const = default;

    /** A disabled model (the default for deterministic studies). */
    static NoiseModel none() { return {}; }

    /** A model with the given seed and default magnitude. */
    static NoiseModel withSeed(std::uint64_t s)
    {
        NoiseModel n;
        n.enabled = true;
        n.seed = s;
        return n;
    }

    /** OS-interrupt noise plus DVFS steps, default magnitudes. */
    static NoiseModel withDvfs(std::uint64_t s)
    {
        NoiseModel n = withSeed(s);
        n.dvfsEnabled = true;
        return n;
    }
};

} // namespace mbias::sim

#endif // MBIAS_SIM_NOISE_HH
