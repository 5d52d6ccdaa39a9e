#include "sim/registry.hh"

namespace mbias::sim
{

namespace
{

/**
 * Capabilities implied by the core model alone.  The trace tier's
 * op_batch guards assume the OoO window hides intra-block latency
 * (sim/trace.cc builds rows under that model), so in-order cores fall
 * back to the plain fast path; the fast tier (and the replay tier on
 * top of it) transcribes the core policy exactly and works for every
 * kind.
 */
TierSupport
tiersForKind(CoreKind kind)
{
    TierSupport t;
    t.trace = kind == CoreKind::OutOfOrder;
    return t;
}

} // namespace

const MachineRegistry &
MachineRegistry::global()
{
    static const MachineRegistry registry;
    return registry;
}

MachineRegistry::MachineRegistry()
{
    // Paper platforms first, in paper order (P4, Core 2, m5 O3CPU):
    // MachineConfig::allPresets() and every golden-pinned figure
    // iterate this prefix.
    add({MachineConfig::p4Like(), tiersForKind(CoreKind::OutOfOrder),
         true, "out-of-order"});
    add({MachineConfig::core2Like(), tiersForKind(CoreKind::OutOfOrder),
         true, "out-of-order"});
    add({MachineConfig::o3Like(), tiersForKind(CoreKind::OutOfOrder),
         true, "out-of-order"});
    // Non-paper backends extend the study beyond the paper's set.
    add({MachineConfig::inorderLike(), tiersForKind(CoreKind::InOrder),
         false, "in-order"});
}

void
MachineRegistry::add(MachineBackend backend)
{
    if (backend.paperPreset)
        paperPresets_.push_back(backend.config);
    names_.push_back(backend.config.name);
    if (!namesJoined_.empty())
        namesJoined_ += ", ";
    namesJoined_ += backend.config.name;
    backends_.push_back(std::move(backend));
}

const MachineBackend *
MachineRegistry::byName(const std::string &name) const
{
    for (const auto &b : backends_)
        if (b.config.name == name)
            return &b;
    return nullptr;
}

TierSupport
MachineRegistry::tiersFor(const MachineConfig &config)
{
    if (const auto *b = global().byName(config.name))
        if (b->config.core == config.core)
            return b->tiers;
    return tiersForKind(config.core);
}

const std::vector<MachineConfig> &
MachineConfig::allPresets()
{
    return MachineRegistry::global().paperPresets();
}

} // namespace mbias::sim
