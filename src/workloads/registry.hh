#ifndef MBIAS_WORKLOADS_REGISTRY_HH
#define MBIAS_WORKLOADS_REGISTRY_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace mbias::workloads
{

/**
 * The process-wide workload table: the 12 built-in kernels plus any
 * workload registered at runtime (assembled from .asm assets, emitted
 * by the fuzzer, ...).  Lookups by name see every entry; the builtin
 * suite() view below is unaffected by runtime registration, so the
 * paper figures that iterate the canonical suite stay byte-identical
 * no matter what else a process has loaded.
 *
 * Names are unique across the whole table.  Registering a duplicate
 * is rejected with a clear error — never silent shadowing — because a
 * workload's name keys the toolchain artifact cache and the result
 * stores; two workloads sharing one name would silently read each
 * other's cached artifacts.
 */
class Registry
{
  public:
    struct Entry
    {
        const Workload *workload = nullptr;
        /** Provenance: "builtin", a manifest path, or "fuzzer". */
        std::string source;
    };

    static Registry &instance();

    /**
     * Registers @p w under its name() with provenance @p source.
     * Returns the empty string on success; on a duplicate name the
     * workload is NOT registered and the returned string describes
     * the clash (including where the existing entry came from).
     */
    std::string tryAdd(std::unique_ptr<const Workload> w,
                       std::string source);

    /** tryAdd that treats a duplicate as a fatal user error. */
    const Workload &add(std::unique_ptr<const Workload> w,
                        std::string source);

    /** Looks a workload up by name; nullptr when absent. */
    const Workload *find(const std::string &name) const;

    /** Provenance of the named workload ("" when absent). */
    std::string sourceOf(const std::string &name) const;

    /** Every entry: the builtin suite first (in canonical order),
     *  then runtime registrations in registration order. */
    std::vector<Entry> entries() const;

  private:
    Registry();

    mutable std::mutex mu_;
    std::vector<Entry> entries_;
    std::vector<std::unique_ptr<const Workload>> owned_;
};

/** The built-in suite, in canonical (SPEC-number) order.  Runtime
 *  registrations never appear here. */
const std::vector<const Workload *> &suite();

/** Looks a workload up by name — builtin or runtime-registered;
 *  panics if absent. */
const Workload &findWorkload(const std::string &name);

/** Names of the built-in workloads, in suite order. */
std::vector<std::string> suiteNames();

} // namespace mbias::workloads

#endif // MBIAS_WORKLOADS_REGISTRY_HH
