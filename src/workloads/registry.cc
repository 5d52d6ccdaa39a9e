#include "workloads/registry.hh"

#include "base/logging.hh"
#include "workloads/bzip.hh"
#include "workloads/gcclike.hh"
#include "workloads/gobmk.hh"
#include "workloads/h264.hh"
#include "workloads/hmmer.hh"
#include "workloads/lbm.hh"
#include "workloads/libquantum.hh"
#include "workloads/mcf.hh"
#include "workloads/milc.hh"
#include "workloads/perl.hh"
#include "workloads/sjeng.hh"
#include "workloads/sphinx.hh"

namespace mbias::workloads
{

const std::vector<const Workload *> &
suite()
{
    static const PerlWorkload perl;
    static const BzipWorkload bzip;
    static const GccLikeWorkload gcclike;
    static const McfWorkload mcf;
    static const MilcWorkload milc;
    static const GobmkWorkload gobmk;
    static const HmmerWorkload hmmer;
    static const SjengWorkload sjeng;
    static const LibquantumWorkload libquantum;
    static const H264Workload h264;
    static const LbmWorkload lbm;
    static const SphinxWorkload sphinx;
    static const std::vector<const Workload *> all = {
        &perl, &bzip, &gcclike, &mcf,  &milc, &gobmk,
        &hmmer, &sjeng, &libquantum, &h264, &lbm, &sphinx,
    };
    return all;
}

Registry::Registry()
{
    for (const Workload *w : suite())
        entries_.push_back({w, "builtin"});
}

Registry &
Registry::instance()
{
    static Registry reg;
    return reg;
}

std::string
Registry::tryAdd(std::unique_ptr<const Workload> w, std::string source)
{
    mbias_assert(w != nullptr, "registering a null workload");
    const std::string name = w->name();
    if (name.empty())
        return "cannot register a workload with an empty name (from " +
               source + ")";
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_)
        if (e.workload->name() == name)
            return "duplicate workload name '" + name + "': already " +
                   "registered from " + e.source +
                   ", refusing to shadow it with the one from " + source;
    entries_.push_back({w.get(), std::move(source)});
    owned_.push_back(std::move(w));
    return {};
}

const Workload &
Registry::add(std::unique_ptr<const Workload> w, std::string source)
{
    const Workload *raw = w.get();
    const std::string err = tryAdd(std::move(w), std::move(source));
    if (!err.empty())
        mbias_fatal(err);
    return *raw;
}

const Workload *
Registry::find(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_)
        if (e.workload->name() == name)
            return e.workload;
    return nullptr;
}

std::string
Registry::sourceOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &e : entries_)
        if (e.workload->name() == name)
            return e.source;
    return {};
}

std::vector<Registry::Entry>
Registry::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_;
}

const Workload &
findWorkload(const std::string &name)
{
    if (const Workload *w = Registry::instance().find(name))
        return *w;
    mbias_fatal("unknown workload: ", name);
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const Workload *w : suite())
        names.push_back(w->name());
    return names;
}

} // namespace mbias::workloads
