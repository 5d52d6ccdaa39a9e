#include "workloads.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>

#include "base/hash.hh"
#include "base/seeding.hh"
#include "campaign/engine.hh"
#include "campaign/report.hh"
#include "core/causal.hh"
#include "core/explain.hh"
#include "core/runner.hh"
#include "figures.hh"
#include "layers.hh"
#include "pipeline/driver.hh"
#include "pipeline/figure.hh"
#include "sim/registry.hh"
#include "stats/sample.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace mbench
{

using namespace mbias;

// Workload sizes.  The seed draws setups, link orders and noise seeds
// but never how much work there is: which kernels run on which
// backend is fixed, so every seed costs about the same.  One pass
// takes one to three seconds on a 4-core x86-64 host at --jobs 4
// (paper_all about six to ten); see README.md.
namespace size
{
constexpr unsigned kSweepSetups = 8;      ///< per (kernel, backend), half shuffled
constexpr int kSweepResamples = 1000;     ///< analyzeStore bootstrap
constexpr unsigned kNoiseSetups = 8;      ///< env setups per family campaign
constexpr unsigned kNoisePairedReps = 24; ///< per side (fig8's shape)
constexpr unsigned kAslrReps = 21;        ///< per side (fig11's remedy)
constexpr unsigned kCausalSetups = 8;     ///< env grid of the causal sweep
constexpr unsigned kSpotCheckOneIn = 16;  ///< reference spot-check rate
} // namespace size

/** noise_reps' kernels: fig8's perl and fig7's hmmer. */
const char *const kNoiseKernels[] = {"perl", "hmmer"};

void
PassResult::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
PassResult::merge(const PassResult &o)
{
    attempted += o.attempted;
    failed += o.failed;
    for (const auto &f : o.failures)
        if (failures.size() < 8)
            failures.push_back(f);
}

namespace
{

void
hashRun(Fnv1a &h, const sim::RunResult &rr)
{
    for (sim::Counter c : sim::allCounters())
        h.u64(rr.counters.get(c));
    h.u64(rr.halted);
    h.u64(rr.result);
}

void
hashDouble(Fnv1a &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h.u64(bits);
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** Indices 0..n-1 in an order drawn from @p rng. */
std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    rng.shuffle(order);
    return order;
}

/** Drops the lines that legitimately vary between runs (campaign
 *  wall time, scheduling metrics), as tests/golden/run_diff.sh does. */
std::string
stripVolatile(const std::string &text)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
        if (line.rfind("[campaign:", 0) == 0 || line.rfind("[metrics]", 0) == 0)
            continue;
        out += line;
        out += '\n';
    }
    return out;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** The workload's checksum under its default config. */
std::uint64_t
referenceChecksum(const std::string &workload)
{
    return workloads::findWorkload(workload).referenceResult({});
}

/**
 * An independent reference-tier materialization of one side of a
 * setup: fresh compile, link and load (no shared caches), run with the
 * fast tiers switched off on the machine itself.
 */
sim::RunResult
referenceRun(const core::ExperimentSpec &spec, const toolchain::ToolchainSpec &tc,
             const sim::MachineConfig &mc, const core::ExperimentSetup &setup,
             const sim::NoiseModel &noise, std::uint64_t aslr_seed = 0)
{
    const auto &w = workloads::findWorkload(spec.workload);
    toolchain::Compiler cc(tc.vendor, tc.level);
    const auto mods = cc.compile(w.build(spec.workloadConfig));
    auto prog = std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link(mods, setup.linkOrder));
    toolchain::LoaderConfig lc;
    lc.envBytes = setup.envBytes;
    lc.aslrSeed = aslr_seed;
    const auto image = toolchain::Loader::load(std::move(prog), lc);
    sim::Machine machine(mc);
    machine.setUseFastPath(false);
    return machine.run(image, sim::Machine::kDefaultRunBudget, noise);
}

/** Stdout of @p fn, captured through a file in @p dir. */
template <typename Fn>
std::string
captureStdout(const std::string &dir, Fn &&fn)
{
    const std::string path = dir + "/capture.txt";
    std::fflush(stdout);
    std::cout.flush();
    const int saved = ::dup(1);
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (saved < 0 || fd < 0) {
        std::perror("mbench: capture stdout");
        std::exit(2);
    }
    ::dup2(fd, 1);
    fn();
    std::fflush(stdout);
    std::cout.flush();
    ::dup2(saved, 1);
    ::close(saved);
    ::close(fd);
    std::string out;
    readFile(path, out);
    return out;
}

// ---------------------------------------------------------------------
// paper_all: every registered figure/table spec through runFigure.

class PaperAll : public Workload
{
  public:
    explicit PaperAll(const Options &o) : opts_(o) {}

    void
    setup() override
    {
        specs_.clear();
        goldens_.clear();
        for (const auto &spec : pipeline::FigureRegistry::instance().all()) {
            std::string text;
            if (!readFile(opts_.root + "/tests/golden/" + spec.id + ".txt",
                          text)) {
                std::fprintf(stderr, "mbench: no golden for %s under %s\n",
                             spec.id.c_str(), opts_.root.c_str());
                std::exit(2);
            }
            specs_.push_back(&spec);
            goldens_.push_back(stripVolatile(text));
        }
        if (opts_.corruptGolden) {
            // A seeded spec gets one extra character on its first line.
            Rng rng(mixSeed(opts_.seed, 0xc0));
            auto &g = goldens_[rng.nextIndex(goldens_.size())];
            g.insert(g.find('\n'), "#");
        }
    }

    PassResult
    pass(Rng &order) override
    {
        PassResult r;
        pipeline::PipelineOptions po;
        po.jobs = opts_.jobs;
        std::vector<std::string> outputs(specs_.size());
        std::vector<double> seconds(specs_.size());
        for (std::size_t i : permutation(specs_.size(), order)) {
            const std::int64_t t0 = nowNs();
            outputs[i] = stripVolatile(captureStdout(opts_.workdir, [&] {
                pipeline::runFigure(*specs_[i], po);
            }));
            seconds[i] = double(nowNs() - t0) * 1e-9;
        }
        Fnv1a h;
        for (std::size_t i = 0; i < specs_.size(); ++i) {
            h.str(outputs[i]);
            r.check(outputs[i] == goldens_[i],
                    specs_[i]->id + " differs from tests/golden/" +
                        specs_[i]->id + ".txt");
            r.figureSeconds.emplace_back(specs_[i]->id, seconds[i]);
        }
        r.digest = h.value();
        return r;
    }

    std::string
    describeInputs() const override
    {
        std::string s = "render every registered spec (order drawn per pass):";
        for (const auto *spec : specs_)
            s += ' ' + spec->id;
        return s + '\n';
    }

  private:
    Options opts_;
    std::vector<const pipeline::FigureSpec *> specs_;
    std::vector<std::string> goldens_;
};

// ---------------------------------------------------------------------
// Shared by the two campaign workloads.

struct CampaignInput
{
    std::string name;
    campaign::CampaignSpec spec;
    std::string storePath; ///< empty: storeless
};

std::string
describeCampaigns(const std::vector<CampaignInput> &inputs)
{
    std::string s;
    for (const auto &c : inputs) {
        s += c.name + ": " + c.spec.str() + " seed=" +
             std::to_string(c.spec.seed) + '\n';
        for (const auto &t : c.spec.expand())
            s += "  task " + std::to_string(t.index) + ' ' + t.setup.str() +
                 " taskSeed=" + std::to_string(t.taskSeed) + '\n';
    }
    return s;
}

/** A seeded 1-in-N subset of every (campaign, task) pair of a pass
 *  (at least one pair). */
std::vector<std::pair<std::size_t, std::size_t>>
spotCheckSubset(const std::vector<std::vector<core::RunOutcome>> &outcomes,
                Rng &rng)
{
    std::vector<std::pair<std::size_t, std::size_t>> all, picked;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        for (std::size_t t = 0; t < outcomes[i].size(); ++t)
            all.emplace_back(i, t);
    for (const auto &p : all)
        if (rng.nextIndex(size::kSpotCheckOneIn) == 0)
            picked.push_back(p);
    if (picked.empty() && !all.empty())
        picked.push_back(all[rng.nextIndex(all.size())]);
    return picked;
}

// ---------------------------------------------------------------------
// setup_sweep: single-plan O2-vs-O3 campaigns, suite x backends.

class SetupSweep : public Workload
{
  public:
    explicit SetupSweep(const Options &o) : opts_(o) {}

    void
    setup() override
    {
        inputs_.clear();
        outcomes_.clear();
        Rng rng(mixSeed(opts_.seed, 1));
        for (const auto &kernel : workloads::suiteNames()) {
            for (const auto &backend : sim::MachineRegistry::global().backends()) {
                // Half the setups keep the given link order and half
                // draw a shuffle, in seeded positions.
                std::vector<int> shuffle(size::kSweepSetups, 0);
                std::fill(shuffle.begin() + size::kSweepSetups / 2,
                          shuffle.end(), 1);
                rng.shuffle(shuffle);
                // Setups are distinct: a repeated one is served by the
                // ResultCache or not depending on worker timing, which
                // would make the work per pass vary.
                std::vector<core::ExperimentSetup> setups;
                std::set<std::string> seen;
                for (unsigned i = 0; i < size::kSweepSetups;) {
                    core::ExperimentSetup s;
                    s.envBytes = rng.nextIndex(4097);
                    if (shuffle[i])
                        s.linkOrder = toolchain::LinkOrder::shuffled(rng.next());
                    if (seen.insert(s.str()).second) {
                        setups.push_back(s);
                        ++i;
                    }
                }
                CampaignInput in;
                in.name = kernel + '@' + backend.config.name;
                in.spec.withExperiment(core::ExperimentSpec()
                                           .withWorkload(kernel)
                                           .withMachine(backend.config))
                    .withSeed(rng.next())
                    .withSetups(std::move(setups));
                in.storePath = opts_.workdir + "/sweep_" +
                               std::to_string(inputs_.size()) + ".jsonl";
                inputs_.push_back(std::move(in));
            }
        }
        outcomes_.resize(inputs_.size());
    }

    PassResult
    pass(Rng &order) override
    {
        PassResult r;
        std::vector<std::uint64_t> digests(inputs_.size());
        for (std::size_t i : permutation(inputs_.size(), order)) {
            const CampaignInput &in = inputs_[i];
            campaign::CampaignOptions co;
            co.jobs = opts_.jobs;
            co.outPath = in.storePath;
            auto report = campaign::CampaignEngine(in.spec, co).run();
            campaign::AnalyzeOptions ao;
            ao.jobs = opts_.jobs;
            ao.resamples = size::kSweepResamples;
            ao.seed = in.spec.seed;
            const auto analysis = campaign::analyzeStore(in.storePath, ao);

            r.tasks += report.stats.totalTasks;
            r.resultCacheHits += report.stats.cacheHits;
            const std::uint64_t want =
                referenceChecksum(in.spec.experiment.workload);
            Fnv1a h;
            for (const auto &o : report.bias.outcomes) {
                hashRun(h, o.baseline);
                hashRun(h, o.treatment);
                r.check(o.baseline.halted && o.treatment.halted &&
                            o.baseline.result == want &&
                            o.treatment.result == want,
                        in.name + ' ' + o.setup.str() +
                            ": wrong checksum or no halt");
            }
            r.check(report.bias.outcomes.size() == size::kSweepSetups &&
                        analysis.records == size::kSweepSetups,
                    in.name + ": store holds the wrong number of records");
            hashDouble(h, analysis.bootstrapCI.lower);
            hashDouble(h, analysis.bootstrapCI.upper);
            digests[i] = h.value();
            outcomes_[i] = std::move(report.bias.outcomes);
        }
        Fnv1a all;
        for (auto d : digests)
            all.u64(d);
        r.digest = all.value();
        return r;
    }

    PassResult
    spotCheck() override
    {
        PassResult r;
        Rng rng(mixSeed(opts_.seed, 2));
        bool corrupt = opts_.corruptSpotCheck;
        for (const auto &[i, t] : spotCheckSubset(outcomes_, rng)) {
            const auto &spec = inputs_[i].spec.experiment;
            const core::RunOutcome &o = outcomes_[i][t];
            auto base = referenceRun(spec, spec.baseline, spec.machine,
                                     o.setup, sim::NoiseModel::none());
            const auto treat =
                referenceRun(spec, spec.treatment, spec.machine, o.setup,
                             sim::NoiseModel::none());
            if (corrupt) {
                base.result ^= 1;
                corrupt = false;
            }
            r.check(base == o.baseline && treat == o.treatment,
                    inputs_[i].name + ' ' + o.setup.str() +
                        ": fast tiers differ from the reference");
        }
        return r;
    }

    std::string
    describeInputs() const override
    {
        return describeCampaigns(inputs_);
    }

  private:
    Options opts_;
    std::vector<CampaignInput> inputs_;
    std::vector<std::vector<core::RunOutcome>> outcomes_; ///< last pass
};

// ---------------------------------------------------------------------
// noise_reps: NoisePaired and AslrRandomized repetition families.

class NoiseReps : public Workload
{
  public:
    explicit NoiseReps(const Options &o) : opts_(o) {}

    void
    setup() override
    {
        inputs_.clear();
        Rng rng(mixSeed(opts_.seed, 3));
        const std::vector<sim::MachineConfig> machines = {
            sim::MachineConfig::core2Like(), sim::MachineConfig::inorderLike()};
        for (const auto &mc : machines) {
            for (const std::string kernel : kNoiseKernels) {
                for (const bool aslr : {false, true}) {
                    std::vector<core::ExperimentSetup> setups;
                    for (unsigned i = 0; i < size::kNoiseSetups; ++i) {
                        core::ExperimentSetup s;
                        s.envBytes = rng.nextIndex(4097);
                        setups.push_back(s);
                    }
                    campaign::RepetitionPlan plan;
                    if (aslr) {
                        plan.kind = campaign::RepetitionPlan::Kind::AslrRandomized;
                        plan.reps = size::kAslrReps;
                    } else {
                        plan.kind = campaign::RepetitionPlan::Kind::NoisePaired;
                        plan.reps = size::kNoisePairedReps;
                        plan.treatSeedOffset = 1000;
                    }
                    CampaignInput in;
                    in.name = kernel + '@' + mc.name +
                              (aslr ? "/aslr" : "/noise");
                    in.spec
                        .withExperiment(core::ExperimentSpec()
                                            .withWorkload(kernel)
                                            .withMachine(mc))
                        .withPlan(plan)
                        .withSeed(rng.next())
                        .withSetups(std::move(setups));
                    inputs_.push_back(std::move(in));
                }
            }
        }
        outcomes_.assign(inputs_.size(), {});
    }

    PassResult
    pass(Rng &order) override
    {
        PassResult r;
        std::vector<std::uint64_t> digests(inputs_.size());
        for (std::size_t i : permutation(inputs_.size(), order)) {
            const CampaignInput &in = inputs_[i];
            campaign::CampaignOptions co;
            co.jobs = opts_.jobs;
            auto report = campaign::CampaignEngine(in.spec, co).run();
            r.tasks += report.stats.totalTasks;
            r.resultCacheHits += report.stats.cacheHits;
            const bool paired = in.spec.plan.kind ==
                                campaign::RepetitionPlan::Kind::NoisePaired;
            Fnv1a h;
            for (const auto &o : report.bias.outcomes) {
                for (double v : o.repBaseline)
                    hashDouble(h, v);
                for (double v : o.repTreatment)
                    hashDouble(h, v);
                hashDouble(h, o.speedup);
                const std::size_t want = paired ? in.spec.plan.reps : 0;
                r.check(o.repBaseline.size() == want &&
                            o.repTreatment.size() == want &&
                            std::isfinite(o.speedup) && o.speedup > 0.0,
                        in.name + ' ' + o.setup.str() + ": malformed family");
            }
            r.check(report.bias.outcomes.size() == size::kNoiseSetups,
                    in.name + ": wrong number of outcomes");
            digests[i] = h.value();
            outcomes_[i] = std::move(report.bias.outcomes);
        }
        Fnv1a all;
        for (auto d : digests)
            all.u64(d);
        r.digest = all.value();
        return r;
    }

    PassResult
    spotCheck() override
    {
        PassResult r;
        Rng rng(mixSeed(opts_.seed, 4));
        bool corrupt = opts_.corruptSpotCheck;
        for (const auto &[i, t] : spotCheckSubset(outcomes_, rng)) {
            const auto &cs = inputs_[i].spec;
            const auto &spec = cs.experiment;
            const auto tasks = cs.expand();
            const core::RunOutcome &o = outcomes_[i][t];
            const auto &task = tasks[t];
            bool ok = true;
            if (cs.plan.kind == campaign::RepetitionPlan::Kind::NoisePaired) {
                // One seeded repetition of each side.
                const unsigned rep = unsigned(rng.nextIndex(cs.plan.reps));
                sim::NoiseModel nb = cs.plan.noiseTemplate;
                nb.seed = task.taskSeed + rep;
                sim::NoiseModel nt = cs.plan.noiseTemplate;
                nt.seed = task.taskSeed + cs.plan.treatSeedOffset + rep;
                auto b = core::metricValue(
                    spec.metric, referenceRun(spec, spec.baseline,
                                              spec.machine, o.setup, nb));
                const auto tr = core::metricValue(
                    spec.metric, referenceRun(spec, spec.treatment,
                                              spec.machine, o.setup, nt));
                if (corrupt) {
                    b += 1.0;
                    corrupt = false;
                }
                ok = sameBits(b, o.repBaseline[rep]) &&
                     sameBits(tr, o.repTreatment[rep]);
            } else {
                // The whole family: the speedup is a ratio of means.
                const auto sideMean = [&](const toolchain::ToolchainSpec &tc,
                                          std::uint64_t stream) {
                    stats::Sample s;
                    for (unsigned rep = 0; rep < cs.plan.reps; ++rep)
                        s.add(core::metricValue(
                            spec.metric,
                            referenceRun(spec, tc, spec.machine, o.setup,
                                         sim::NoiseModel::none(),
                                         mixSeed(task.taskSeed, stream) +
                                             rep)));
                    return s.mean();
                };
                auto speedup = sideMean(spec.baseline, 0) /
                               sideMean(spec.treatment, 1);
                if (corrupt) {
                    speedup += 1.0;
                    corrupt = false;
                }
                ok = sameBits(speedup, o.speedup);
            }
            r.check(ok, inputs_[i].name + ' ' + o.setup.str() +
                            ": replayed family differs from the reference");
        }
        return r;
    }

    std::string
    describeInputs() const override
    {
        return describeCampaigns(inputs_);
    }

  private:
    Options opts_;
    std::vector<CampaignInput> inputs_;
    std::vector<std::vector<core::RunOutcome>> outcomes_; ///< last pass
};

// ---------------------------------------------------------------------
// explain_ref: single-threaded reference-interpreter work.

class ExplainRef : public Workload
{
  public:
    explicit ExplainRef(const Options &o) : opts_(o) {}

    void
    setup() override
    {
        pinned_.clear();
        pairs_.clear();
        singles_.clear();
        // The three pinned pairs of the explain goldens, exactly as
        // `mbias explain --figure fig3|fig7` and `--machine
        // inorderlike --setup env=0 --setup env=300` build them.
        const auto pin = [&](const char *id, const std::string &workload,
                             const sim::MachineConfig &mc, const char *a,
                             const char *b) {
            Pair p;
            p.name = id;
            p.spec.withWorkload(workload).withMachine(mc);
            std::string error;
            core::parseSetupSpec(a, p.a, error);
            core::parseSetupSpec(b, p.b, error);
            if (!readFile(opts_.root + "/tests/golden/" + id + ".txt",
                          p.golden)) {
                std::fprintf(stderr, "mbench: no golden %s\n", id);
                std::exit(2);
            }
            p.golden = stripVolatile(p.golden);
            pinned_.push_back(std::move(p));
        };
        pin("explain_fig3", "perl", sim::MachineConfig::core2Like(),
            "link=given", "link=seed:3");
        pin("explain_fig7", "hmmer", sim::MachineConfig::core2Like(),
            "env=0", "env=300");
        pin("explain_inorder", "perl", sim::MachineConfig::inorderLike(),
            "env=0", "env=300");
        if (opts_.corruptGolden) {
            auto &g = pinned_[Rng(mixSeed(opts_.seed, 0xc0)).nextIndex(3)].golden;
            g.insert(g.find('\n'), "#");
        }

        Rng rng(mixSeed(opts_.seed, 5));
        const auto suite = workloads::suiteNames();
        const auto &backends = sim::MachineRegistry::global().backends();
        const auto drawSetup = [&] {
            core::ExperimentSetup s;
            s.envBytes = rng.nextIndex(4097);
            if (rng.nextIndex(2))
                s.linkOrder = toolchain::LinkOrder::shuffled(rng.next());
            return s;
        };
        // Every kernel on two backends for the pairs and on the other
        // two for the noisy single runs; the seed draws the setups.
        for (std::size_t k = 0; k < suite.size(); ++k) {
            for (std::size_t j : {0, 2}) {
                Pair p;
                p.spec.withWorkload(suite[k]).withMachine(
                    backends[(k + j) % backends.size()].config);
                p.name = p.spec.workload + '@' + p.spec.machine.name;
                p.a = drawSetup();
                p.b = drawSetup();
                pairs_.push_back(std::move(p));

                Single s;
                s.spec.withWorkload(suite[k]).withMachine(
                    backends[(k + j + 1) % backends.size()].config);
                s.setup = drawSetup();
                s.noiseSeed = rng.next();
                singles_.push_back(std::move(s));
            }
        }
        // fig6's causal question on its workload over an env grid (not
        // seeded: the interventions tried depend on the setups).
        causal_.withWorkload("perl");
        causalSetups_ = core::SetupSpace().varyEnvSize().grid(size::kCausalSetups);
    }

    PassResult
    pass(Rng &order) override
    {
        PassResult r;
        const std::size_t nPinned = pinned_.size();
        const std::size_t nPairs = pairs_.size();
        const std::size_t nSingles = singles_.size();
        std::vector<std::uint64_t> digests(nPinned + nPairs + 1 + nSingles);
        for (std::size_t k : permutation(digests.size(), order)) {
            Fnv1a h;
            if (k < nPinned) {
                const Pair &p = pinned_[k];
                const auto rep = core::explainSetupPair(p.spec, p.a, p.b);
                const std::string text = rep.str(8) + "\n" + rep.heatmaps();
                h.str(text);
                r.check(stripVolatile(text) == p.golden,
                        p.name + " differs from tests/golden/" + p.name + ".txt");
            } else if (k < nPinned + nPairs) {
                const Pair &p = pairs_[k - nPinned];
                const auto rep = core::explainSetupPair(p.spec, p.a, p.b);
                hashRun(h, rep.resultA);
                hashRun(h, rep.resultB);
                h.str(rep.str(8));
                const std::uint64_t want = referenceChecksum(p.spec.workload);
                r.check(rep.resultA.halted && rep.resultB.halted &&
                            rep.resultA.result == want &&
                            rep.resultB.result == want &&
                            !rep.mechanisms.empty(),
                        "explain " + p.name + ' ' + p.a.str() + " vs " +
                            p.b.str() + ": wrong checksum or empty ranking");
            } else if (k == nPinned + nPairs) {
                const auto rep =
                    core::CausalAnalyzer()
                        .withMechanismEvidence()
                        .analyze(causal_, causalSetups_);
                h.str(rep.str());
                h.str(rep.mechanismEvidence);
                r.check(!rep.rankedCauses.empty() &&
                            !rep.mechanismEvidence.empty(),
                        "causal " + causal_.workload + ": empty report");
            } else {
                const Single &s = singles_[k - nPinned - nPairs - 1];
                core::ExperimentRunner runner(s.spec);
                const auto sample = runner.repeatedMetric(
                    s.spec.baseline, s.setup, 1, s.noiseSeed);
                hashDouble(h, sample.mean());
                r.check(sample.count() == 1 && sample.mean() > 0.0,
                        "noisy run " + s.spec.workload + ": no metric");
            }
            digests[k] = h.value();
        }
        Fnv1a all;
        for (auto d : digests)
            all.u64(d);
        r.digest = all.value();
        return r;
    }

    std::string
    describeInputs() const override
    {
        std::string s;
        for (const auto *set : {&pinned_, &pairs_})
            for (const Pair &p : *set)
                s += "explain " + p.name + ' ' + p.spec.machine.name + ' ' +
                     p.a.str() + " vs " + p.b.str() + '\n';
        s += "causal " + causal_.workload;
        for (const auto &c : causalSetups_)
            s += ' ' + c.str();
        s += '\n';
        for (const Single &n : singles_)
            s += "noisy " + n.spec.workload + '@' + n.spec.machine.name + ' ' +
                 n.setup.str() + " seed=" + std::to_string(n.noiseSeed) + '\n';
        return s;
    }

  private:
    struct Pair
    {
        std::string name;
        core::ExperimentSpec spec;
        core::ExperimentSetup a, b;
        std::string golden; ///< pinned pairs only
    };
    struct Single
    {
        core::ExperimentSpec spec;
        core::ExperimentSetup setup;
        std::uint64_t noiseSeed = 0;
    };

    Options opts_;
    std::vector<Pair> pinned_;
    std::vector<Pair> pairs_;
    core::ExperimentSpec causal_;
    std::vector<core::ExperimentSetup> causalSetups_;
    std::vector<Single> singles_;
};

} // namespace

std::vector<std::string>
figureIds()
{
    std::vector<std::string> ids;
    for (const auto &spec : pipeline::FigureRegistry::instance().all())
        ids.push_back(spec.id);
    return ids;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &opts)
{
    if (name == "paper_all")
        return std::make_unique<PaperAll>(opts);
    if (name == "setup_sweep")
        return std::make_unique<SetupSweep>(opts);
    if (name == "noise_reps")
        return std::make_unique<NoiseReps>(opts);
    if (name == "explain_ref")
        return std::make_unique<ExplainRef>(opts);
    return nullptr;
}

} // namespace mbench
