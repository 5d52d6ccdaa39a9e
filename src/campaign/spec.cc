#include "campaign/spec.hh"

#include <sstream>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "obs/trace.hh"

namespace mbias::campaign
{

namespace
{

// Distinct derivation domains so the setup-sampling stream and the
// task-seed stream of the same index never collide.
constexpr std::uint64_t setup_domain = 0x5345545550ULL; // "SETUP"
constexpr std::uint64_t seed_domain = 0x5345454453ULL;  // "SEEDS"

} // namespace

CampaignSpec &
CampaignSpec::withExperiment(core::ExperimentSpec spec)
{
    experiment = std::move(spec);
    return *this;
}

CampaignSpec &
CampaignSpec::withPlan(RepetitionPlan p)
{
    mbias_assert(p.reps >= 1, "repetition plan needs at least one rep");
    plan = p;
    return *this;
}

CampaignSpec &
CampaignSpec::withSeed(std::uint64_t s)
{
    seed = s;
    return *this;
}

CampaignSpec &
CampaignSpec::withSpAlign(std::uint64_t align)
{
    spAlign = align;
    return *this;
}

CampaignSpec &
CampaignSpec::withSetups(std::vector<core::ExperimentSetup> setups)
{
    mbias_assert(!setups.empty(), "campaign needs at least one setup");
    explicitSetups_ = std::move(setups);
    seededSetups_.clear();
    space_.reset();
    sampled_ = 0;
    return *this;
}

CampaignSpec &
CampaignSpec::withSeededSetups(std::vector<SeededSetup> setups)
{
    mbias_assert(!setups.empty(), "campaign needs at least one setup");
    seededSetups_ = std::move(setups);
    explicitSetups_.clear();
    space_.reset();
    sampled_ = 0;
    return *this;
}

CampaignSpec &
CampaignSpec::withSpace(core::SetupSpace space, unsigned n)
{
    mbias_assert(n >= 1, "campaign needs at least one setup");
    space_ = space;
    sampled_ = n;
    explicitSetups_.clear();
    seededSetups_.clear();
    return *this;
}

std::size_t
CampaignSpec::taskCount() const
{
    if (space_)
        return sampled_;
    if (!seededSetups_.empty())
        return seededSetups_.size();
    return explicitSetups_.size();
}

std::vector<CampaignTask>
CampaignSpec::expand() const
{
    mbias_assert(taskCount() > 0,
                 "campaign has no setups: call withSetups or withSpace");
    obs::ScopedSpan span("campaign.expand", "campaign");
    std::vector<CampaignTask> tasks;
    tasks.reserve(taskCount());
    for (std::size_t i = 0; i < taskCount(); ++i) {
        CampaignTask t;
        t.index = i;
        if (space_) {
            // Each task samples from its own child stream keyed by
            // index: task i's setup does not depend on how many other
            // tasks exist or which ones expanded first.
            Rng rng = streamRng(mixSeed(seed, setup_domain), i);
            t.setup = space_->sample(rng);
        } else if (!seededSetups_.empty()) {
            t.setup = seededSetups_[i].setup;
        } else {
            t.setup = explicitSetups_[i];
        }
        // Seeded setups pin the task seed exactly (figures whose
        // historical noise seeds follow a grid formula); everything
        // else derives it from the campaign seed and the index.
        t.taskSeed = seededSetups_.empty()
                         ? mixSeed(mixSeed(seed, seed_domain), i)
                         : seededSetups_[i].taskSeed;
        t.plan = plan;
        tasks.push_back(std::move(t));
    }
    return tasks;
}

std::string
CampaignSpec::str() const
{
    std::ostringstream os;
    os << experiment.str() << ", " << taskCount() << " setups";
    switch (plan.kind) {
      case RepetitionPlan::Kind::Single:
        break;
      case RepetitionPlan::Kind::AslrRandomized:
        os << " x " << plan.reps << " ASLR runs/side";
        break;
      case RepetitionPlan::Kind::BaselineOnly:
        os << ", baseline side only";
        break;
      case RepetitionPlan::Kind::NoiseRepeated:
        os << " x " << plan.reps << " noise reps (baseline)";
        break;
      case RepetitionPlan::Kind::NoisePaired:
        os << " x " << plan.reps << " noise reps/side";
        break;
    }
    os << " (seed " << seed << ")";
    return os.str();
}

} // namespace mbias::campaign
