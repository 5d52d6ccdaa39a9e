/**
 * @file
 * The campaign engine's central promise: a parallel campaign is
 * bitwise-identical to a serial one, for any thread count, schedule,
 * or completion order.  Also unit-tests the work-stealing pool the
 * promise rides on.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <vector>

#include "campaign/engine.hh"
#include "parallel/pool.hh"

namespace
{

using namespace mbias;
using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignSpec;
using parallel::ThreadPool;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        constexpr std::size_t count = 1000;
        std::vector<std::atomic<unsigned>> ran(count);
        ThreadPool pool(jobs);
        pool.parallelFor(count, [&](std::size_t i, unsigned w) {
            ASSERT_LT(w, pool.jobs());
            ran[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(ran[i].load(), 1u) << "task " << i;
    }
}

TEST(ThreadPool, MoreJobsThanTasks)
{
    std::vector<std::atomic<unsigned>> ran(3);
    ThreadPool pool(16);
    pool.parallelFor(3, [&](std::size_t i, unsigned) { ran[i]++; });
    for (auto &r : ran)
        EXPECT_EQ(r.load(), 1u);
    ThreadPool zero(0); // treated as 1
    EXPECT_EQ(zero.jobs(), 1u);
    zero.parallelFor(0, [&](std::size_t, unsigned) { FAIL(); });
}

TEST(ThreadPool, StealingDrainsImbalancedLoad)
{
    // Worker 0's share is made artificially slow; the others must
    // steal the rest of its deque for the sweep to finish promptly.
    constexpr std::size_t count = 64;
    std::atomic<std::size_t> done{0};
    ThreadPool pool(4);
    pool.parallelFor(count, [&](std::size_t i, unsigned) {
        if (i == 0) {
            volatile std::uint64_t sink = 0;
            for (int k = 0; k < 2'000'000; ++k)
                sink = sink + k;
        }
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), count);
}

/** Speedup bit patterns of a campaign run with @p jobs workers. */
std::vector<std::uint64_t>
speedupBits(const CampaignSpec &spec, unsigned jobs)
{
    CampaignOptions opts;
    opts.jobs = jobs;
    auto report = CampaignEngine(spec, opts).run();
    std::vector<std::uint64_t> bits;
    for (const auto &o : report.bias.outcomes)
        bits.push_back(std::bit_cast<std::uint64_t>(o.speedup));
    return bits;
}

// The acceptance bar for the subsystem: >= 200 setup x seed tasks,
// --jobs 8 bitwise-equal to --jobs 1.
TEST(CampaignDeterminism, ParallelEqualsSerialAt200Tasks)
{
    CampaignSpec spec; // perl, core2like, gcc O2 vs O3
    spec.withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(), 200)
        .withSeed(0xca11ab1eULL);
    const auto serial = speedupBits(spec, 1);
    const auto parallel = speedupBits(spec, 8);
    ASSERT_EQ(serial.size(), 200u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "task " << i;
}

// Same promise for the ASLR repetition plan, whose per-run seeds all
// derive from task seeds (never from execution order).
TEST(CampaignDeterminism, AslrPlanIsScheduleIndependent)
{
    CampaignSpec spec;
    spec.withSpace(core::SetupSpace().varyEnvSize(), 12)
        .withPlan({campaign::RepetitionPlan::Kind::AslrRandomized, 5})
        .withSeed(7);
    EXPECT_EQ(speedupBits(spec, 1), speedupBits(spec, 8));
}

TEST(CampaignDeterminism, ExpansionIsAPureFunctionOfSpec)
{
    CampaignSpec spec;
    spec.withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(), 32)
        .withSeed(3);
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].setup, b[i].setup);
        EXPECT_EQ(a[i].taskSeed, b[i].taskSeed);
        EXPECT_EQ(a[i].index, i);
    }
    // Distinct seeds sample distinct setup sequences.
    CampaignSpec other = spec;
    other.withSeed(4);
    const auto c = other.expand();
    unsigned same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].setup == c[i].setup;
    EXPECT_LT(same, 4u);
}

} // namespace
