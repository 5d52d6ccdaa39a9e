/** @file Tests for the LRU cache every process-wide cache shares. */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "base/lru_cache.hh"

namespace
{

using namespace mbias;

using IntCache = LruCache<int, int>;

TEST(LruCache, RacingMissesConvergeOnTheFirstInsert)
{
    // No build returns before all eight threads are inside one, so
    // every lookup misses; the first insert wins and every thread gets
    // its value back.
    LruCache<int, std::shared_ptr<const int>> cache(4);
    constexpr int kThreads = 8;
    std::atomic<int> building{0};
    std::vector<std::shared_ptr<const int>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            seen[t] = cache.getOrBuild(7, [&] {
                building.fetch_add(1);
                while (building.load() < kThreads)
                    std::this_thread::yield();
                return std::pair(std::make_shared<const int>(t),
                                 std::uint64_t(1));
            });
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t].get(), seen[0].get());
    const auto s = cache.stats();
    EXPECT_EQ(s.misses, std::uint64_t(kThreads)); // losers count too
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 1u);
}

TEST(LruCache, FirstInsertWins)
{
    IntCache cache(4);
    EXPECT_EQ(cache.insert(1, 10), 10);
    EXPECT_EQ(cache.insert(1, 20), 10);
    EXPECT_EQ(cache.find(1), 10);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(LruCache, OneUnitBudgetKeepsOnlyTheMostRecentlyUsed)
{
    // Every entry outweighs the whole budget, yet the newest one is
    // never evicted.
    for (const auto bound : {IntCache::Bound::Entries, IntCache::Bound::Bytes}) {
        IntCache cache(1, bound);
        for (int k = 0; k < 10; ++k)
            cache.insert(k, k * k, 5);
        const auto s = cache.stats();
        EXPECT_EQ(s.entries, 1u);
        EXPECT_EQ(s.bytes, 5u);
        EXPECT_EQ(s.evictions, 9u);
        EXPECT_EQ(cache.find(9), 81);
        EXPECT_EQ(cache.find(0), std::nullopt);
    }
}

TEST(LruCache, EntryBoundEvictsTheLeastRecentlyUsed)
{
    IntCache cache(3);
    for (int k = 0; k < 3; ++k)
        cache.insert(k, k, 100); // weights do not count against it
    EXPECT_EQ(cache.stats().evictions, 0u);
    ASSERT_EQ(cache.find(0), 0); // 1 is now the oldest
    cache.insert(3, 3);
    EXPECT_EQ(cache.find(1), std::nullopt);
    EXPECT_EQ(cache.find(0), 0);
    EXPECT_EQ(cache.find(2), 2);
    const auto s = cache.stats();
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.bytes, 201u);
}

TEST(LruCache, ByteBoundEvictsUntilWithinBudget)
{
    IntCache cache(100, IntCache::Bound::Bytes);
    cache.insert(0, 0, 40);
    cache.insert(1, 1, 40);
    EXPECT_EQ(cache.stats().evictions, 0u);
    cache.insert(2, 2, 40); // 120 > 100: the oldest goes
    auto s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, 80u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(cache.find(0), std::nullopt);

    cache.insert(3, 3, 90); // 170: both older entries go
    s = cache.stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.bytes, 90u);
    EXPECT_EQ(s.evictions, 3u);
}

TEST(LruCache, NullValueIsStoredAndCountsAsAHit)
{
    LruCache<int, std::shared_ptr<const int>> cache(4);
    EXPECT_EQ(cache.insert(1, nullptr), nullptr);
    const auto hit = cache.find(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, nullptr);
    EXPECT_FALSE(cache.find(2).has_value());
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.entries, 1u);
}

TEST(LruCache, GetOrBuildBuildsOnlyOnAMiss)
{
    IntCache cache(4);
    int builds = 0;
    const auto build = [&] {
        ++builds;
        return std::pair(42, std::uint64_t(3));
    };
    EXPECT_EQ(cache.getOrBuild(1, build), 42);
    EXPECT_EQ(cache.getOrBuild(1, build), 42);
    EXPECT_EQ(builds, 1);
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.bytes, 3u);
}

TEST(LruCache, ClearResetsBytesButKeepsCounts)
{
    IntCache cache(100, IntCache::Bound::Bytes);
    cache.insert(1, 1, 30);
    cache.insert(2, 2, 30);
    cache.find(1);
    cache.clear();
    const auto s = cache.stats();
    EXPECT_EQ(s.bytes, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(cache.find(1), std::nullopt);
    // The freed budget is whole again.
    cache.insert(3, 3, 100);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

} // namespace
