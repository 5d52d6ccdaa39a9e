#ifndef MBIAS_BASE_LRU_CACHE_HH
#define MBIAS_BASE_LRU_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/logging.hh"

namespace mbias
{

/**
 * The one cache policy every process-wide cache uses (toolchain
 * artifacts, execution plans, trace plans, replay recordings): a
 * thread-safe map from Key to Value with least-recently-used eviction.
 *
 *  - find() marks a hit most recently used; a build on a miss runs
 *    *outside* the lock (getOrBuild);
 *  - insert() is first-insert-wins: a thread that lost a race for the
 *    same key gets the stored value back, so every caller ends up with
 *    one value per key (the owners' builds are deterministic, so the
 *    race never changes a result);
 *  - every entry carries a weight, and the cache is bounded either by
 *    its entry count or by the sum of the weights (Bound); eviction
 *    trims from the least recently used end, but never evicts the most
 *    recently used entry, so a value larger than the whole budget is
 *    still cached until the next insert replaces it;
 *  - hits, misses and evictions are counted once, here; clear() drops
 *    the entries and their bytes but keeps the counts.
 *
 * One mutex guards everything: a lookup is one lock, one hash probe
 * and one list splice.
 */
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache
{
  public:
    /** What the capacity bounds. */
    enum class Bound
    {
        Entries, ///< the number of entries
        Bytes,   ///< the sum of the entries' weights
    };

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0; ///< resident entries
        std::uint64_t bytes = 0;   ///< sum of resident weights
    };

    explicit LruCache(std::uint64_t capacity, Bound bound = Bound::Entries)
        : capacity_(capacity), bound_(bound)
    {
        mbias_assert(capacity > 0, "cache capacity must be nonzero");
    }

    /** The value cached for @p key, marked most recently used (a
     *  hit), or nothing (a miss).  A stored null value is a hit. */
    std::optional<Value>
    find(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return std::nullopt;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        ++hits_;
        return it->second->value;
    }

    /** Caches @p value under @p key unless the key is already present
     *  (first insert wins), and returns the stored value.  Counts no
     *  hit or miss: the find() before it did. */
    Value
    insert(const Key &key, Value value, std::uint64_t weight = 1)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return it->second->value;
        }
        lru_.push_front(Node{key, std::move(value), weight});
        map_.emplace(key, lru_.begin());
        bytes_ += weight;
        while ((bound_ == Bound::Entries ? lru_.size() : bytes_) >
                   capacity_ &&
               lru_.size() > 1) {
            bytes_ -= lru_.back().weight;
            map_.erase(lru_.back().key);
            lru_.pop_back();
            ++evictions_;
        }
        return lru_.front().value;
    }

    /**
     * The value for @p key: a hit, or on a miss @p build() run outside
     * the lock and inserted.  @p build returns the value and its weight
     * as a std::pair.
     */
    template <typename Build>
    Value
    getOrBuild(const Key &key, Build &&build)
    {
        if (auto hit = find(key))
            return std::move(*hit);
        auto [value, weight] = build();
        return insert(key, std::move(value), weight);
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return Stats{hits_, misses_, evictions_, lru_.size(), bytes_};
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        lru_.clear();
        bytes_ = 0;
    }

  private:
    struct Node
    {
        Key key;
        Value value;
        std::uint64_t weight;
    };
    using List = std::list<Node>;

    mutable std::mutex mutex_;
    const std::uint64_t capacity_;
    const Bound bound_;
    List lru_; ///< most recently used at the front
    std::unordered_map<Key, typename List::iterator, Hash> map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t bytes_ = 0;
};

} // namespace mbias

#endif // MBIAS_BASE_LRU_CACHE_HH
