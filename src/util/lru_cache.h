#ifndef DTT_UTIL_LRU_CACHE_H_
#define DTT_UTIL_LRU_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dtt {
namespace obs {
class Counter;
class Gauge;
}  // namespace obs

/// Aggregate counters of a ShardedLruCache (summed over shards).
struct LruCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t size = 0;    // entries currently resident
  size_t charge = 0;  // their summed charge (see ShardedLruCache::Put)

  double HitRate() const {
    const uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// The obs::MetricsRegistry::Global() counters "<prefix>.hits", ".misses",
/// ".insertions", ".evictions" a cache mirrors its events onto, plus the
/// gauge "<prefix>.<charge_gauge>" of its resident charge when `charge_gauge`
/// is non-empty; every call is a no-op when the prefix is empty.
class LruCacheMetrics {
 public:
  LruCacheMetrics(const std::string& prefix, const std::string& charge_gauge);

  void Hit() const { Bump(hits_); }
  void Miss() const { Bump(misses_); }
  void Insertion() const { Bump(insertions_); }
  void Eviction() const { Bump(evictions_); }
  void Charge(int64_t delta) const;

 private:
  static void Bump(obs::Counter* counter);

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* insertions_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Gauge* charge_ = nullptr;
};

/// A thread-safe string -> V LRU cache, sharded by key hash so that
/// concurrent lookups contend on shard mutexes instead of one global lock.
/// Each shard keeps its own recency list; capacity is split evenly across
/// shards (so strict global LRU order only holds with num_shards == 1 — the
/// trade made for lock spread). Capacity is a budget of charge: every entry
/// is charged 1 unless Put says otherwise, so by default it counts entries,
/// and a caller that charges bytes bounds the cache by bytes. Get returns a
/// copy of the value, so V should be cheap to copy (a string, a shared_ptr).
template <typename V>
class ShardedLruCache {
 public:
  /// `capacity` is the total charge budget across all shards (min 1 per
  /// shard); `num_shards` is clamped to [1, capacity]. A non-empty
  /// `metrics_prefix` additionally mirrors hit/miss/insertion/eviction
  /// events (and, under a non-empty `charge_gauge`, the resident charge)
  /// onto global metrics (see LruCacheMetrics), so they land in every bench
  /// JSON metrics block; the per-shard counters behind stats() are
  /// unaffected.
  ShardedLruCache(size_t capacity, int num_shards = 8,
                  const std::string& metrics_prefix = "",
                  const std::string& charge_gauge = "")
      : capacity_(std::max<size_t>(1, capacity)),
        metrics_(metrics_prefix, charge_gauge) {
    const size_t shards =
        std::min(capacity_, static_cast<size_t>(std::max(1, num_shards)));
    shards_.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
      auto shard = std::make_unique<Shard>();
      // Split the budget evenly; the remainder goes to the first shards so
      // the total never exceeds `capacity`.
      shard->capacity = capacity_ / shards + (i < capacity_ % shards ? 1 : 0);
      shards_.push_back(std::move(shard));
    }
  }

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<V> Get(const std::string& key) {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      ++shard.misses;
      metrics_.Miss();
      return std::nullopt;
    }
    ++shard.hits;
    metrics_.Hit();
    shard.order.splice(shard.order.begin(), shard.order, it->second);
    return it->second->value;
  }

  /// Inserts or overwrites `key` at `charge` units of its shard's budget
  /// (at least 1), evicting the shard's least-recently-used entries until it
  /// fits. An entry charged more than its shard's whole budget is not
  /// retained, and drops any older value under `key`. Returns whether the
  /// entry is resident. Overwriting counts as neither insertion nor
  /// eviction.
  bool Put(const std::string& key, V value, size_t charge = 1) {
    charge = std::max<size_t>(1, charge);
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    const bool overwrite = it != shard.index.end();
    if (overwrite) Erase(&shard, it->second);
    if (charge > shard.capacity) return false;
    while (shard.charge + charge > shard.capacity) {
      Erase(&shard, std::prev(shard.order.end()));
      ++shard.evictions;
      metrics_.Eviction();
    }
    shard.order.push_front({key, std::move(value), charge});
    // The index views the key the list node owns; nodes never move.
    shard.index.emplace(shard.order.front().key, shard.order.begin());
    shard.charge += charge;
    metrics_.Charge(static_cast<int64_t>(charge));
    if (!overwrite) {
      ++shard.insertions;
      metrics_.Insertion();
    }
    return true;
  }

  /// Counters summed over shards (each shard locked briefly in turn).
  LruCacheStats stats() const {
    LruCacheStats total;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.insertions += shard->insertions;
      total.evictions += shard->evictions;
      total.size += shard->order.size();
      total.charge += shard->charge;
    }
    return total;
  }

  size_t size() const { return stats().size; }
  size_t capacity() const { return capacity_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Entry {
    std::string key;
    V value;
    size_t charge;
  };
  using EntryIt = typename std::list<Entry>::iterator;

  struct Shard {
    mutable std::mutex mu;
    // Front = most recently used. The map points into the list, so entries
    // move (splice) without invalidating iterators.
    std::list<Entry> order;
    std::unordered_map<std::string_view, EntryIt> index;
    size_t capacity = 1;
    size_t charge = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // Unlinks one entry; the caller holds shard->mu.
  void Erase(Shard* shard, EntryIt entry) {
    shard->index.erase(entry->key);
    shard->charge -= entry->charge;
    metrics_.Charge(-static_cast<int64_t>(entry->charge));
    shard->order.erase(entry);
  }

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  size_t capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  LruCacheMetrics metrics_;
};

}  // namespace dtt

#endif  // DTT_UTIL_LRU_CACHE_H_
