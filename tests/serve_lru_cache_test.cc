#include "util/lru_cache.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace dtt {
namespace serve {
namespace {

TEST(ServeLruCacheTest, GetMissThenHit) {
  ShardedLruCache<std::string> cache(/*capacity=*/4, /*num_shards=*/1);
  EXPECT_FALSE(cache.Get("a").has_value());
  cache.Put("a", "1");
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "1");
}

TEST(ServeLruCacheTest, EvictsLeastRecentlyUsed) {
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Put("c", "3");  // evicts "a", the oldest
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_TRUE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeLruCacheTest, GetRefreshesRecency) {
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  ASSERT_TRUE(cache.Get("a").has_value());  // "b" is now least recent
  cache.Put("c", "3");                      // evicts "b"
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST(ServeLruCacheTest, PutRefreshesRecencyAndOverwrites) {
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Put("a", "updated");  // refresh, no growth
  EXPECT_EQ(cache.size(), 2u);
  cache.Put("c", "3");  // evicts "b"
  EXPECT_EQ(*cache.Get("a"), "updated");
  EXPECT_FALSE(cache.Get("b").has_value());
}

TEST(ServeLruCacheTest, ShardingNeverExceedsTotalCapacity) {
  ShardedLruCache<std::string> cache(/*capacity=*/8, /*num_shards=*/4);
  EXPECT_EQ(cache.num_shards(), 4);
  for (int i = 0; i < 100; ++i) {
    cache.Put("key-" + std::to_string(i), std::to_string(i));
    EXPECT_LE(cache.size(), 8u);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ServeLruCacheTest, ChargeBasedEviction) {
  ShardedLruCache<std::string> cache(/*capacity=*/10, /*num_shards=*/1);
  EXPECT_TRUE(cache.Put("a", "1", /*charge=*/4));
  EXPECT_TRUE(cache.Put("b", "2", /*charge=*/4));
  EXPECT_EQ(cache.stats().charge, 8u);
  ASSERT_TRUE(cache.Get("a").has_value());  // "b" is now least recent
  EXPECT_TRUE(cache.Put("c", "3", /*charge=*/3));  // 11 > 10: evicts "b"
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_EQ(cache.stats().charge, 7u);
  // One large entry pushes out as many entries as it needs.
  EXPECT_TRUE(cache.Put("d", "4", /*charge=*/9));
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("c").has_value());
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.charge, 9u);
  EXPECT_EQ(stats.evictions, 3u);
  // Overwriting recharges the entry rather than adding to it.
  EXPECT_TRUE(cache.Put("d", "5", /*charge=*/2));
  stats = cache.stats();
  EXPECT_EQ(stats.charge, 2u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(*cache.Get("d"), "5");
}

TEST(ServeLruCacheTest, OversizedEntryIsNotRetained) {
  ShardedLruCache<std::string> cache(/*capacity=*/10, /*num_shards=*/1);
  EXPECT_TRUE(cache.Put("a", "1", /*charge=*/6));
  EXPECT_FALSE(cache.Put("big", "x", /*charge=*/11));
  EXPECT_FALSE(cache.Get("big").has_value());
  // Nothing was evicted to make room for an entry that cannot fit.
  EXPECT_TRUE(cache.Get("a").has_value());
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.charge, 6u);
  // An oversized overwrite drops the older value under its key.
  EXPECT_FALSE(cache.Put("a", "2", /*charge=*/11));
  EXPECT_FALSE(cache.Get("a").has_value());
  stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.charge, 0u);
}

TEST(ServeLruCacheTest, ShardSplitOfAChargeBudgetNeverExceedsTotal) {
  // A budget that does not divide evenly, so the shards differ by one.
  constexpr size_t kBudget = 1003;
  ShardedLruCache<std::string> cache(kBudget, /*num_shards=*/8);
  ASSERT_EQ(cache.num_shards(), 8);
  // Entries of the largest charge one shard holds (kBudget / 8 + 1 = 126)
  // are retained only by the shards that got the remainder.
  size_t retained_big = 0;
  for (int i = 0; i < 64; ++i) {
    retained_big += cache.Put("big-" + std::to_string(i), "v", 126) ? 1 : 0;
    EXPECT_LE(cache.stats().charge, kBudget);
  }
  EXPECT_GT(retained_big, 0u);
  EXPECT_LT(retained_big, 64u);
  // Many small entries of mixed charge fill every shard to its share.
  for (int i = 0; i < 2000; ++i) {
    cache.Put("key-" + std::to_string(i), "v",
              static_cast<size_t>(1 + i % 7));
    EXPECT_LE(cache.stats().charge, kBudget);
  }
  EXPECT_GT(cache.stats().charge, kBudget - 8 * 7);
}

TEST(ServeLruCacheTest, MirrorsResidentChargeOntoAGauge) {
  const std::string prefix = "test.lru_charge_gauge";
  auto& metrics = obs::MetricsRegistry::Global();
  ShardedLruCache<std::string> cache(/*capacity=*/10, /*num_shards=*/1,
                                     prefix, "bytes");
  cache.Put("a", "1", 4);
  cache.Put("b", "2", 5);
  EXPECT_EQ(metrics.GetGauge(prefix + ".bytes")->Value(), 9);
  cache.Put("c", "3", 6);  // evicts "a" and "b"
  EXPECT_EQ(metrics.GetGauge(prefix + ".bytes")->Value(), 6);
  EXPECT_EQ(static_cast<size_t>(metrics.GetGauge(prefix + ".bytes")->Value()),
            cache.stats().charge);
}

TEST(ServeLruCacheTest, ShardCountClampedToCapacity) {
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/16);
  EXPECT_LE(cache.num_shards(), 2);
  ShardedLruCache<std::string> tiny(/*capacity=*/0, /*num_shards=*/0);
  EXPECT_EQ(tiny.num_shards(), 1);
  tiny.Put("a", "1");
  EXPECT_TRUE(tiny.Get("a").has_value());  // capacity clamps to 1
}

TEST(ServeLruCacheTest, StatsCountHitsMissesInsertionsEvictions) {
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Get("a");       // miss
  cache.Put("a", "1");  // insertion
  cache.Get("a");       // hit
  cache.Put("b", "2");
  cache.Put("c", "3");  // eviction
  LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

// Hammered from several threads; TSan (CI) checks the shard locking.
TEST(ServeLruCacheTest, ConcurrentGetPutIsSafe) {
  ShardedLruCache<std::string> cache(/*capacity=*/64, /*num_shards=*/8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const std::string key = "key-" + std::to_string((t * 13 + i) % 96);
        if (i % 3 == 0) {
          cache.Put(key, std::to_string(i));
        } else {
          auto value = cache.Get(key);
          if (value.has_value()) {
            ASSERT_FALSE(value->empty());
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_LE(cache.size(), 64u);
  const LruCacheStats stats = cache.stats();
  // Every Get was counted exactly once: 333 gets per thread (i % 3 != 0).
  EXPECT_EQ(stats.hits + stats.misses, 4u * 333u);
}

TEST(ServeLruCacheTest, MirrorsCountersIntoGlobalMetrics) {
  // A prefix unique to this test keeps the global registry assertions exact
  // even when other suites in this process also touch metrics.
  const std::string prefix = "test.lru_metrics_mirror";
  auto& metrics = obs::MetricsRegistry::Global();
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1, prefix);

  EXPECT_FALSE(cache.Get("a").has_value());  // miss
  cache.Put("a", "1");                       // insertion
  cache.Put("b", "2");                       // insertion
  EXPECT_TRUE(cache.Get("a").has_value());   // hit
  cache.Put("c", "3");                       // insertion + eviction of "b"

  EXPECT_EQ(metrics.GetCounter(prefix + ".hits")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter(prefix + ".misses")->Value(), 1u);
  EXPECT_EQ(metrics.GetCounter(prefix + ".insertions")->Value(), 3u);
  EXPECT_EQ(metrics.GetCounter(prefix + ".evictions")->Value(), 1u);

  // The shard-local stats() counters are unchanged in meaning.
  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ServeLruCacheTest, NoPrefixMeansNoGlobalMetrics) {
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t before = metrics.GetCounter("serve.cache.hits")->Value();
  ShardedLruCache<std::string> cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Put("a", "1");
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_EQ(metrics.GetCounter("serve.cache.hits")->Value(), before);
}

}  // namespace
}  // namespace serve
}  // namespace dtt
