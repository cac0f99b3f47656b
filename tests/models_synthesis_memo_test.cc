#include "models/synthesis_memo.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace dtt {
namespace induction {
namespace {

std::vector<std::string> Keys(const std::vector<AtomProgram>& programs) {
  std::vector<std::string> keys;
  for (const AtomProgram& p : programs) keys.push_back(p.Key());
  return keys;
}

const std::vector<ExamplePair> kPair = {{"John Smith", "jsmith"},
                                        {"Mary Jones", "mjones"}};

TEST(SynthesisMemoTest, HitReturnsIdenticalObject) {
  SynthesisMemo memo(8);
  InductionConfig cfg;
  const ProgramList first = memo.Programs(kPair[0], cfg);
  const ProgramList second = memo.Programs(kPair[0], cfg);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(Keys(*first), Keys(SynthesizePrograms(kPair[0], cfg)));

  const ProgramList common = memo.CommonPrograms(kPair, cfg);
  EXPECT_EQ(memo.CommonPrograms(kPair, cfg).get(), common.get());
  EXPECT_EQ(Keys(*common), Keys(SynthesizeCommonPrograms(kPair, cfg)));

  const LruCacheStats stats = memo.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(SynthesisMemoTest, OneExampleSetSharesThePairEntry) {
  SynthesisMemo memo(8);
  InductionConfig cfg;
  const ProgramList single = memo.Programs(kPair[0], cfg);
  EXPECT_EQ(memo.CommonPrograms({kPair[0]}, cfg).get(), single.get());
}

TEST(SynthesisMemoTest, EveryConfigFieldIsPartOfTheKey) {
  // One flip per InductionConfig field (SynthesisMemo::Key's static_assert
  // pins the field list).
  const std::vector<std::function<void(InductionConfig*)>> flips = {
      [](InductionConfig* c) { c->allow_char_range = !c->allow_char_range; },
      [](InductionConfig* c) { c->allow_token_slice = !c->allow_token_slice; },
      [](InductionConfig* c) { c->allow_tokens = !c->allow_tokens; },
      [](InductionConfig* c) { ++c->max_literal_len; },
      [](InductionConfig* c) { ++c->max_atoms; },
      [](InductionConfig* c) { ++c->min_char_range_len; },
      [](InductionConfig* c) { ++c->min_nonprefix_slice_len; },
      [](InductionConfig* c) { ++c->beam_width; },
      [](InductionConfig* c) { ++c->max_programs; },
      [](InductionConfig* c) { c->separators += "#"; },
  };
  SynthesisMemo memo(64);
  const InductionConfig base;
  const ProgramList cached = memo.CommonPrograms(kPair, base);
  for (size_t i = 0; i < flips.size(); ++i) {
    InductionConfig flipped = base;
    flips[i](&flipped);
    EXPECT_NE(SynthesisMemo::Key(kPair.data(), kPair.size(), flipped),
              SynthesisMemo::Key(kPair.data(), kPair.size(), base))
        << "field " << i;
    const uint64_t misses = memo.stats().misses;
    EXPECT_NE(memo.CommonPrograms(kPair, flipped).get(), cached.get())
        << "field " << i;
    EXPECT_EQ(memo.stats().misses, misses + 1) << "field " << i;
  }
}

TEST(SynthesisMemoTest, ExampleOrderAndBoundariesArePartOfTheKey) {
  SynthesisMemo memo(8);
  InductionConfig cfg;
  const std::vector<ExamplePair> swapped = {kPair[1], kPair[0]};
  const ProgramList forward = memo.CommonPrograms(kPair, cfg);
  const ProgramList backward = memo.CommonPrograms(swapped, cfg);
  EXPECT_NE(forward.get(), backward.get());
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // Length prefixes keep the source/target boundary in the key.
  const ExamplePair a{"ab", "c"};
  const ExamplePair b{"a", "bc"};
  EXPECT_NE(SynthesisMemo::Key(&a, 1, cfg), SynthesisMemo::Key(&b, 1, cfg));
}

TEST(SynthesisMemoTest, EvictsAtCapacity) {
  SynthesisMemo memo(/*capacity=*/2, /*num_shards=*/1);
  InductionConfig cfg;
  const ExamplePair a{"alpha beta", "beta"};
  const ExamplePair b{"gamma delta", "gamma"};
  const ExamplePair c{"x-y-z", "z"};
  memo.Programs(a, cfg);
  memo.Programs(b, cfg);
  EXPECT_EQ(memo.stats().evictions, 0u);
  memo.Programs(c, cfg);  // evicts `a`, the least recently used
  LruCacheStats stats = memo.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  memo.Programs(c, cfg);
  memo.Programs(a, cfg);
  stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(SynthesisMemoTest, ConcurrentCallersAgreeWithUncachedSynthesis) {
  // More distinct sets than entries, so threads race through hits, misses
  // and evictions at once.
  InductionConfig cfg;
  std::vector<std::vector<ExamplePair>> sets;
  std::vector<std::vector<std::string>> expected;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    sets.push_back({{"Ann" + n + " Lee", "lee" + n},
                    {"Bob" + n + " Ray", "ray" + n}});
    expected.push_back(Keys(SynthesizeCommonPrograms(sets.back(), cfg)));
  }
  SynthesisMemo memo(/*capacity=*/4, /*num_shards=*/2);
  constexpr int kThreads = 6;
  constexpr int kCalls = 40;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const size_t s = static_cast<size_t>(t * 7 + i) % sets.size();
        if (Keys(*memo.CommonPrograms(sets[s], cfg)) != expected[s]) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  const LruCacheStats stats = memo.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kCalls));
  EXPECT_LE(stats.size, 4u);
}

TEST(SynthesisMemoTest, SharedMemoMirrorsGlobalCounters) {
  auto& metrics = obs::MetricsRegistry::Global();
  const uint64_t hits = metrics.GetCounter("models.synth_cache.hits")->Value();
  const uint64_t misses =
      metrics.GetCounter("models.synth_cache.misses")->Value();
  // An example no other test in this process synthesizes.
  const ExamplePair unique{"SharedMemoMirrorsGlobalCounters", "Mirrors"};
  InductionConfig cfg;
  SynthesisMemo& shared = SynthesisMemo::Shared();
  EXPECT_EQ(&shared, &SynthesisMemo::Shared());
  shared.Programs(unique, cfg);
  shared.Programs(unique, cfg);
  EXPECT_EQ(metrics.GetCounter("models.synth_cache.misses")->Value(),
            misses + 1);
  EXPECT_EQ(metrics.GetCounter("models.synth_cache.hits")->Value(), hits + 1);
}

}  // namespace
}  // namespace induction
}  // namespace dtt
