#include "models/synthesis_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace dtt {
namespace induction {
namespace {

// Ample for every test below that does not test eviction.
constexpr size_t kBudget = size_t{1} << 20;

const std::vector<ExamplePair> kPair = {{"John Smith", "jsmith"},
                                        {"Mary Jones", "mjones"}};

// Inputs the programs of kPair-like examples are observed on.
const std::vector<std::string> kInputs = {"John Smith", "Mary Jones",
                                          "Ann Lee", "Bo", "x-y z w", ""};

// What a caller observes of a program list: every program's score and output
// on each of kInputs.
std::vector<std::string> Behaviour(const std::vector<AtomProgram>& programs) {
  std::vector<std::string> seen;
  InductionConfig cfg;
  for (const AtomProgram& p : programs) {
    seen.push_back(std::to_string(p.score));
    for (const std::string& input : kInputs) {
      seen.push_back(p.Apply(input, cfg.separators).value_or("<none>"));
    }
  }
  return seen;
}

std::vector<std::string> Behaviour(const ProgramList& programs) {
  std::vector<std::string> seen;
  InductionConfig cfg;
  std::string out;
  for (size_t i = 0; i < programs.size(); ++i) {
    seen.push_back(std::to_string(programs.score(i)));
    for (const std::string& input : kInputs) {
      programs.Apply(i, TokenCache(input, cfg.separators), &out);
      seen.push_back(out);
    }
  }
  return seen;
}

// The bytes `examples` are charged in a memo: key plus compact encoding.
size_t Charge(const std::vector<ExamplePair>& examples,
              const InductionConfig& cfg) {
  return SynthesisMemo::Key(examples.data(), examples.size(), cfg).size() +
         CompactPrograms::Encode(SynthesizeCommonPrograms(examples, cfg))
             ->bytes();
}

TEST(SynthesisMemoTest, HitReturnsIdenticalObject) {
  SynthesisMemo memo(kBudget);
  InductionConfig cfg;
  const ProgramList first = memo.Programs(kPair[0], cfg);
  const ProgramList second = memo.Programs(kPair[0], cfg);
  ASSERT_NE(first.data(), nullptr);
  EXPECT_TRUE(first.compact());
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(Behaviour(first), Behaviour(SynthesizePrograms(kPair[0], cfg)));

  const ProgramList common = memo.CommonPrograms(kPair, cfg);
  EXPECT_EQ(memo.CommonPrograms(kPair, cfg).data(), common.data());
  EXPECT_EQ(Behaviour(common),
            Behaviour(SynthesizeCommonPrograms(kPair, cfg)));

  const LruCacheStats stats = memo.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(SynthesisMemoTest, OneExampleSetSharesThePairEntry) {
  SynthesisMemo memo(kBudget);
  InductionConfig cfg;
  const ProgramList single = memo.Programs(kPair[0], cfg);
  EXPECT_EQ(memo.CommonPrograms({kPair[0]}, cfg).data(), single.data());
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
  SynthesisMemo memo(kBudget);
  const InductionConfig base;
  const ProgramList cached = memo.CommonPrograms(kPair, base);
  for (size_t i = 0; i < flips.size(); ++i) {
    InductionConfig flipped = base;
    flips[i](&flipped);
    EXPECT_NE(SynthesisMemo::Key(kPair.data(), kPair.size(), flipped),
              SynthesisMemo::Key(kPair.data(), kPair.size(), base))
        << "field " << i;
    const uint64_t misses = memo.stats().misses;
    EXPECT_NE(memo.CommonPrograms(kPair, flipped).data(), cached.data())
        << "field " << i;
    EXPECT_EQ(memo.stats().misses, misses + 1) << "field " << i;
  }
}

TEST(SynthesisMemoTest, ExampleOrderAndBoundariesArePartOfTheKey) {
  SynthesisMemo memo(kBudget);
  InductionConfig cfg;
  const std::vector<ExamplePair> swapped = {kPair[1], kPair[0]};
  const ProgramList forward = memo.CommonPrograms(kPair, cfg);
  const ProgramList backward = memo.CommonPrograms(swapped, cfg);
  EXPECT_NE(forward.data(), backward.data());
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);

  // Length prefixes keep the source/target boundary in the key.
  const ExamplePair a{"ab", "c"};
  const ExamplePair b{"a", "bc"};
  EXPECT_NE(SynthesisMemo::Key(&a, 1, cfg), SynthesisMemo::Key(&b, 1, cfg));
}

TEST(SynthesisMemoTest, EvictsAtCapacity) {
  // A byte budget that holds any two of the three entries but not all three.
  InductionConfig cfg;
  const ExamplePair a{"alpha beta", "beta"};
  const ExamplePair b{"gamma delta", "gamma"};
  const ExamplePair c{"x-y-z", "z"};
  const size_t ca = Charge({a}, cfg);
  const size_t cb = Charge({b}, cfg);
  const size_t cc = Charge({c}, cfg);
  SynthesisMemo memo(/*byte_budget=*/std::max({ca + cb, cb + cc, ca + cc}),
                     /*num_shards=*/1);
  memo.Programs(a, cfg);
  memo.Programs(b, cfg);
  EXPECT_EQ(memo.stats().evictions, 0u);
  EXPECT_EQ(memo.stats().charge, ca + cb);
  memo.Programs(c, cfg);  // evicts `a`, the least recently used
  LruCacheStats stats = memo.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.charge, cb + cc);
  memo.Programs(c, cfg);
  memo.Programs(a, cfg);  // evicts `b`
  stats = memo.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.charge, cc + ca);
  EXPECT_EQ(memo.uncached(), 0u);
}

TEST(SynthesisMemoTest, EntryOverAShardBudgetIsReturnedUncached) {
  InductionConfig cfg;
  const size_t charge = Charge({kPair[0]}, cfg);
  SynthesisMemo memo(/*byte_budget=*/charge - 1, /*num_shards=*/1);
  const ProgramList first = memo.Programs(kPair[0], cfg);
  EXPECT_TRUE(first.compact());
  EXPECT_EQ(Behaviour(first), Behaviour(SynthesizePrograms(kPair[0], cfg)));
  EXPECT_EQ(memo.stats().size, 0u);
  EXPECT_EQ(memo.stats().charge, 0u);
  EXPECT_EQ(memo.uncached(), 1u);
  memo.Programs(kPair[0], cfg);
  EXPECT_EQ(memo.stats().misses, 2u);
  EXPECT_EQ(memo.uncached(), 2u);
}

TEST(SynthesisMemoTest, FieldTooWideForTheEncodingIsReturnedUncached) {
  // A character range starting past CompactPrograms::kMaxIndex: the result
  // is not truncated into the encoding but returned whole, and counted.
  InductionConfig cfg;
  const ExamplePair wide{std::string(40000, 'a') + "XYZ", "XYZ"};
  const std::vector<AtomProgram> expected = SynthesizePrograms(wide, cfg);
  ASSERT_FALSE(expected.empty());
  ASSERT_FALSE(CompactPrograms::Encode(expected).has_value());

  auto& metrics = obs::MetricsRegistry::Global();
  const std::string prefix = "test.synth_memo_uncached";
  SynthesisMemo memo(kBudget, /*num_shards=*/1, prefix);
  const ProgramList programs = memo.Programs(wide, cfg);
  EXPECT_FALSE(programs.compact());
  EXPECT_EQ(memo.uncached(), 1u);
  EXPECT_EQ(metrics.GetCounter(prefix + ".uncached")->Value(), 1u);
  EXPECT_EQ(memo.stats().size, 0u);
  EXPECT_EQ(metrics.GetGauge(prefix + ".bytes")->Value(), 0);

  // Every program intact: the first-applicable output on a long input of the
  // same shape is the oracle's.
  const std::string input = std::string(40000, 'b') + "QRS";
  const TokenCache cache(input, cfg.separators);
  ASSERT_EQ(programs.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::string out;
    programs.Apply(i, cache, &out);
    EXPECT_EQ(out, *expected[i].Apply(input, cfg.separators)) << i;
    EXPECT_EQ(programs.score(i), expected[i].score) << i;
  }
  std::string out;
  EXPECT_EQ(programs.FirstApplicable(cache, &out), 0u);
  EXPECT_EQ(out, "QRS");

  // A cached entry moves the bytes gauge by its charge.
  memo.Programs(kPair[0], cfg);
  EXPECT_EQ(metrics.GetGauge(prefix + ".bytes")->Value(),
            static_cast<int64_t>(Charge({kPair[0]}, cfg)));
}

TEST(SynthesisMemoTest, ConcurrentCallersAgreeWithUncachedSynthesis) {
  // More distinct sets than entries, so threads race through hits, misses
  // and evictions at once.
  InductionConfig cfg;
  std::vector<std::vector<ExamplePair>> sets;
  std::vector<std::vector<std::string>> expected;
  size_t max_charge = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    sets.push_back({{"Ann" + n + " Lee", "lee" + n},
                    {"Bob" + n + " Ray", "ray" + n}});
    expected.push_back(Behaviour(SynthesizeCommonPrograms(sets.back(), cfg)));
    max_charge = std::max(max_charge, Charge(sets.back(), cfg));
  }
  // Room for about four entries over the two shards.
  const size_t budget = 4 * max_charge;
  SynthesisMemo memo(budget, /*num_shards=*/2);
  constexpr int kThreads = 6;
  constexpr int kCalls = 40;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const size_t s = static_cast<size_t>(t * 7 + i) % sets.size();
        if (Behaviour(memo.CommonPrograms(sets[s], cfg)) != expected[s]) {
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
  EXPECT_LE(stats.charge, budget);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(memo.uncached(), 0u);
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
