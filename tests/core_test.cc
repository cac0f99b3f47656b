#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <thread>

#include "core/aggregator.h"
#include "core/joiner.h"
#include "core/pipeline.h"
#include "core/tasks.h"
#include "models/neural_model.h"
#include "models/pattern_induction.h"

namespace dtt {
namespace {

TEST(AggregatorTest, MajorityWins) {
  Aggregator agg;
  auto r = agg.Aggregate({"a", "b", "a", "a", "c"});
  EXPECT_EQ(r.prediction, "a");
  EXPECT_EQ(r.support, 3);
  EXPECT_EQ(r.trials, 5);
  EXPECT_DOUBLE_EQ(r.confidence, 0.6);
}

TEST(AggregatorTest, AbstentionsExcludedFromTrials) {
  Aggregator agg;
  auto r = agg.Aggregate({"", "", "x", "x", ""});
  EXPECT_EQ(r.prediction, "x");
  EXPECT_EQ(r.trials, 2);
  EXPECT_DOUBLE_EQ(r.confidence, 1.0);
}

TEST(AggregatorTest, AllAbstainedYieldsEmpty) {
  Aggregator agg;
  auto r = agg.Aggregate({"", "", ""});
  EXPECT_TRUE(r.prediction.empty());
  EXPECT_EQ(r.trials, 0);
}

TEST(AggregatorTest, EmptyInput) {
  Aggregator agg;
  auto r = agg.Aggregate({});
  EXPECT_TRUE(r.prediction.empty());
}

TEST(AggregatorTest, TieBreaksByLengthThenLexicographic) {
  Aggregator agg;
  EXPECT_EQ(agg.Aggregate({"bb", "a"}).prediction, "a");     // shorter
  EXPECT_EQ(agg.Aggregate({"b", "a"}).prediction, "a");      // lexicographic
  EXPECT_EQ(agg.Aggregate({"ab", "ab", "z"}).prediction, "ab");  // support
}

TEST(AggregatorTest, DeterministicRegardlessOfOrder) {
  Aggregator agg;
  auto r1 = agg.Aggregate({"x", "y", "x"});
  auto r2 = agg.Aggregate({"y", "x", "x"});
  EXPECT_EQ(r1.prediction, r2.prediction);
}

// Candidates are sorted before vote resolution, so every permutation of a
// candidate multiset — trials complete in arbitrary order in service mode —
// resolves to the same winner, support, and confidence, including on ties.
TEST(AggregatorTest, InvariantUnderCompletionOrder) {
  Aggregator agg;
  const std::vector<std::vector<std::string>> vote_sets = {
      {"bb", "a", "bb", "a"},        // tied support, length tie-break
      {"b", "a", "c", "b", "a"},     // tied support, lexicographic
      {"", "x", "", "y", "x"},       // abstentions interleaved
      {"long", "s", "s", "long"},    // equal support again
  };
  for (std::vector<std::string> votes : vote_sets) {
    std::sort(votes.begin(), votes.end());
    const AggregateResult want = agg.Aggregate(votes);
    do {
      const AggregateResult got = agg.Aggregate(votes);
      EXPECT_EQ(got.prediction, want.prediction);
      EXPECT_EQ(got.support, want.support);
      EXPECT_EQ(got.trials, want.trials);
      EXPECT_DOUBLE_EQ(got.confidence, want.confidence);
    } while (std::next_permutation(votes.begin(), votes.end()));
  }
}

TEST(AggregatorTest, MultiModelPoolsTrials) {
  Aggregator agg;
  auto r = agg.AggregateMulti({{"a", "b"}, {"b", "b", "c"}});
  EXPECT_EQ(r.prediction, "b");
  EXPECT_EQ(r.support, 3);
  EXPECT_EQ(r.trials, 5);
}

/// A scripted model for pipeline tests: answers by lookup table, abstains
/// otherwise; counts calls.
class FakeModel : public TextToTextModel {
 public:
  explicit FakeModel(std::map<std::string, std::string> answers)
      : answers_(std::move(answers)) {}

  std::string name() const override { return "fake"; }
  Result<std::string> Transform(const Prompt& prompt) override {
    ++calls_;
    auto it = answers_.find(prompt.source);
    if (it == answers_.end()) return std::string();
    return it->second;
  }

  int calls() const { return calls_; }

 private:
  std::map<std::string, std::string> answers_;
  int calls_ = 0;
};

std::vector<ExamplePair> SomeExamples() {
  return {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}, {"e", "5"},
          {"f", "6"}, {"g", "7"}};
}

TEST(PipelineTest, RunsNumTrialsPerRow) {
  auto model = std::make_shared<FakeModel>(
      std::map<std::string, std::string>{{"x", "42"}});
  PipelineOptions opts;
  opts.decomposer.num_trials = 5;
  DttPipeline pipeline(model, opts);
  Rng rng(1);
  auto row = pipeline.TransformRow("x", SomeExamples(), &rng);
  EXPECT_EQ(row.prediction, "42");
  EXPECT_EQ(model->calls(), 5);
  EXPECT_EQ(row.support, 5);
}

TEST(PipelineTest, AbstainingModelYieldsEmptyPrediction) {
  auto model = std::make_shared<FakeModel>(
      std::map<std::string, std::string>{});
  DttPipeline pipeline(model);
  Rng rng(2);
  auto row = pipeline.TransformRow("unknown", SomeExamples(), &rng);
  EXPECT_TRUE(row.prediction.empty());
}

TEST(PipelineTest, TransformAllPreservesOrder) {
  auto model = std::make_shared<FakeModel>(std::map<std::string, std::string>{
      {"x", "1"}, {"y", "2"}});
  DttPipeline pipeline(model);
  Rng rng(3);
  auto rows = pipeline.TransformAll({"x", "y"}, SomeExamples(), &rng);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].source, "x");
  EXPECT_EQ(rows[0].prediction, "1");
  EXPECT_EQ(rows[1].prediction, "2");
}

TEST(PipelineTest, MultiModelAggregatesAcrossModels) {
  auto m1 = std::make_shared<FakeModel>(
      std::map<std::string, std::string>{{"x", "right"}});
  auto m2 = std::make_shared<FakeModel>(
      std::map<std::string, std::string>{});  // abstains
  PipelineOptions opts;
  opts.decomposer.num_trials = 3;
  DttPipeline pipeline({m1, m2}, opts);
  Rng rng(4);
  auto row = pipeline.TransformRow("x", SomeExamples(), &rng);
  EXPECT_EQ(row.prediction, "right");
  EXPECT_EQ(row.support, 3);  // only m1's trials voted
}

TEST(PipelineTest, EndToEndWithInductionModel) {
  auto model = std::make_shared<PatternInductionModel>();
  PipelineOptions opts;
  opts.decomposer.num_trials = 5;
  DttPipeline pipeline(model, opts);
  std::vector<ExamplePair> examples = {
      {"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"},
      {"Paul Martin", "pmartin"},     {"Jean Chretien", "jchretien"},
  };
  Rng rng(5);
  auto row = pipeline.TransformRow("Kim Campbell", examples, &rng);
  EXPECT_EQ(row.prediction, "kcampbell");
  EXPECT_GT(row.confidence, 0.5);
}

TEST(PipelineTest, DefaultTransformBatchLoopsPerPrompt) {
  FakeModel model(std::map<std::string, std::string>{{"x", "1"}, {"y", "2"}});
  std::vector<Prompt> prompts(3);
  prompts[0].source = "x";
  prompts[1].source = "miss";
  prompts[2].source = "y";
  auto results = model.TransformBatch(prompts);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].value(), "1");
  EXPECT_EQ(results[1].value(), "");
  EXPECT_EQ(results[2].value(), "2");
  EXPECT_EQ(model.calls(), 3);
}

// TransformAll materializes per-row forked RNG streams and writes disjoint
// output slots, so predictions must be identical whatever the batch size or
// thread count.
TEST(PipelineThreadingTest, TransformAllIdenticalAcrossThreadAndBatchSizes) {
  std::vector<ExamplePair> examples = {
      {"Justin Trudeau", "jtrudeau"}, {"Stephen Harper", "sharper"},
      {"Paul Martin", "pmartin"},     {"Jean Chretien", "jchretien"},
      {"John Turner", "jturner"},     {"Joe Clark", "jclark"},
      {"Lester Pearson", "lpearson"},
  };
  std::vector<std::string> sources = {
      "Kim Campbell", "Brian Mulroney", "Pierre Trudeau", "John Diefenbaker",
      "Louis St Laurent", "Mackenzie King", "Arthur Meighen", "Robert Borden",
  };
  auto run = [&](int batch_size, int num_threads) {
    PipelineOptions opts;
    opts.decomposer.num_trials = 5;  // C(7,2)=21 subsets -> random contexts
    opts.batch_size = batch_size;
    opts.num_threads = num_threads;
    DttPipeline pipeline(std::make_shared<PatternInductionModel>(), opts);
    Rng rng(99);
    return pipeline.TransformAll(sources, examples, &rng);
  };
  auto baseline = run(/*batch_size=*/3, /*num_threads=*/1);
  ASSERT_EQ(baseline.size(), sources.size());
  for (const auto& [batch_size, num_threads] :
       std::vector<std::pair<int, int>>{{3, 4}, {16, 4}, {1, 1}, {1, 4}}) {
    auto got = run(batch_size, num_threads);
    ASSERT_EQ(got.size(), baseline.size());
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].prediction, baseline[r].prediction)
          << "row " << r << " batch " << batch_size << " threads "
          << num_threads;
      EXPECT_EQ(got[r].support, baseline[r].support) << "row " << r;
      EXPECT_DOUBLE_EQ(got[r].confidence, baseline[r].confidence)
          << "row " << r;
    }
  }
}

TEST(PipelineThreadingTest, MultiModelThreadedMatchesSerial) {
  std::vector<ExamplePair> examples = {
      {"John Smith", "Smith"}, {"Alice Walker", "Walker"},
      {"Maria Garcia", "Garcia"}, {"Emma Wilson", "Wilson"},
      {"David Miller", "Miller"},
  };
  std::vector<std::string> sources = {"Sarah Davis", "James Moore",
                                      "Linda Taylor"};
  auto run = [&](int num_threads) {
    PipelineOptions opts;
    opts.batch_size = 2;
    opts.num_threads = num_threads;
    DttPipeline pipeline({std::make_shared<PatternInductionModel>(),
                          std::make_shared<PatternInductionModel>()},
                         opts);
    Rng rng(7);
    return pipeline.TransformAll(sources, examples, &rng);
  };
  auto serial = run(1);
  auto threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].prediction, threaded[r].prediction) << "row " << r;
    EXPECT_EQ(serial[r].support, threaded[r].support) << "row " << r;
  }
}

/// A thread-safe model that records the thread of every TransformBatch
/// call; its outputs depend only on the prompt.
class ThreadRecordingModel : public TextToTextModel {
 public:
  std::string name() const override { return "thread-recording"; }
  Result<std::string> Transform(const Prompt& prompt) override {
    return prompt.source + "/" + prompt.examples.front().target;
  }
  std::vector<Result<std::string>> TransformBatch(
      const std::vector<Prompt>& prompts) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.push_back(std::this_thread::get_id());
    }
    return TextToTextModel::TransformBatch(prompts);
  }
  bool thread_safe() const override { return true; }
  std::vector<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return threads_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::thread::id> threads_;
};

// With one thread TransformAll runs every batch on the caller's thread (no
// scheduler or pool thread per call); with four it shards them and still
// predicts the same.
TEST(PipelineThreadingTest, SingleThreadRunsBatchesOnCallerThread) {
  std::vector<ExamplePair> examples = {
      {"ab", "B"}, {"cd", "D"}, {"ef", "F"}, {"gh", "H"}};
  std::vector<std::string> sources = {"ij", "kl", "mn", "op", "qr", "st"};
  auto run = [&](int num_threads, std::vector<std::thread::id>* threads) {
    auto model = std::make_shared<ThreadRecordingModel>();
    PipelineOptions opts;
    opts.decomposer.num_trials = 3;
    opts.batch_size = 2;
    opts.num_threads = num_threads;
    DttPipeline pipeline(model, opts);
    Rng rng(21);
    auto rows = pipeline.TransformAll(sources, examples, &rng);
    *threads = model->threads();
    return rows;
  };
  std::vector<std::thread::id> serial_threads, threaded_threads;
  const auto serial = run(1, &serial_threads);
  ASSERT_EQ(serial_threads.size(), 9u);  // 6 rows x 3 trials / batch 2
  for (const std::thread::id& id : serial_threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  const auto threaded = run(4, &threaded_threads);
  EXPECT_EQ(threaded_threads.size(), serial_threads.size());
  ASSERT_EQ(threaded.size(), serial.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_FALSE(serial[r].prediction.empty()) << "row " << r;
    EXPECT_EQ(threaded[r].prediction, serial[r].prediction) << "row " << r;
    EXPECT_EQ(threaded[r].support, serial[r].support) << "row " << r;
    EXPECT_DOUBLE_EQ(threaded[r].confidence, serial[r].confidence)
        << "row " << r;
  }
}

TEST(PipelineTest, TransformAllAdvancesTheCallerRng) {
  auto model = std::make_shared<FakeModel>(std::map<std::string, std::string>{
      {"x", "1"}});
  DttPipeline pipeline(model);
  Rng used(5), fresh(5);
  pipeline.TransformAll({"x"}, SomeExamples(), &used);
  // One draw seeds the per-call base stream, so back-to-back TransformAll
  // calls sharing an Rng stay independent.
  EXPECT_NE(used.Next(), fresh.Next());
}

// Concurrent batched decodes on one shared Transformer: inference only
// reads the parameters, so sharding batches across threads must be safe
// (TSan-checked in CI) and bit-identical to the serial dispatch.
TEST(PipelineThreadingTest, NeuralThreadedMatchesSerial) {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 96;
  Rng init_rng(11);
  auto transformer = std::make_shared<nn::Transformer>(cfg, &init_rng);
  SerializerOptions sopts;
  sopts.max_tokens = cfg.max_len;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 8;
  auto model = std::make_shared<NeuralSeq2SeqModel>(
      transformer, Serializer(sopts), nopts);
  std::vector<ExamplePair> examples = {
      {"ab", "B"}, {"cd", "D"}, {"ef", "F"}, {"gh", "H"}};
  std::vector<std::string> sources = {"ij", "kl", "mn", "op", "qr", "st"};
  auto run = [&](int num_threads) {
    PipelineOptions opts;
    opts.decomposer.num_trials = 3;
    opts.batch_size = 4;
    opts.num_threads = num_threads;
    DttPipeline pipeline(model, opts);
    Rng rng(12);
    return pipeline.TransformAll(sources, examples, &rng);
  };
  auto serial = run(1);
  auto threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].prediction, threaded[r].prediction) << "row " << r;
    EXPECT_EQ(serial[r].support, threaded[r].support) << "row " << r;
  }
}

TEST(JoinerTest, ExactMatchFirst) {
  EditDistanceJoiner joiner;
  auto r = joiner.Join(std::vector<std::string>{"bb"},
                       std::vector<std::string>{"aa", "bb", "cc"});
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].target_index, 1);
  EXPECT_EQ(r.matches[0].edit_distance, 0u);
}

TEST(JoinerTest, NearestByEditDistance) {
  EditDistanceJoiner joiner;
  auto r = joiner.Join(std::vector<std::string>{"kitten"},
                       std::vector<std::string>{"sitting", "mitten", "cat"});
  EXPECT_EQ(r.matches[0].target_index, 1);  // mitten, distance 1
  EXPECT_EQ(r.matches[0].edit_distance, 1u);
}

TEST(JoinerTest, EmptyPredictionUnmatched) {
  EditDistanceJoiner joiner;
  auto r = joiner.Join(std::vector<std::string>{""},
                       std::vector<std::string>{"a"});
  EXPECT_EQ(r.matches[0].target_index, -1);
}

TEST(JoinerTest, ThresholdRejectsFarMatches) {
  JoinerOptions opts;
  opts.max_distance_ratio = 0.3;
  EditDistanceJoiner joiner(opts);
  auto r = joiner.Join(std::vector<std::string>{"zzzzzz"},
                       std::vector<std::string>{"aaaaaa"});
  EXPECT_EQ(r.matches[0].target_index, -1);
}

TEST(JoinerTest, BandedModeAgreesWithExact) {
  std::vector<std::string> targets = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string> preds = {"alpa", "betta", "gamm", "delt"};
  EditDistanceJoiner exact;
  JoinerOptions bopts;
  bopts.band = 8;
  EditDistanceJoiner banded(bopts);
  auto r1 = exact.Join(preds, targets);
  auto r2 = banded.Join(preds, targets);
  for (size_t i = 0; i < preds.size(); ++i) {
    EXPECT_EQ(r1.matches[i].target_index, r2.matches[i].target_index);
  }
}

TEST(JoinerTest, RowPredictionOverload) {
  EditDistanceJoiner joiner;
  std::vector<RowPrediction> rows(1);
  rows[0].prediction = "bb";
  auto r = joiner.Join(rows, {"aa", "bb"});
  EXPECT_EQ(r.matches[0].target_index, 1);
}

TEST(JoinerTest, JoinRangeManyToMany) {
  EditDistanceJoiner joiner;
  auto hits = joiner.JoinRange("abc", {"abc", "abd", "xyz", "abcd"}, 0, 1);
  ASSERT_EQ(hits.size(), 3u);  // abc(0), abd(1), abcd(1)
  EXPECT_EQ(hits[0], 0);
}

TEST(TasksTest, FillMissingValues) {
  auto model = std::make_shared<PatternInductionModel>();
  DttPipeline pipeline(model);
  std::vector<ExamplePair> examples = {
      {"John Smith", "Smith"}, {"Alice Walker", "Walker"},
      {"Maria Garcia", "Garcia"}};
  Rng rng(6);
  auto filled =
      FillMissingValues(pipeline, {"Emma Wilson", "David Miller"},
                        examples, &rng);
  ASSERT_EQ(filled.size(), 2u);
  EXPECT_EQ(filled[0].prediction, "Wilson");
  EXPECT_EQ(filled[1].prediction, "Miller");
}

TEST(TasksTest, DetectErrorsFlagsDeviations) {
  auto model = std::make_shared<PatternInductionModel>();
  DttPipeline pipeline(model);
  std::vector<ExamplePair> examples = {
      {"John Smith", "Smith"}, {"Alice Walker", "Walker"},
      {"Maria Garcia", "Garcia"}};
  std::vector<ExamplePair> rows = {
      {"Emma Wilson", "Wilson"},   // correct
      {"David Miller", "Miler"},   // small typo
      {"Sarah Davis", "zzz###"},   // clearly wrong
  };
  Rng rng(7);
  auto flags = DetectErrors(pipeline, rows, examples, /*aned_threshold=*/0.5,
                            &rng);
  ASSERT_EQ(flags.size(), 1u);
  EXPECT_EQ(flags[0].row, 2u);
  EXPECT_EQ(flags[0].expected, "Davis");
}

}  // namespace
}  // namespace dtt
