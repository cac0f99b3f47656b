// Parity of the production program synthesis (parent-index beam, hoisted
// joint check, bounded-selection pruning) against the frozen copied-vector
// beam in tests/testing/reference_synthesis: the same programs, with
// bit-identical scores, in the same order, over the example pairs and
// 2-/3-example contexts of the generated paper datasets.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "eval/experiment.h"
#include "models/alignment.h"
#include "testing/reference_synthesis.h"

namespace dtt {
namespace {

using induction::AtomProgram;
using induction::InductionConfig;

struct NamedConfig {
  std::string name;
  InductionConfig cfg;
};

std::vector<NamedConfig> Configs() {
  std::vector<NamedConfig> configs(3);
  configs[0].name = "default";
  // KnowledgeLM's degraded random-text mode.
  configs[1].name = "random_text";
  configs[1].cfg.allow_char_range = false;
  configs[1].cfg.allow_token_slice = false;
  // CST-style long textual-evidence anchors.
  configs[2].name = "cst";
  configs[2].cfg.min_char_range_len = 4;
  return configs;
}

// First mismatch between two program lists, or "" when identical.
std::string Diff(const std::vector<AtomProgram>& actual,
                 const std::vector<AtomProgram>& expected) {
  if (actual.size() != expected.size()) {
    return "size " + std::to_string(actual.size()) + " vs " +
           std::to_string(expected.size());
  }
  for (size_t i = 0; i < actual.size(); ++i) {
    if (actual[i].Key() != expected[i].Key()) {
      return "program " + std::to_string(i) + " key " + actual[i].Key() +
             " vs " + expected[i].Key();
    }
    if (actual[i].score != expected[i].score) {
      return "program " + std::to_string(i) + " score " +
             std::to_string(actual[i].score) + " vs " +
             std::to_string(expected[i].score);
    }
  }
  return "";
}

std::string Describe(const std::vector<ExamplePair>& examples) {
  std::string out;
  for (const ExamplePair& ex : examples) {
    out += "[" + ex.source + " -> " + ex.target + "]";
  }
  return out;
}

class SynthesisParityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datasets_ = new std::vector<Dataset>(MakeAllDatasets(20247, 0.05));
  }
  static void TearDownTestSuite() {
    delete datasets_;
    datasets_ = nullptr;
  }

  // Contexts of `k` consecutive rows, at most `per_table` per table.
  static std::vector<std::vector<ExamplePair>> Contexts(size_t k,
                                                        size_t per_table) {
    std::vector<std::vector<ExamplePair>> out;
    for (const Dataset& ds : *datasets_) {
      for (const TablePair& table : ds.tables) {
        for (size_t c = 0; c < per_table; ++c) {
          const size_t first = c * k;
          if (first + k > table.num_rows()) break;
          std::vector<ExamplePair> context;
          for (size_t i = first; i < first + k; ++i) {
            context.push_back({table.source[i], table.target[i]});
          }
          out.push_back(std::move(context));
        }
      }
    }
    return out;
  }

  static std::vector<Dataset>* datasets_;
};

std::vector<Dataset>* SynthesisParityTest::datasets_ = nullptr;

TEST_F(SynthesisParityTest, SinglePairsMatchReference) {
  const auto contexts = Contexts(1, 2);
  ASSERT_GT(contexts.size(), 100u);
  for (const NamedConfig& config : Configs()) {
    for (const auto& context : contexts) {
      const std::string diff =
          Diff(induction::SynthesizePrograms(context[0], config.cfg),
               reference_synthesis::SynthesizePrograms(context[0],
                                                       config.cfg));
      ASSERT_EQ(diff, "") << config.name << " " << Describe(context);
    }
  }
}

TEST_F(SynthesisParityTest, TwoExampleContextsMatchReference) {
  const auto contexts = Contexts(2, 1);
  ASSERT_GT(contexts.size(), 100u);
  for (const NamedConfig& config : Configs()) {
    for (const auto& context : contexts) {
      const std::string diff =
          Diff(induction::SynthesizeCommonPrograms(context, config.cfg),
               reference_synthesis::SynthesizeCommonPrograms(context,
                                                             config.cfg));
      ASSERT_EQ(diff, "") << config.name << " " << Describe(context);
    }
  }
}

TEST_F(SynthesisParityTest, ThreeExampleContextsMatchReference) {
  const auto contexts = Contexts(3, 1);
  ASSERT_GT(contexts.size(), 100u);
  for (const NamedConfig& config : Configs()) {
    for (const auto& context : contexts) {
      const std::string diff =
          Diff(induction::SynthesizeCommonPrograms(context, config.cfg),
               reference_synthesis::SynthesizeCommonPrograms(context,
                                                             config.cfg));
      ASSERT_EQ(diff, "") << config.name << " " << Describe(context);
    }
  }
}

}  // namespace
}  // namespace dtt
