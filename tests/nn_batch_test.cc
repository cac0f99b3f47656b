// Batched-vs-serial equivalence of the inference and training paths: the
// padded, length-masked batch code must reproduce the single-sequence code
// bit-for-bit (inference) or within float tolerance (gradients).
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "models/neural_model.h"
#include "nn/trainer.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "testing/reference_decode.h"
#include "text/vocab.h"

namespace dtt {
namespace {

nn::TransformerConfig TinyConfig() {
  nn::TransformerConfig cfg;
  cfg.dim = 16;
  cfg.num_heads = 2;
  cfg.ff_hidden = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 96;
  return cfg;
}

std::vector<int> RandomIds(int len, Rng* rng) {
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    ids.push_back(Vocab::ByteToken(
        static_cast<uint8_t>(rng->NextBounded(256))));
  }
  return ids;
}

TEST(PaddedBatchTest, PacksWithPadAndLengths) {
  nn::PaddedBatch batch = nn::PaddedBatch::Pack({{7, 8, 9}, {5}});
  EXPECT_EQ(batch.batch(), 2);
  EXPECT_EQ(batch.padded_len, 3);
  EXPECT_EQ(batch.lengths, (std::vector<int>{3, 1}));
  EXPECT_EQ(batch.flat,
            (std::vector<int>{7, 8, 9, 5, Vocab::kPad, Vocab::kPad}));
}

TEST(EncodeBatchTest, ValidRowsBitExactWithSerialEncode) {
  Rng rng(31);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(32);
  std::vector<std::vector<int>> inputs = {
      RandomIds(9, &data_rng), RandomIds(17, &data_rng),
      RandomIds(4, &data_rng)};
  nn::PaddedBatch batch = nn::PaddedBatch::Pack(inputs);
  nn::Var memory = model.EncodeBatch(batch);
  const int dim = model.config().dim;
  for (size_t b = 0; b < inputs.size(); ++b) {
    nn::Var serial = model.Encode(inputs[b]);
    const int len = static_cast<int>(inputs[b].size());
    nn::Tensor rows({len, dim});
    for (int i = 0; i < len; ++i) {
      for (int j = 0; j < dim; ++j) {
        rows.at(i, j) = memory.value().at(
            static_cast<int>(b) * batch.padded_len + i, j);
      }
    }
    EXPECT_TENSOR_EQ(rows, serial.value()) << "sequence " << b;
  }
}

TEST(GenerateBatchTest, BitExactWithPerSequenceGreedyDecode) {
  Rng rng(41);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(42);
  // Mixed lengths force encoder padding; equal lengths exercise the
  // no-padding fast path.
  std::vector<std::vector<int>> inputs = {
      RandomIds(12, &data_rng), RandomIds(5, &data_rng),
      RandomIds(23, &data_rng), RandomIds(12, &data_rng),
      RandomIds(1, &data_rng)};
  std::vector<std::vector<int>> batched = model.GenerateBatch(inputs, 24);
  ASSERT_EQ(batched.size(), inputs.size());
  for (size_t b = 0; b < inputs.size(); ++b) {
    EXPECT_EQ(batched[b], reference_decode::GreedyDecode(model, inputs[b], 24))
        << "sequence " << b;
  }
}

TEST(GenerateBatchTest, SingleSequenceBatchMatchesSerial) {
  Rng rng(51);
  nn::Transformer model(TinyConfig(), &rng);
  Rng data_rng(52);
  std::vector<int> input = RandomIds(14, &data_rng);
  std::vector<std::vector<int>> batched = model.GenerateBatch({input}, 16);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_EQ(batched[0], reference_decode::GreedyDecode(model, input, 16));
}

TEST(GenerateBatchTest, EmptyBatchReturnsEmpty) {
  Rng rng(61);
  nn::Transformer model(TinyConfig(), &rng);
  EXPECT_TRUE(model.GenerateBatch({}, 8).empty());
}

// --- Trainer batching -------------------------------------------------------

std::vector<TrainingInstance> TrainingInstances() {
  // Varying label lengths force decoder padding in the batch.
  std::vector<TrainingInstance> instances;
  const char* rows[][2] = {{"abc-def", "DEF"}, {"ghi-jk", "JK"},
                           {"lmnop-qrstu", "QRSTU"}, {"v-w", "W"}};
  for (const auto& row : rows) {
    TrainingInstance inst;
    inst.context = {{"abc-def", "DEF"}, {"ghi-jk", "JK"}};
    inst.input_source = row[0];
    inst.label = row[1];
    instances.push_back(std::move(inst));
  }
  return instances;
}

nn::Seq2SeqTrainer MakeTrainer(nn::Transformer* model) {
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  nn::TrainerOptions topts;
  topts.batch_size = 4;
  return nn::Seq2SeqTrainer(model, Serializer(sopts), topts);
}

TEST(BatchTrainerTest, BatchLossMatchesMeanOfInstanceLosses) {
  Rng rng(71);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  double mean = 0.0;
  for (const auto& inst : instances) {
    float loss = trainer.InstanceLoss(inst, /*backprop=*/false);
    ASSERT_GE(loss, 0.0f);
    mean += loss;
  }
  mean /= static_cast<double>(instances.size());
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  int counted = 0;
  float batched = trainer.BatchLoss(batch, /*backprop=*/false, &counted);
  EXPECT_EQ(counted, static_cast<int>(instances.size()));
  EXPECT_NEAR(batched, static_cast<float>(mean), 1e-5f);
}

TEST(BatchTrainerTest, BatchGradientsMatchAccumulatedGradients) {
  Rng rng(81);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  // Accumulate per-instance gradients the old way and snapshot them.
  for (const auto& inst : instances) {
    ASSERT_GE(trainer.InstanceLoss(inst, /*backprop=*/true), 0.0f);
  }
  std::vector<nn::Tensor> accumulated;
  for (auto& param : model.Params()) {
    ASSERT_TRUE(param.var.node()->HasGrad()) << param.name;
    accumulated.push_back(param.var.grad());
    param.var.node()->ZeroGrad();
  }
  // One batched backward over the same instances.
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  ASSERT_GE(trainer.BatchLoss(batch, /*backprop=*/true), 0.0f);
  std::vector<nn::NamedParam> params = model.Params();
  ASSERT_EQ(params.size(), accumulated.size());
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TENSOR_NEAR(params[i].var.grad(), accumulated[i], 1e-4f)
        << params[i].name;
    params[i].var.node()->ZeroGrad();
  }
}

TEST(BatchTrainerTest, SkipsOverLengthInstances) {
  Rng rng(91);
  nn::Transformer model(TinyConfig(), &rng);
  nn::Seq2SeqTrainer trainer = MakeTrainer(&model);
  std::vector<TrainingInstance> instances = TrainingInstances();
  TrainingInstance too_long = instances[0];
  // The serializer truncates sources to the row budget, so overflow the
  // (untruncated) label instead: 100 bytes > max_label_tokens.
  too_long.label = std::string(100, 'x');
  instances.push_back(too_long);
  std::vector<const TrainingInstance*> batch;
  for (const auto& inst : instances) batch.push_back(&inst);
  int counted = 0;
  float loss = trainer.BatchLoss(batch, /*backprop=*/false, &counted);
  EXPECT_GE(loss, 0.0f);
  EXPECT_EQ(counted, static_cast<int>(instances.size()) - 1);
}

// --- Model-level batching ---------------------------------------------------

// Transform and TransformBatch share one engine, so besides agreeing with
// each other every output must equal the autograd reference decode of the
// serialized prompt, truncated to that prompt's own budget.
TEST(NeuralModelBatchTest, TransformBatchMatchesPerPromptTransform) {
  Rng rng(101);
  auto transformer =
      std::make_shared<nn::Transformer>(TinyConfig(), &rng);
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  NeuralModelOptions nopts;
  nopts.max_output_tokens = 12;
  NeuralSeq2SeqModel model(transformer, Serializer(sopts), nopts);
  const Serializer serializer(sopts);
  const ByteTokenizer tokenizer;
  std::vector<Prompt> prompts;
  // Per-prompt budgets: the model default, below it, and above it (clamped).
  const char* sources[] = {"alpha", "beta-gamma", "de", "epsilon"};
  const int budgets[] = {0, 3, 7, 40};
  for (size_t i = 0; i < 4; ++i) {
    Prompt p;
    p.examples = {{"abc", "xyz"}, {"mno", "pqr"}};
    p.source = sources[i];
    p.max_output_tokens = budgets[i];
    prompts.push_back(std::move(p));
  }
  Prompt invalid;  // no examples -> InvalidArgument in both paths
  prompts.push_back(invalid);

  for (const std::vector<Prompt>& batch :
       {prompts, std::vector<Prompt>{prompts[1]}}) {
    std::vector<Result<std::string>> batched = model.TransformBatch(batch);
    ASSERT_EQ(batched.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      Result<std::string> serial = model.Transform(batch[i]);
      ASSERT_EQ(batched[i].ok(), serial.ok()) << "prompt " << i;
      if (!serial.ok()) {
        EXPECT_EQ(batched[i].status().code(), serial.status().code());
        continue;
      }
      EXPECT_EQ(batched[i].value(), serial.value()) << "prompt " << i;
      const int own = batch[i].max_output_tokens;
      const size_t budget = static_cast<size_t>(
          own > 0 ? std::min(own, nopts.max_output_tokens)
                  : nopts.max_output_tokens);
      std::vector<int> reference = reference_decode::GreedyDecode(
          *transformer, serializer.EncodePrompt(batch[i]),
          nopts.max_output_tokens);
      if (reference.size() > budget) reference.resize(budget);
      EXPECT_EQ(batched[i].value(), tokenizer.Decode(reference))
          << "prompt " << i;
    }
  }
}

}  // namespace
}  // namespace dtt
