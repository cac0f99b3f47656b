// Kernel provider contracts (nn/kernel_provider.h):
//  - registry selection, unknown names, env-independent set/restore;
//  - vec_f32 bit-identity with the scalar oracle on odd/tail dims (the
//    property that keeps every engine parity contract green under
//    DTT_KERNEL_PROVIDER=vec_f32);
//  - int8 closeness bounds on raw GEMMs, quantize round-trip bounds, and
//    the end-to-end reduced-grid join-accuracy gate;
//  - packed-weight cache invalidation across weight mutations;
//  - the scalar provider's GenerateBatch/BeamDecodeBatch outputs pinned
//    byte-for-byte to the pre-refactor (pre-provider) engine outputs.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/join_eval.h"
#include "data/synthetic_datasets.h"
#include "models/neural_model.h"
#include "nn/infer_internal.h"
#include "nn/kernel_provider.h"
#include "nn/quantize.h"
#include "nn/trainer.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "testing/reference_decode.h"
#include "text/serializer.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace dtt {
namespace nn {
namespace {

using ::dtt::testing::TensorEq;

/// Activates a provider for one test scope, restoring the previous one.
class ProviderScope {
 public:
  explicit ProviderScope(const std::string& name)
      : previous_(ActiveKernelProvider().name()) {
    EXPECT_TRUE(SetActiveKernelProvider(name).ok());
  }
  ~ProviderScope() {
    EXPECT_TRUE(SetActiveKernelProvider(previous_).ok());
  }

 private:
  std::string previous_;
};

Tensor RandomTensor(const std::vector<int>& shape, Rng* rng) {
  Tensor t(shape);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] =
        static_cast<float>(rng->NextInt(-1000, 1000)) / 1000.0f;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(KernelRegistry, NamesAndLookup) {
  EXPECT_EQ(KernelProviderNames(),
            (std::vector<std::string>{"scalar", "vec_f32", "int8"}));
  for (const std::string& name : KernelProviderNames()) {
    auto found = FindKernelProvider(name);
    ASSERT_TRUE(found.ok()) << name;
    EXPECT_EQ(found.value()->name(), name);
  }
}

TEST(KernelRegistry, UnknownNameIsInvalidArgument) {
  auto missing = FindKernelProvider("simd_ultra");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST(KernelRegistry, SetActiveRejectsUnknownAndKeepsSelection) {
  const std::string before = ActiveKernelProvider().name();
  Status st = SetActiveKernelProvider("nope");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ActiveKernelProvider().name(), before);
}

TEST(KernelRegistry, SetActiveSwitchesAndRestores) {
  const std::string before = ActiveKernelProvider().name();
  {
    ProviderScope scope("vec_f32");
    EXPECT_EQ(std::string(ActiveKernelProvider().name()), "vec_f32");
  }
  EXPECT_EQ(ActiveKernelProvider().name(), before);
}

// ---------------------------------------------------------------------------
// Provider parity on odd/tail dimensions
// ---------------------------------------------------------------------------

constexpr int kDims[] = {1, 3, 7, 17, 64, 65};

struct GemmCase {
  Tensor a, b, bt, at, c0;
  int m, k, n;
};

GemmCase MakeCase(int m, int k, int n, Rng* rng) {
  GemmCase gc;
  gc.m = m;
  gc.k = k;
  gc.n = n;
  gc.a = RandomTensor({m, k}, rng);
  gc.b = RandomTensor({k, n}, rng);
  gc.bt = RandomTensor({n, k}, rng);
  gc.at = RandomTensor({k, m}, rng);
  // Nonzero initial C exercises the accumulate-into contract.
  gc.c0 = RandomTensor({m, n}, rng);
  // Plant exact zeros so the oracle's zero-skip is on the path.
  if (gc.a.size() > 2) gc.a.data()[1] = 0.0f;
  if (gc.at.size() > 2) gc.at.data()[1] = 0.0f;
  return gc;
}

TEST(VecF32Provider, BitIdenticalToScalarOnOddDims) {
  const KernelProvider& scalar = *FindKernelProvider("scalar").value();
  const KernelProvider& vec = *FindKernelProvider("vec_f32").value();
  Rng rng(17);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        GemmCase gc = MakeCase(m, k, n, &rng);
        Tensor want = gc.c0, got = gc.c0;
        scalar.GemmAcc(gc.a.data(), gc.b.data(), want.data(), m, k, n);
        vec.GemmAcc(gc.a.data(), gc.b.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAcc m=" << m << " k=" << k << " n=" << n;

        want = gc.c0;
        got = gc.c0;
        scalar.GemmAtAcc(gc.at.data(), gc.b.data(), want.data(), k, m, n);
        vec.GemmAtAcc(gc.at.data(), gc.b.data(), got.data(), k, m, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAtAcc m=" << m << " k=" << k << " n=" << n;

        want = gc.c0;
        got = gc.c0;
        scalar.GemmBtAcc(gc.a.data(), gc.bt.data(), want.data(), m, k, n);
        vec.GemmBtAcc(gc.a.data(), gc.bt.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmBtAcc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(VecF32Provider, AffineBitIdenticalToScalar) {
  const KernelProvider& scalar = *FindKernelProvider("scalar").value();
  const KernelProvider& vec = *FindKernelProvider("vec_f32").value();
  Rng rng(23);
  for (int rows : kDims) {
    for (int in_dim : kDims) {
      for (int out_dim : kDims) {
        Tensor x = RandomTensor({rows, in_dim}, &rng);
        Tensor w = RandomTensor({in_dim, out_dim}, &rng);
        Tensor bias = RandomTensor({out_dim}, &rng);
        Tensor want({rows, out_dim}), got({rows, out_dim});
        scalar.Affine(x.data(), rows, in_dim, w.data(), bias.data(), out_dim,
                      nullptr, want.data());
        vec.Affine(x.data(), rows, in_dim, w.data(), bias.data(), out_dim,
                   nullptr, got.data());
        ASSERT_TRUE(TensorEq(got, want))
            << "Affine rows=" << rows << " in=" << in_dim
            << " out=" << out_dim;
      }
    }
  }
}

TEST(Int8Provider, CloseToScalarWithinQuantizationBound) {
  const KernelProvider& scalar = *FindKernelProvider("scalar").value();
  const KernelProvider& int8 = *FindKernelProvider("int8").value();
  Rng rng(29);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        GemmCase gc = MakeCase(m, k, n, &rng);
        // Per-element error bound: each of the k products carries at most
        // (|a| sb + |b| sa + sa sb)/2-ish quantization error with
        // sa, sb <= 1/127 for inputs in [-1, 1].
        const float sa = QuantScale(gc.a.data(), gc.a.size());
        const float sb = QuantScale(gc.b.data(), gc.b.size());
        const float tol =
            static_cast<float>(k) * 128.0f * sa * sb + 1e-5f;
        Tensor want = gc.c0, got = gc.c0;
        scalar.GemmAcc(gc.a.data(), gc.b.data(), want.data(), m, k, n);
        int8.GemmAcc(gc.a.data(), gc.b.data(), got.data(), m, k, n);
        ASSERT_TRUE(dtt::testing::TensorNear(got, want, tol))
            << "GemmAcc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Quantization round trip
// ---------------------------------------------------------------------------

TEST(Quantize, RoundTripWithinHalfScale) {
  Rng rng(31);
  std::vector<float> x(1000);
  for (auto& v : x) {
    v = static_cast<float>(rng.NextInt(-3000, 3000)) / 1000.0f;
  }
  QuantizedBlock q = Quantize(x.data(), x.size());
  std::vector<float> back(x.size());
  Dequantize(q.q.data(), q.q.size(), q.scale, back.data());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - x[i]), q.scale * 0.5f + 1e-7f) << i;
  }
}

TEST(Quantize, ZeroPreservingAndExtremesSaturate) {
  std::vector<float> x = {0.0f, -0.0f, 2.54f, -2.54f, 1.27f};
  QuantizedBlock q = Quantize(x.data(), x.size());
  EXPECT_EQ(q.q[0], 0);
  EXPECT_EQ(q.q[1], 0);
  EXPECT_EQ(q.q[2], 127);   // max magnitude maps exactly to +/-127
  EXPECT_EQ(q.q[3], -127);
  EXPECT_FLOAT_EQ(q.scale, 2.54f / 127.0f);
}

TEST(Quantize, AllZeroBlockHasUnitScale) {
  std::vector<float> x(16, 0.0f);
  QuantizedBlock q = Quantize(x.data(), x.size());
  EXPECT_FLOAT_EQ(q.scale, 1.0f);
  for (int8_t v : q.q) EXPECT_EQ(v, 0);
}

// ---------------------------------------------------------------------------
// Packed-weight cache
// ---------------------------------------------------------------------------

TEST(PackedWeights, FloatProvidersHaveNone) {
  Rng rng(37);
  Linear lin(4, 3, &rng);
  EXPECT_EQ(lin.PackedFor(*FindKernelProvider("scalar").value()), nullptr);
  EXPECT_EQ(lin.PackedFor(*FindKernelProvider("vec_f32").value()), nullptr);
}

TEST(PackedWeights, CachedAndInvalidatedOnWeightMutation) {
  const KernelProvider& int8 = *FindKernelProvider("int8").value();
  Rng rng(41);
  Linear lin(4, 3, &rng);
  auto first = lin.PackedFor(int8);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(lin.PackedFor(int8).get(), first.get());  // cached

  // Mutate the weight through the same path the optimizer and checkpoint
  // loader use; the cache must rebuild.
  std::vector<NamedParam> params;
  lin.CollectParams("lin", &params);
  ASSERT_FALSE(params.empty());
  params[0].var.mutable_value().data()[0] += 1.0f;
  auto second = lin.PackedFor(int8);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(second.get(), first.get());
}

TEST(PackedWeights, Int8AffineUsesFreshWeights) {
  const KernelProvider& int8 = *FindKernelProvider("int8").value();
  Rng rng(43);
  Linear lin(6, 5, &rng);
  Tensor x = RandomTensor({2, 6}, &rng);
  ProviderScope scope("int8");
  Tensor before, after;
  internal::AffineRows(int8, x, lin, &before);
  std::vector<NamedParam> params;
  lin.CollectParams("lin", &params);
  for (size_t i = 0; i < params[0].var.value().size(); ++i) {
    params[0].var.mutable_value().data()[i] *= -1.0f;
  }
  internal::AffineRows(int8, x, lin, &after);
  // Negated weights must negate the (pre-bias) outputs; a stale packed
  // cache would reproduce `before` instead.
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before.data()[i] != after.data()[i]) changed = true;
  }
  EXPECT_TRUE(changed);
}

// ---------------------------------------------------------------------------
// Engine outputs: pre-refactor goldens and per-provider parity
// ---------------------------------------------------------------------------

TransformerConfig GoldenConfig() {
  TransformerConfig cfg;
  cfg.dim = 32;
  cfg.num_heads = 4;
  cfg.ff_hidden = 64;
  cfg.encoder_layers = 1;
  cfg.decoder_layers = 1;
  cfg.max_len = 64;
  return cfg;
}

std::vector<std::vector<int>> GoldenPrompts() {
  Rng rng(99);
  std::vector<std::vector<int>> prompts(3);
  for (size_t i = 0; i < prompts.size(); ++i) {
    prompts[i].resize(12 + 5 * i);
    for (auto& id : prompts[i]) {
      id = Vocab::ByteToken(static_cast<uint8_t>(rng.NextBounded(256)));
    }
  }
  return prompts;
}

// Captured from the pre-provider tree (PR 5 engine: raw GemmAcc calls) for
// Transformer(GoldenConfig(), Rng(7)) on GoldenPrompts(), 10 steps, beam 4.
// The scalar provider must keep reproducing these byte-for-byte.
const std::vector<std::vector<int>> kGoldenGenerate = {
    {4, 159, 151, 151, 151, 151, 151, 159, 159, 69},
    {4, 4, 252, 252, 252, 151, 159, 159, 159, 79},
    {4, 252, 252, 252, 252, 151, 151, 159, 159, 79},
};
const std::vector<std::vector<int>> kGoldenBeam = {
    {4, 159, 151, 151, 151, 151, 151, 159, 159, 69},
    {4, 4, 252, 252, 252, 151, 159, 159, 159, 79},
    {4, 252, 252, 252, 252, 151, 151, 159, 159, 79},
};

TEST(ScalarProvider, GenerateBatchMatchesPreRefactorGolden) {
  ProviderScope scope("scalar");
  Rng rng(7);
  Transformer model(GoldenConfig(), &rng);
  EXPECT_EQ(model.GenerateBatch(GoldenPrompts(), 10), kGoldenGenerate);
  EXPECT_EQ(model.BeamDecodeBatch(GoldenPrompts(), 10, 4), kGoldenBeam);
}

TEST(VecF32Provider, EngineParityContractsHold) {
  ProviderScope scope("vec_f32");
  Rng rng(7);
  Transformer model(GoldenConfig(), &rng);
  const auto prompts = GoldenPrompts();
  // vec_f32 preserves the oracle's accumulation order, so outputs stay
  // byte-identical to the scalar goldens...
  EXPECT_EQ(model.GenerateBatch(prompts, 10), kGoldenGenerate);
  EXPECT_EQ(model.BeamDecodeBatch(prompts, 10, 4), kGoldenBeam);
  // ...and the batched-vs-serial engine parity holds per provider.
  std::vector<std::vector<int>> serial;
  for (const auto& p : prompts) {
    serial.push_back(reference_decode::GreedyDecode(model, p, 10));
  }
  EXPECT_EQ(model.GenerateBatch(prompts, 10), serial);
}

// ---------------------------------------------------------------------------
// int8 end-to-end: reduced-grid join accuracy gate
// ---------------------------------------------------------------------------

// Tolerance policy (documented in docs/architecture.md): int8 join F1 and
// prediction ANED on the reduced grid must stay within 0.15 of the fp32
// run. At unit-test training budgets both legs sit near the bottom of the
// F1 scale (mini-scale exact-join matching is hard; exp_fig4 reaches
// F1~0.15 only after ~60s of training), so the tolerance assert alone would
// pass trivially. Two guards keep the gate meaningful: the model must be
// genuinely trained (validation exact-match above chance), and int8 greedy
// decodes must agree with fp32 decodes on most prompts — the sharpest
// end-to-end signal a quantized path can give on a small model.
constexpr double kInt8F1Tolerance = 0.15;

TEST(Int8Provider, EndToEndJoinAccuracyWithinTolerance) {
  TransformerConfig cfg;
  cfg.dim = 48;
  cfg.num_heads = 4;
  cfg.ff_hidden = 96;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 1;
  cfg.max_len = 160;
  Rng rng(20247);
  auto model = std::make_shared<Transformer>(cfg, &rng);

  TrainingDataOptions dopts;
  dopts.num_groups = 200;
  dopts.pairs_per_group = 10;
  dopts.sets_per_group = 4;
  dopts.source.min_len = 4;
  dopts.source.max_len = 9;
  dopts.program.min_steps = 1;
  dopts.program.max_steps = 2;
  TrainingDataGenerator gen(dopts);
  auto data = gen.Generate(&rng);

  SerializerOptions sopts;
  sopts.max_tokens = 160;
  TrainerOptions topts;
  topts.epochs = 2;
  topts.batch_size = 8;
  topts.adam.lr = 2e-3f;
  topts.max_label_tokens = 24;
  Seq2SeqTrainer trainer(model.get(), Serializer(sopts), topts);
  EvalResult val;
  {
    // Train under scalar: training is fp32 regardless of the serving
    // provider, and this keeps the weights identical across both legs.
    ProviderScope scope("scalar");
    trainer.Train(data.train, &rng);
    val = trainer.Evaluate(data.validation, 30);
  }
  EXPECT_GT(val.exact_match, 0.1) << "model failed to train; gate is moot";

  NeuralModelOptions nopts;
  nopts.max_output_tokens = 16;
  auto backend = std::make_shared<NeuralSeq2SeqModel>(
      model, Serializer(sopts), nopts);
  SyntheticOptions eval_opts;
  eval_opts.num_tables = 2;
  eval_opts.rows_per_table = 12;
  eval_opts.min_len = 5;
  eval_opts.max_len = 9;
  Rng data_rng(20248);
  Dataset dataset = MakeSynSt(eval_opts, &data_rng);

  // Fixed prompt set for the decode-agreement check, reusing the training
  // distribution's serialization shape (3 examples + masked source).
  std::vector<Prompt> prompts;
  for (int i = 0; i < 24 && i < static_cast<int>(data.validation.size());
       ++i) {
    Prompt p;
    p.examples = data.validation[i].context;
    p.source = data.validation[i].input_source;
    prompts.push_back(p);
  }

  double f1[2] = {0.0, 0.0};
  double aned[2] = {0.0, 0.0};
  std::vector<std::string> decodes[2];
  const char* legs[2] = {"scalar", "int8"};
  for (int i = 0; i < 2; ++i) {
    ProviderScope scope(legs[i]);
    PipelineOptions popts;
    popts.decomposer.num_trials = 3;
    popts.serializer = sopts;
    DttJoinMethod method(
        "neural", std::vector<std::shared_ptr<TextToTextModel>>{backend},
        popts);
    DatasetEval eval = EvaluateOnDataset(&method, dataset, /*seed=*/20249);
    f1[i] = eval.join.f1;
    aned[i] = eval.pred.aned;
    for (auto& r : backend->TransformBatch(prompts)) {
      decodes[i].push_back(r.ok() ? r.value() : std::string("<error>"));
    }
  }
  EXPECT_LE(std::fabs(f1[1] - f1[0]), kInt8F1Tolerance)
      << "fp32 F1 " << f1[0] << " vs int8 F1 " << f1[1];
  EXPECT_LE(std::fabs(aned[1] - aned[0]), kInt8F1Tolerance)
      << "fp32 ANED " << aned[0] << " vs int8 ANED " << aned[1];
  ASSERT_EQ(decodes[0].size(), decodes[1].size());
  int agree = 0;
  for (size_t i = 0; i < decodes[0].size(); ++i) {
    if (decodes[0][i] == decodes[1][i]) ++agree;
  }
  // Empirically int8 agrees on 24/24 of these decodes; 3/4 leaves margin
  // for future quantizer tweaks without letting a broken path through.
  EXPECT_GE(agree, static_cast<int>(decodes[0].size() * 3 / 4))
      << agree << "/" << decodes[0].size() << " greedy decodes agree";
}

}  // namespace
}  // namespace nn
}  // namespace dtt
