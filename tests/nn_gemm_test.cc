// The GEMM loops (nn/gemm.h) against their oracle:
//  - bit-identity with the scalar reference loops (testing/reference_gemm.h)
//    on odd/tail dims, planted zeros and a nonzero initial C — the property
//    that keeps every engine parity contract green;
//  - GenerateBatch/BeamDecodeBatch outputs pinned byte-for-byte to the
//    pre-refactor engine outputs, and GenerateBatch equal to the autograd
//    reference greedy decode.
#include <vector>

#include <gtest/gtest.h>

#include "nn/gemm.h"
#include "nn/transformer.h"
#include "testing/matchers.h"
#include "testing/reference_decode.h"
#include "testing/reference_gemm.h"
#include "text/vocab.h"
#include "util/rng.h"

namespace dtt {
namespace nn {
namespace {

using ::dtt::testing::TensorEq;

Tensor RandomTensor(const std::vector<int>& shape, Rng* rng) {
  Tensor t(shape);
  for (size_t i = 0; i < t.size(); ++i) {
    t.data()[i] =
        static_cast<float>(rng->NextInt(-1000, 1000)) / 1000.0f;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Production loops vs the scalar oracle on odd/tail dimensions
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

// The suite keeps its historical name: the production loops are the former
// vec_f32 kernels, and the oracle is the former scalar provider.
TEST(VecF32Provider, BitIdenticalToScalarOnOddDims) {
  Rng rng(17);
  for (int m : kDims) {
    for (int k : kDims) {
      for (int n : kDims) {
        GemmCase gc = MakeCase(m, k, n, &rng);
        Tensor want = gc.c0, got = gc.c0;
        reference_gemm::GemmAcc(gc.a.data(), gc.b.data(), want.data(), m, k, n);
        internal::GemmAcc(gc.a.data(), gc.b.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAcc m=" << m << " k=" << k << " n=" << n;

        want = gc.c0;
        got = gc.c0;
        reference_gemm::GemmAtAcc(gc.at.data(), gc.b.data(), want.data(), k, m, n);
        internal::GemmAtAcc(gc.at.data(), gc.b.data(), got.data(), k, m, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmAtAcc m=" << m << " k=" << k << " n=" << n;

        want = gc.c0;
        got = gc.c0;
        reference_gemm::GemmBtAcc(gc.a.data(), gc.bt.data(), want.data(), m, k, n);
        internal::GemmBtAcc(gc.a.data(), gc.bt.data(), got.data(), m, k, n);
        ASSERT_TRUE(TensorEq(got, want))
            << "GemmBtAcc m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(VecF32Provider, AffineBitIdenticalToScalar) {
  Rng rng(23);
  for (int rows : kDims) {
    for (int in_dim : kDims) {
      for (int out_dim : kDims) {
        Tensor x = RandomTensor({rows, in_dim}, &rng);
        Tensor w = RandomTensor({in_dim, out_dim}, &rng);
        Tensor bias = RandomTensor({out_dim}, &rng);
        Tensor want({rows, out_dim}), got({rows, out_dim});
        reference_gemm::Affine(x.data(), rows, in_dim, w.data(), bias.data(),
                               out_dim, want.data());
        internal::Affine(x.data(), rows, in_dim, w.data(), bias.data(),
                         out_dim, got.data());
        ASSERT_TRUE(TensorEq(got, want))
            << "Affine rows=" << rows << " in=" << in_dim
            << " out=" << out_dim;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine outputs: pre-refactor goldens and reference-decode parity
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

// Captured from the engine as it ran on the scalar oracle loops, for
// Transformer(GoldenConfig(), Rng(7)) on GoldenPrompts(), 10 steps, beam 4.
// The production loops keep the oracle's accumulation order, so they must
// keep reproducing these byte-for-byte.
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

TEST(VecF32Provider, EngineParityContractsHold) {
  Rng rng(7);
  Transformer model(GoldenConfig(), &rng);
  const auto prompts = GoldenPrompts();
  EXPECT_EQ(model.GenerateBatch(prompts, 10), kGoldenGenerate);
  EXPECT_EQ(model.BeamDecodeBatch(prompts, 10, 4), kGoldenBeam);
  // The batched engine also matches the serial autograd decode.
  std::vector<std::vector<int>> serial;
  for (const auto& p : prompts) {
    serial.push_back(reference_decode::GreedyDecode(model, p, 10));
  }
  EXPECT_EQ(model.GenerateBatch(prompts, 10), serial);
}

}  // namespace
}  // namespace nn
}  // namespace dtt
