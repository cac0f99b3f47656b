// The vec_f32 kernel provider: register-blocked fp32 GEMM loops shaped for
// compiler auto-vectorization at the baseline target (no -march flags).
//
// Order contract: for every output element, the k partial products are added
// in the same ascending-p sequence as the scalar oracle (nn/gemm.h), resumed
// from the element's existing value — only *independent* output elements are
// computed in parallel, never one element's sum reassociated. The inner
// loops carry no zero-skip branch; skipping `c += 0.0f * b` is bitwise
// neutral for finite inputs (and accumulators that are not -0.0), so these
// kernels produce bit-identical results to scalar on every model path and
// the engine parity contracts (GenerateBatch and BeamDecodeBatch == the
// autograd reference decoders) hold unchanged under this provider —
// nn_gemm_test asserts the bit-identity, the CI vec_f32 leg runs the whole
// tier-1 suite on it.
#include <cstddef>

#include "nn/kernel_provider.h"

namespace dtt {
namespace nn {
namespace {

// Output-column tile held in registers across the whole p loop. 16 floats =
// four SSE registers; small enough that the tail loop below stays cheap on
// the narrow per-head dims (head_dim 8..16).
constexpr int kColTile = 16;

// One [1, tile] slice of C += A-row * B: acc starts from the existing C
// values so the per-element addition sequence matches scalar exactly.
// `a_stride` is the step between consecutive-p elements of the A row (1 for
// row-major A, m for the transposed-A kernel).
inline void RowTileAcc(const float* a, size_t a_stride, const float* b, int k,
                       int n, int tile, float* crow) {
  float acc[kColTile];
  for (int jj = 0; jj < tile; ++jj) acc[jj] = crow[jj];
  for (int p = 0; p < k; ++p) {
    const float av = a[static_cast<size_t>(p) * a_stride];
    const float* bp = b + static_cast<size_t>(p) * n;
    for (int jj = 0; jj < tile; ++jj) acc[jj] += av * bp[jj];
  }
  for (int jj = 0; jj < tile; ++jj) crow[jj] = acc[jj];
}

// Full-width specialization with a compile-time trip count so the compiler
// unrolls and vectorizes without tail checks.
inline void RowTileAccFull(const float* a, size_t a_stride, const float* b,
                           int k, int n, float* crow) {
  float acc[kColTile];
  for (int jj = 0; jj < kColTile; ++jj) acc[jj] = crow[jj];
  for (int p = 0; p < k; ++p) {
    const float av = a[static_cast<size_t>(p) * a_stride];
    const float* bp = b + static_cast<size_t>(p) * n;
    for (int jj = 0; jj < kColTile; ++jj) acc[jj] += av * bp[jj];
  }
  for (int jj = 0; jj < kColTile; ++jj) crow[jj] = acc[jj];
}

inline void GemmRowMajor(const float* a, size_t a_row_stride,
                         size_t a_col_stride, const float* b, float* c, int m,
                         int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* acol = a + static_cast<size_t>(i) * a_row_stride;
    float* crow = c + static_cast<size_t>(i) * n;
    int j0 = 0;
    for (; j0 + kColTile <= n; j0 += kColTile) {
      RowTileAccFull(acol, a_col_stride, b + j0, k, n, crow + j0);
    }
    if (j0 < n) {
      RowTileAcc(acol, a_col_stride, b + j0, k, n, n - j0, crow + j0);
    }
  }
}

class VecF32Provider final : public KernelProvider {
 public:
  const char* name() const override { return "vec_f32"; }

  void GemmAcc(const float* a, const float* b, float* c, int m, int k,
               int n) const override {
    GemmRowMajor(a, static_cast<size_t>(k), 1, b, c, m, k, n);
  }

  void GemmAtAcc(const float* a, const float* b, float* c, int k, int m,
                 int n) const override {
    // A is [k, m]: row i of A^T walks column i of A with stride m.
    GemmRowMajor(a, 1, static_cast<size_t>(m), b, c, m, k, n);
  }

  void GemmBtAcc(const float* a, const float* b, float* c, int m, int k,
                 int n) const override {
    // Four independent dot chains per step: each chain keeps the oracle's
    // sequential ascending-p order, the four together give the ILP.
    for (int i = 0; i < m; ++i) {
      const float* arow = a + static_cast<size_t>(i) * k;
      float* crow = c + static_cast<size_t>(i) * n;
      int j = 0;
      for (; j + 4 <= n; j += 4) {
        const float* b0 = b + static_cast<size_t>(j) * k;
        const float* b1 = b0 + k;
        const float* b2 = b1 + k;
        const float* b3 = b2 + k;
        float d0 = 0.0f, d1 = 0.0f, d2 = 0.0f, d3 = 0.0f;
        for (int p = 0; p < k; ++p) {
          const float av = arow[p];
          d0 += av * b0[p];
          d1 += av * b1[p];
          d2 += av * b2[p];
          d3 += av * b3[p];
        }
        crow[j] += d0;
        crow[j + 1] += d1;
        crow[j + 2] += d2;
        crow[j + 3] += d3;
      }
      for (; j < n; ++j) {
        const float* brow = b + static_cast<size_t>(j) * k;
        float dot = 0.0f;
        for (int p = 0; p < k; ++p) dot += arow[p] * brow[p];
        crow[j] += dot;
      }
    }
  }
};

}  // namespace

const KernelProvider& VecF32KernelProvider() {
  static const VecF32Provider provider;
  return provider;
}

}  // namespace nn
}  // namespace dtt
