#ifndef DTT_NN_GEMM_H_
#define DTT_NN_GEMM_H_

// The GEMM loops behind every matrix product in the system: the autograd
// MatMul forward/backward (nn/ops.cc, hence the trainer) and the graph-free
// decode engines (AffineRows in nn/infer_internal.h). Register-blocked fp32
// loops shaped for compiler auto-vectorization at the baseline target (no
// -march flags).
//
// Order contract: for every output element, the k partial products are added
// in ascending-p order, resumed from the element's existing value. Only
// *independent* output elements are computed in parallel; one element's sum
// is never reassociated. The loops carry no zero-skip branch.
//
// The oracle for that contract is the scalar ikj loops in
// tests/testing/reference_gemm.h, which skip terms whose A operand is an
// exact zero. Skipping `c += 0.0f * b` is bitwise neutral when `b` is finite
// and `c` is a finite value other than -0.0 (`-0.0f + 0.0f` is `+0.0f`), so
// on finite inputs with C starting from +0.0 or any nonzero finite value
// these loops are bit-identical to the oracle (nn_gemm_test). Every caller
// starts C from a fresh zero tensor or a finite accumulator.

#include <cstddef>

namespace dtt {
namespace nn {
namespace internal {

// Output-column tile held in registers across the whole p loop. 16 floats =
// four SSE registers; small enough that the tail loop below stays cheap on
// the narrow per-head dims (head_dim 8..16).
constexpr int kGemmColTile = 16;

// One [1, tile] slice of C += A-row * B: acc starts from the existing C
// values so the per-element addition sequence is ascending p. `a_stride` is
// the step between consecutive-p elements of the A row (1 for row-major A, m
// for the transposed-A kernel).
inline void GemmRowTileAcc(const float* a, size_t a_stride, const float* b,
                           int k, int n, int tile, float* crow) {
  float acc[kGemmColTile];
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
inline void GemmRowTileAccFull(const float* a, size_t a_stride,
                               const float* b, int k, int n, float* crow) {
  float acc[kGemmColTile];
  for (int jj = 0; jj < kGemmColTile; ++jj) acc[jj] = crow[jj];
  for (int p = 0; p < k; ++p) {
    const float av = a[static_cast<size_t>(p) * a_stride];
    const float* bp = b + static_cast<size_t>(p) * n;
    for (int jj = 0; jj < kGemmColTile; ++jj) acc[jj] += av * bp[jj];
  }
  for (int jj = 0; jj < kGemmColTile; ++jj) crow[jj] = acc[jj];
}

inline void GemmRowMajorAcc(const float* a, size_t a_row_stride,
                            size_t a_col_stride, const float* b, float* c,
                            int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* acol = a + static_cast<size_t>(i) * a_row_stride;
    float* crow = c + static_cast<size_t>(i) * n;
    int j0 = 0;
    for (; j0 + kGemmColTile <= n; j0 += kGemmColTile) {
      GemmRowTileAccFull(acol, a_col_stride, b + j0, k, n, crow + j0);
    }
    if (j0 < n) {
      GemmRowTileAcc(acol, a_col_stride, b + j0, k, n, n - j0, crow + j0);
    }
  }
}

/// C += A * B for A [m,k], B [k,n] -> C [m,n].
inline void GemmAcc(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  GemmRowMajorAcc(a, static_cast<size_t>(k), 1, b, c, m, k, n);
}

/// C += A^T * B for A [k,m], B [k,n] -> C [m,n].
inline void GemmAtAcc(const float* a, const float* b, float* c, int k, int m,
                      int n) {
  // A is [k, m]: row i of A^T walks column i of A with stride m.
  GemmRowMajorAcc(a, 1, static_cast<size_t>(m), b, c, m, k, n);
}

/// C += A * B^T for A [m,k], B [n,k] -> C [m,n].
inline void GemmBtAcc(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  // Four independent dot chains per step: each chain keeps the sequential
  // ascending-p order, the four together give the ILP.
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

/// out[rows, out_dim] = x[rows, in_dim] @ W + b, matching Linear::Forward
/// (full GEMM first, bias added after). `out` is written, not accumulated.
inline void Affine(const float* x, int rows, int in_dim, const float* w,
                   const float* bias, int out_dim, float* out) {
  const size_t total = static_cast<size_t>(rows) * out_dim;
  for (size_t i = 0; i < total; ++i) out[i] = 0.0f;
  GemmAcc(x, w, out, rows, in_dim, out_dim);
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<size_t>(i) * out_dim;
    for (int j = 0; j < out_dim; ++j) row[j] += bias[j];
  }
}

}  // namespace internal
}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_GEMM_H_
