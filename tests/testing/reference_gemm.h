#ifndef DTT_TESTS_TESTING_REFERENCE_GEMM_H_
#define DTT_TESTS_TESTING_REFERENCE_GEMM_H_

// The scalar ikj GEMM loops that nn/gemm.h replaced, frozen verbatim. They
// are the *oracle* for the production loops: their accumulation order
// defines bit-exact correctness. The contract has two parts:
//
//  1. Per output element, partial products are added in ascending-p order,
//     resuming from the element's existing value.
//  2. Terms whose A operand is an exact fp32 zero are skipped. The skip is
//     load-bearing for locality (padded batch rows and masked-out softmax
//     scores are exact zeros by construction — see the Softmax/PaddedBatch
//     notes in nn/ops.cc) and is part of the oracle's definition: for
//     finite inputs, skipping `c += 0.0f * b` is bitwise-neutral, so
//     branch-free production loops still match bit-for-bit. Do not "fix"
//     the asymmetry the other way — introducing a skip that changes
//     accumulation order, or relying on the skip for non-finite operands.

#include <cstddef>

namespace dtt {
namespace reference_gemm {

/// C += A * B for row-major [m,k] x [k,n]; ikj ordering for locality.
inline void GemmAcc(const float* a, const float* b, float* c, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b + static_cast<size_t>(p) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += A^T * B for A [k,m], B [k,n] -> C [m,n].
inline void GemmAtAcc(const float* a, const float* b, float* c, int k, int m,
                      int n) {
  for (int p = 0; p < k; ++p) {
    const float* arow = a + static_cast<size_t>(p) * m;
    const float* brow = b + static_cast<size_t>(p) * n;
    for (int i = 0; i < m; ++i) {
      float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + static_cast<size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C += A * B^T for A [m,k], B [n,k] -> C [m,n]. Carries the same
/// `av == 0.0f` skip as GemmAcc/GemmAtAcc: rows of A that are exact zeros —
/// padded batch rows backpropagating zero grad through MatMul — skip their
/// multiply-adds entirely. Skipping a zero term is bitwise-neutral for the
/// fresh `dot` accumulator.
inline void GemmBtAcc(const float* a, const float* b, float* c, int m, int k,
                      int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<size_t>(i) * k;
    float* crow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<size_t>(j) * k;
      float dot = 0.0f;
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        dot += av * brow[p];
      }
      crow[j] += dot;
    }
  }
}

/// out[rows, out_dim] = x[rows, in_dim] @ W + b on the loops above: full
/// GEMM into a zeroed `out` first, bias added after (Linear::Forward order).
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

}  // namespace reference_gemm
}  // namespace dtt

#endif  // DTT_TESTS_TESTING_REFERENCE_GEMM_H_
