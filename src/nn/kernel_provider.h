#ifndef DTT_NN_KERNEL_PROVIDER_H_
#define DTT_NN_KERNEL_PROVIDER_H_

// Runtime-pluggable GEMM kernel providers.
//
// Every matrix product in the system — autograd MatMul forward/backward
// (nn/ops.cc), the graph-free decode engines (nn/decode_session.cc,
// nn/beam.cc via AffineRows in nn/infer_internal.h), and therefore the
// trainer — routes through the process-wide active KernelProvider. Three
// implementations are registered:
//
//   scalar   The original loops from nn/gemm.h, verbatim. This is the
//            bit-exactness oracle: its accumulation order (including the
//            exact-zero skip, see gemm.h) *defines* correct output. Default.
//   vec_f32  Register-blocked fp32 kernels written so the compiler can
//            vectorize across independent output elements. Each output
//            element still accumulates its k terms in the same sequential
//            order as the scalar oracle, and the inner loops carry no
//            zero-skip branch — on finite inputs the results are
//            bit-identical to scalar (skipping `c += 0.0f * b` never
//            changes c bitwise), so the engine parity contracts
//            (graph-free decode == autograd reference decode) hold under
//            this provider.
//   int8     Row-major symmetric per-tensor quantization (nn/quantize.h):
//            weights are quantized once per revision at first use
//            (Linear::PackedFor), activations per call; products accumulate
//            in int32 and dequantize on store. Faster and deliberately
//            *not* bit-exact — it is gated end-to-end instead: join
//            accuracy on a reduced eval grid must stay within a stated
//            tolerance of the fp32 run (nn_gemm_test, exp_runtime).
//
// Selection: `DTT_KERNEL_PROVIDER` env var (read once, at first use) or
// SetActiveKernelProvider(), surfaced as PipelineOptions::kernel_provider.
// Bench JSON documents stamp the active provider as meta.kernel_provider.

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace dtt {
namespace nn {

/// Opaque provider-prepared weight data (e.g. the int8 provider's quantized
/// copy of a Linear weight matrix). Instances are created by
/// KernelProvider::Prepare and are only meaningful to the provider that made
/// them; Linear::PackedFor keys its cache by provider so the two never mix.
class PackedWeights {
 public:
  virtual ~PackedWeights() = default;
};

/// One GEMM implementation. All matrices are row-major float32 unless a
/// method quantizes internally; every kernel *accumulates* into `c`
/// (callers zero-initialize). Implementations must be stateless and
/// thread-safe: the batch eval workers and the serving executor call the
/// same provider concurrently.
class KernelProvider {
 public:
  virtual ~KernelProvider() = default;

  /// Registry name ("scalar", "vec_f32", "int8").
  virtual const char* name() const = 0;

  /// C += A * B for A [m,k], B [k,n] -> C [m,n].
  virtual void GemmAcc(const float* a, const float* b, float* c, int m, int k,
                       int n) const = 0;

  /// C += A^T * B for A [k,m], B [k,n] -> C [m,n].
  virtual void GemmAtAcc(const float* a, const float* b, float* c, int k,
                         int m, int n) const = 0;

  /// C += A * B^T for A [m,k], B [n,k] -> C [m,n].
  virtual void GemmBtAcc(const float* a, const float* b, float* c, int m,
                         int k, int n) const = 0;

  /// out[rows, out_dim] = x[rows, in_dim] @ W + b, matching Linear::Forward
  /// (full GEMM first, bias added after). `out` is written, not accumulated.
  /// `packed` is an optional Prepare() result for `w` from *this* provider
  /// (pass nullptr to have the provider work from the float weights); the
  /// float `w` is always supplied so providers without packed formats
  /// ignore `packed` entirely.
  virtual void Affine(const float* x, int rows, int in_dim, const float* w,
                      const float* bias, int out_dim,
                      const PackedWeights* packed, float* out) const;

  /// Prepares a weight matrix [in_dim, out_dim] for repeated Affine calls.
  /// Returns nullptr when this provider has no packed format (the default).
  virtual std::shared_ptr<PackedWeights> Prepare(const float* w, int in_dim,
                                                 int out_dim) const {
    (void)w;
    (void)in_dim;
    (void)out_dim;
    return nullptr;
  }

  /// Whether Prepare() returns a non-null packed format. Lets Linear skip
  /// the packed-weight cache machinery for float-only providers.
  virtual bool uses_packed_weights() const { return false; }
};

/// The provider selected for this process. Resolved on first call from the
/// `DTT_KERNEL_PROVIDER` env var (unknown names warn on stderr and fall back
/// to scalar); "scalar" when the variable is unset.
const KernelProvider& ActiveKernelProvider();

/// Replaces the active provider. Unknown names return InvalidArgument and
/// leave the selection unchanged. Thread-safe, but intended for startup /
/// test scoping — in-flight decodes pick up the change at their next
/// provider resolution, not mid-sequence.
Status SetActiveKernelProvider(const std::string& name);

/// Looks up a registered provider by name without activating it.
Result<const KernelProvider*> FindKernelProvider(const std::string& name);

/// Registry names, in registration order ({"scalar", "vec_f32", "int8"}).
std::vector<std::string> KernelProviderNames();

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_KERNEL_PROVIDER_H_
