#ifndef DTT_NN_KERNEL_PROVIDER_H_
#define DTT_NN_KERNEL_PROVIDER_H_

// The identity of the GEMM loops compiled into this build (nn/gemm.h). There
// is one implementation and no runtime selection; bench JSON documents and
// the perfbench header stamp this name as kernel_provider.

namespace dtt {
namespace nn {

/// Names the GEMM implementation in nn/gemm.h.
struct KernelProvider {
  const char* name() const { return "vec_f32"; }
};

/// The GEMM implementation every matrix product runs on.
inline KernelProvider ActiveKernelProvider() { return KernelProvider{}; }

}  // namespace nn
}  // namespace dtt

#endif  // DTT_NN_KERNEL_PROVIDER_H_
