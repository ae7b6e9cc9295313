// Reduced-precision expansion GEMM: C(double) = bias + A(double) * B(float)
// with all products and accumulations performed in fp32.
//
// This is the serving throughput tier (DESIGN.md §14): the expansion
// operator is converted to fp32 once at model build time (half the bytes,
// twice the SIMD lanes), coefficient rows are converted fp32 on the fly
// inside the kernel, accumulation is fp32 (FMA where the tier has it), and
// only the final store widens back to double. There is no cross-tier
// bitwise contract — portable/AVX2/AVX-512 may differ in fp32 last bits —
// but each tier is fully deterministic and the end-to-end expansion error
// is measured against the fp64 operator at model build and enforced
// against the model's ExpansionOptions::fp32_error_budget at publish time.
#ifndef EIGENMAPS_NUMERICS_GEMM_F32_H
#define EIGENMAPS_NUMERICS_GEMM_F32_H

#include <cstddef>

#include "numerics/matrix.h"

namespace eigenmaps::numerics {

/// Read-only rows x cols view over row-major floats with an explicit row
/// stride (mirrors ConstMatrixView for the fp32 operator copy).
struct ConstF32MatrixView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t stride = 0;

  const float* row_data(std::size_t i) const { return data + i * stride; }
};

/// c(i, j) = double(fp32(bias[j]) + sum_k fp32(a(i, k)) * b(k, j)), fp32
/// accumulation, k ascending. `bias` holds b.cols floats. Same alias rules
/// as matmul_bias_into; the hot path allocates nothing (coefficient
/// conversion uses fixed per-panel stack buffers).
void matmul_bias_f32_into(ConstMatrixView a, const ConstF32MatrixView& b,
                          const float* bias, MatrixView c);

}  // namespace eigenmaps::numerics

#endif  // EIGENMAPS_NUMERICS_GEMM_F32_H
