// Entry points of the explicit SIMD micro-kernel translation units
// (kernels_avx2.cpp, kernels_avx512.cpp): the two expansion GEMMs, the
// only kernels with per-ISA implementations. Internal to numerics: the
// public GEMMs in blas_gemm.cpp / gemm_f32.cpp dispatch here on
// active_isa(), and callers never see these symbols. Every other kernel
// (gram, matvec, QR, the eigensolver) is one compiled loop on every tier,
// so no golden-path result depends on the CPU (DESIGN.md §13).
//
// The definitions only exist when CMake compiles the x86 kernel TUs
// (EIGENMAPS_HAVE_X86_KERNELS); every call site is guarded by the same
// macro so non-x86 builds link the portable path alone.
//
// Accuracy contract per kernel (DESIGN.md §13):
//  - gemm_rows_*: FMA-tiled, ULP-bounded against the contraction-free
//    scalar reference (the TU-level -ffp-contract=fast family). Per
//    output element the accumulation is still k-ascending and
//    left-associated, so results are deterministic per tier.
//  - gemm_f32_rows_*: fp32-FMA-tiled; no cross-tier bitwise contract —
//    the fp32 backend is gated by its measured error budget instead
//    (DESIGN.md §14). Deterministic per tier.
#ifndef EIGENMAPS_NUMERICS_SIMD_KERNELS_H
#define EIGENMAPS_NUMERICS_SIMD_KERNELS_H

#include <cstddef>

#include "numerics/gemm_f32.h"
#include "numerics/matrix.h"

namespace eigenmaps::numerics::detail {

// ---- GEMM family (C rows [i0, i1) += A * B, optional bias seed) --------
// Same panel walk as the portable matmul_rows: k-panels of kBlockK
// ascending, j-panels of kBlockJ, bias seeded on the first k-panel. The
// register tile is 2 rows x 16 columns (4 ymm) for AVX2 and 8 rows x 8
// columns (8 zmm) for AVX-512, with masked loads/stores on the column
// tail so strided views need no copy.
void gemm_rows_avx2(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    const double* bias, std::size_t i0, std::size_t i1);
void gemm_rows_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                      const double* bias, std::size_t i0, std::size_t i1);

// ---- fp32 expansion GEMM (C rows [i0, i1) = bias + A * B, fp32 acc) ----
// Register tiles mirror the fp64 GEMM at twice the lane width: 2 rows x 16
// columns (4 ymm) for AVX2, 8 rows x 16 columns (8 zmm) for AVX-512.
// Coefficients convert fp64 -> fp32 into per-k-panel stack buffers; the
// double output round-trips through fp32 exactly (every stored value is a
// widened float), so panel RMW never changes fp32 accumulation semantics.
void gemm_f32_rows_avx2(ConstMatrixView a, const ConstF32MatrixView& b,
                        const float* bias, MatrixView c, std::size_t i0,
                        std::size_t i1);
void gemm_f32_rows_avx512(ConstMatrixView a, const ConstF32MatrixView& b,
                          const float* bias, MatrixView c, std::size_t i0,
                          std::size_t i1);

}  // namespace eigenmaps::numerics::detail

#endif  // EIGENMAPS_NUMERICS_SIMD_KERNELS_H
