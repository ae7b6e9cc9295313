// Entry points of the explicit SIMD micro-kernel translation units
// (kernels_avx2.cpp, kernels_avx512.cpp). Internal to numerics: the public
// kernels in blas.cpp / blas_gemm.cpp / qr.cpp dispatch here on
// active_isa(), and callers never see these symbols.
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
//  - gram_rows_*, matvec_rows_*, matvec_t_rows_*, givens_sweep_columns_*:
//    bit-for-bit identical to the portable scalar loops on every input —
//    lanes map to independent output elements and each lane replays the
//    exact scalar operation sequence (separate mul/add, never FMA).
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

// ---- gram (upper-triangle tiles of G = A^T A, rows [i0, i1)) -----------
void gram_rows_avx2(ConstMatrixView a, MatrixView g, std::size_t i0,
                    std::size_t i1);
void gram_rows_avx512(ConstMatrixView a, MatrixView g, std::size_t i0,
                      std::size_t i1);

// ---- matvec (y[i] = <a_row_i, x>, rows [i0, i1)) -----------------------
// Lanes are rows (4 at a time via in-register 4x4 transposes), so each
// row's sum still accumulates j-ascending exactly like the scalar loop.
void matvec_rows_avx2(ConstMatrixView a, const double* x, double* y,
                      std::size_t i0, std::size_t i1);
void matvec_rows_avx512(ConstMatrixView a, const double* x, double* y,
                        std::size_t i0, std::size_t i1);

// ---- matvec_transpose (y += x[i] * a_row_i over rows [i0, i1)) ---------
void matvec_t_rows_avx2(ConstMatrixView a, const double* x, double* y,
                        std::size_t i0, std::size_t i1);
void matvec_t_rows_avx512(ConstMatrixView a, const double* x, double* y,
                          std::size_t i0, std::size_t i1);

// ---- Givens sweep of the row-downdate (columns [0, n) of R) ------------
// Applies the precomputed rotations (c[i], s[i]) bottom-up to every
// column, 4/8 columns per pass with lane masks carving the upper
// triangle; per column the rotation order and arithmetic match the
// scalar sweep exactly.
void givens_sweep_columns_avx2(MatrixView r, const double* c,
                               const double* s);
void givens_sweep_columns_avx512(MatrixView r, const double* c,
                                 const double* s);

}  // namespace eigenmaps::numerics::detail

#endif  // EIGENMAPS_NUMERICS_SIMD_KERNELS_H
