// Explicit AVX-512 expansion-GEMM micro-kernels (512-bit, masked edges).
// Compiled with -mavx512f -mavx512dq -mavx512vl -mfma and
// -ffp-contract=off: every arithmetic operation is an explicit intrinsic,
// so FMA chains never reassociate and each tier's results are fixed by
// this source. Column tails use lane masks instead of scalar peeling, so
// strided views of any width run the same code path. See simd_kernels.h
// for the accuracy contract.
#include "numerics/simd_kernels.h"

#if defined(EIGENMAPS_HAVE_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "numerics/blas_internal.h"

namespace eigenmaps::numerics::detail {

namespace {

/// Mask selecting the low `w` (1..7) lanes of a zmm of doubles.
inline __mmask8 lane_mask8(std::size_t w) {
  return static_cast<__mmask8>((1u << w) - 1u);
}

// ---- GEMM ---------------------------------------------------------------

/// 8 rows x 8 columns register tile over one k-panel: 8 zmm accumulators,
/// one B vector per k shared by all rows, FMA chains in ascending-k order.
inline void tile_8x8(const double* const* ar, double* const* cr,
                     ConstMatrixView b, const double* bias, bool first_panel,
                     std::size_t kk, std::size_t kend, std::size_t j) {
  __m512d acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7;
  if (first_panel && bias != nullptr) {
    const __m512d bv = _mm512_loadu_pd(bias + j);
    acc0 = acc1 = acc2 = acc3 = acc4 = acc5 = acc6 = acc7 = bv;
  } else {
    acc0 = _mm512_loadu_pd(cr[0] + j);
    acc1 = _mm512_loadu_pd(cr[1] + j);
    acc2 = _mm512_loadu_pd(cr[2] + j);
    acc3 = _mm512_loadu_pd(cr[3] + j);
    acc4 = _mm512_loadu_pd(cr[4] + j);
    acc5 = _mm512_loadu_pd(cr[5] + j);
    acc6 = _mm512_loadu_pd(cr[6] + j);
    acc7 = _mm512_loadu_pd(cr[7] + j);
  }
  for (std::size_t k = kk; k < kend; ++k) {
    const __m512d bv = _mm512_loadu_pd(b.row_data(k) + j);
    acc0 = _mm512_fmadd_pd(_mm512_set1_pd(ar[0][k]), bv, acc0);
    acc1 = _mm512_fmadd_pd(_mm512_set1_pd(ar[1][k]), bv, acc1);
    acc2 = _mm512_fmadd_pd(_mm512_set1_pd(ar[2][k]), bv, acc2);
    acc3 = _mm512_fmadd_pd(_mm512_set1_pd(ar[3][k]), bv, acc3);
    acc4 = _mm512_fmadd_pd(_mm512_set1_pd(ar[4][k]), bv, acc4);
    acc5 = _mm512_fmadd_pd(_mm512_set1_pd(ar[5][k]), bv, acc5);
    acc6 = _mm512_fmadd_pd(_mm512_set1_pd(ar[6][k]), bv, acc6);
    acc7 = _mm512_fmadd_pd(_mm512_set1_pd(ar[7][k]), bv, acc7);
  }
  _mm512_storeu_pd(cr[0] + j, acc0);
  _mm512_storeu_pd(cr[1] + j, acc1);
  _mm512_storeu_pd(cr[2] + j, acc2);
  _mm512_storeu_pd(cr[3] + j, acc3);
  _mm512_storeu_pd(cr[4] + j, acc4);
  _mm512_storeu_pd(cr[5] + j, acc5);
  _mm512_storeu_pd(cr[6] + j, acc6);
  _mm512_storeu_pd(cr[7] + j, acc7);
}

/// 8 rows x (w < 8) masked edge columns.
inline void tile_8xw(const double* const* ar, double* const* cr,
                     ConstMatrixView b, const double* bias, bool first_panel,
                     std::size_t kk, std::size_t kend, std::size_t j,
                     std::size_t w) {
  const __mmask8 mask = lane_mask8(w);
  __m512d acc[8];
  if (first_panel && bias != nullptr) {
    const __m512d bv = _mm512_maskz_loadu_pd(mask, bias + j);
    for (int r = 0; r < 8; ++r) acc[r] = bv;
  } else {
    for (int r = 0; r < 8; ++r) {
      acc[r] = _mm512_maskz_loadu_pd(mask, cr[r] + j);
    }
  }
  for (std::size_t k = kk; k < kend; ++k) {
    const __m512d bv = _mm512_maskz_loadu_pd(mask, b.row_data(k) + j);
    for (int r = 0; r < 8; ++r) {
      acc[r] = _mm512_fmadd_pd(_mm512_set1_pd(ar[r][k]), bv, acc[r]);
    }
  }
  for (int r = 0; r < 8; ++r) _mm512_mask_storeu_pd(cr[r] + j, mask, acc[r]);
}

/// One row across [jj, jend): 1 x 32 tiles (4 independent FMA chains — the
/// batch-1 serving latency path), then 1 x 8, then a masked tail.
inline void row_1xn(const double* arow, double* crow, ConstMatrixView b,
                    const double* bias, bool first_panel, std::size_t kk,
                    std::size_t kend, std::size_t jj, std::size_t jend) {
  const double* seed_src = (first_panel && bias != nullptr) ? bias : crow;
  std::size_t j = jj;
  for (; j + 32 <= jend; j += 32) {
    __m512d a0 = _mm512_loadu_pd(seed_src + j);
    __m512d a1 = _mm512_loadu_pd(seed_src + j + 8);
    __m512d a2 = _mm512_loadu_pd(seed_src + j + 16);
    __m512d a3 = _mm512_loadu_pd(seed_src + j + 24);
    for (std::size_t k = kk; k < kend; ++k) {
      const __m512d p = _mm512_set1_pd(arow[k]);
      const double* brow = b.row_data(k) + j;
      a0 = _mm512_fmadd_pd(p, _mm512_loadu_pd(brow), a0);
      a1 = _mm512_fmadd_pd(p, _mm512_loadu_pd(brow + 8), a1);
      a2 = _mm512_fmadd_pd(p, _mm512_loadu_pd(brow + 16), a2);
      a3 = _mm512_fmadd_pd(p, _mm512_loadu_pd(brow + 24), a3);
    }
    _mm512_storeu_pd(crow + j, a0);
    _mm512_storeu_pd(crow + j + 8, a1);
    _mm512_storeu_pd(crow + j + 16, a2);
    _mm512_storeu_pd(crow + j + 24, a3);
  }
  for (; j + 8 <= jend; j += 8) {
    __m512d acc = _mm512_loadu_pd(seed_src + j);
    for (std::size_t k = kk; k < kend; ++k) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(arow[k]),
                            _mm512_loadu_pd(b.row_data(k) + j), acc);
    }
    _mm512_storeu_pd(crow + j, acc);
  }
  if (j < jend) {
    const __mmask8 mask = lane_mask8(jend - j);
    __m512d acc = _mm512_maskz_loadu_pd(mask, seed_src + j);
    for (std::size_t k = kk; k < kend; ++k) {
      acc = _mm512_fmadd_pd(_mm512_set1_pd(arow[k]),
                            _mm512_maskz_loadu_pd(mask, b.row_data(k) + j),
                            acc);
    }
    _mm512_mask_storeu_pd(crow + j, mask, acc);
  }
}

}  // namespace

void gemm_rows_avx512(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                      const double* bias, std::size_t i0, std::size_t i1) {
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
    const std::size_t kend = std::min(kk + kBlockK, inner);
    const bool first_panel = kk == 0;
    for (std::size_t jj = 0; jj < n; jj += kBlockJ) {
      const std::size_t jend = std::min(jj + kBlockJ, n);
      std::size_t i = i0;
      for (; i + 8 <= i1; i += 8) {
        const double* ar[8];
        double* cr[8];
        for (std::size_t r = 0; r < 8; ++r) {
          ar[r] = a.row_data(i + r);
          cr[r] = c.row_data(i + r);
        }
        std::size_t j = jj;
        for (; j + 8 <= jend; j += 8) {
          tile_8x8(ar, cr, b, bias, first_panel, kk, kend, j);
        }
        if (j < jend) {
          tile_8xw(ar, cr, b, bias, first_panel, kk, kend, j, jend - j);
        }
      }
      for (; i < i1; ++i) {
        row_1xn(a.row_data(i), c.row_data(i), b, bias, first_panel, kk,
                kend, jj, jend);
      }
    }
  }
}

// ---- fp32 expansion GEMM ------------------------------------------------

namespace {

inline __mmask16 lane_mask16(std::size_t w) {
  return static_cast<__mmask16>((1u << w) - 1u);
}

/// 16 consecutive doubles narrowed to 16 fp32 lanes. Exact on the
/// expansion path: every value stored in C is a widened float.
inline __m512 load16d_ps(const double* p) {
  const __m256 lo = _mm512_cvtpd_ps(_mm512_loadu_pd(p));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_loadu_pd(p + 8));
  return _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1);
}

inline void store16ps_d(double* p, __m512 v) {
  _mm512_storeu_pd(p, _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  _mm512_storeu_pd(p + 8, _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
}

inline __m512 load16d_ps_masked(const double* p, __mmask16 m) {
  const __mmask8 mlo = static_cast<__mmask8>(m & 0xFF);
  const __mmask8 mhi = static_cast<__mmask8>(m >> 8);
  const __m256 lo = _mm512_cvtpd_ps(_mm512_maskz_loadu_pd(mlo, p));
  const __m256 hi = _mm512_cvtpd_ps(_mm512_maskz_loadu_pd(mhi, p + 8));
  return _mm512_insertf32x8(_mm512_castps256_ps512(lo), hi, 1);
}

inline void store16ps_d_masked(double* p, __mmask16 m, __m512 v) {
  _mm512_mask_storeu_pd(p, static_cast<__mmask8>(m & 0xFF),
                        _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
  _mm512_mask_storeu_pd(p + 8, static_cast<__mmask8>(m >> 8),
                        _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
}

/// 8 rows x 16 fp32 columns over one k-panel: 8 zmm accumulators, one B
/// vector per k shared by all rows. `af` holds the 8 coefficient rows
/// converted fp32, kBlockK floats apart.
inline void tile_8x16_f32(const float* af, double* const* cr,
                          const ConstF32MatrixView& b, const float* bias,
                          bool first_panel, std::size_t kk, std::size_t kend,
                          std::size_t j) {
  __m512 acc[8];
  if (first_panel) {
    const __m512 bv = _mm512_loadu_ps(bias + j);
    for (int r = 0; r < 8; ++r) acc[r] = bv;
  } else {
    for (int r = 0; r < 8; ++r) acc[r] = load16d_ps(cr[r] + j);
  }
  for (std::size_t k = kk; k < kend; ++k) {
    const __m512 bv = _mm512_loadu_ps(b.row_data(k) + j);
    for (int r = 0; r < 8; ++r) {
      acc[r] = _mm512_fmadd_ps(
          _mm512_set1_ps(af[static_cast<std::size_t>(r) * kBlockK + k - kk]),
          bv, acc[r]);
    }
  }
  for (int r = 0; r < 8; ++r) store16ps_d(cr[r] + j, acc[r]);
}

/// 8 rows x (w < 16) masked edge columns.
inline void tile_8xw_f32(const float* af, double* const* cr,
                         const ConstF32MatrixView& b, const float* bias,
                         bool first_panel, std::size_t kk, std::size_t kend,
                         std::size_t j, std::size_t w) {
  const __mmask16 mask = lane_mask16(w);
  __m512 acc[8];
  if (first_panel) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, bias + j);
    for (int r = 0; r < 8; ++r) acc[r] = bv;
  } else {
    for (int r = 0; r < 8; ++r) acc[r] = load16d_ps_masked(cr[r] + j, mask);
  }
  for (std::size_t k = kk; k < kend; ++k) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b.row_data(k) + j);
    for (int r = 0; r < 8; ++r) {
      acc[r] = _mm512_fmadd_ps(
          _mm512_set1_ps(af[static_cast<std::size_t>(r) * kBlockK + k - kk]),
          bv, acc[r]);
    }
  }
  for (int r = 0; r < 8; ++r) store16ps_d_masked(cr[r] + j, mask, acc[r]);
}

/// One row across all columns for one k-panel: 16-wide tiles then a
/// masked tail.
inline void row_f32(const float* af, double* crow,
                    const ConstF32MatrixView& b, const float* bias,
                    bool first_panel, std::size_t kk, std::size_t kend,
                    std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m512 acc = first_panel ? _mm512_loadu_ps(bias + j)
                             : load16d_ps(crow + j);
    for (std::size_t k = kk; k < kend; ++k) {
      acc = _mm512_fmadd_ps(_mm512_set1_ps(af[k - kk]),
                            _mm512_loadu_ps(b.row_data(k) + j), acc);
    }
    store16ps_d(crow + j, acc);
  }
  if (j < n) {
    const __mmask16 mask = lane_mask16(n - j);
    __m512 acc = first_panel ? _mm512_maskz_loadu_ps(mask, bias + j)
                             : load16d_ps_masked(crow + j, mask);
    for (std::size_t k = kk; k < kend; ++k) {
      acc = _mm512_fmadd_ps(_mm512_set1_ps(af[k - kk]),
                            _mm512_maskz_loadu_ps(mask, b.row_data(k) + j),
                            acc);
    }
    store16ps_d_masked(crow + j, mask, acc);
  }
}

}  // namespace

void gemm_f32_rows_avx512(ConstMatrixView a, const ConstF32MatrixView& b,
                          const float* bias, MatrixView c, std::size_t i0,
                          std::size_t i1) {
  const std::size_t inner = b.rows;
  const std::size_t n = b.cols;
  float af[8 * kBlockK];
  std::size_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    const double* ar[8];
    double* cr[8];
    for (std::size_t r = 0; r < 8; ++r) {
      ar[r] = a.row_data(i + r);
      cr[r] = c.row_data(i + r);
    }
    for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
      const std::size_t kend = std::min(kk + kBlockK, inner);
      const bool first_panel = kk == 0;
      for (std::size_t r = 0; r < 8; ++r) {
        for (std::size_t k = kk; k < kend; ++k) {
          af[r * kBlockK + k - kk] = static_cast<float>(ar[r][k]);
        }
      }
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        tile_8x16_f32(af, cr, b, bias, first_panel, kk, kend, j);
      }
      if (j < n) {
        tile_8xw_f32(af, cr, b, bias, first_panel, kk, kend, j, n - j);
      }
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
      const std::size_t kend = std::min(kk + kBlockK, inner);
      for (std::size_t k = kk; k < kend; ++k) {
        af[k - kk] = static_cast<float>(arow[k]);
      }
      row_f32(af, crow, b, bias, kk == 0, kk, kend, n);
    }
  }
}

}  // namespace eigenmaps::numerics::detail

#endif  // EIGENMAPS_HAVE_X86_KERNELS
