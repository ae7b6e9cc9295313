// Explicit AVX2+FMA expansion-GEMM micro-kernels (256-bit). Compiled with
// -mavx2 -mfma and -ffp-contract=off: every vector operation below is an
// explicit intrinsic and every scalar tail rounds as written, so the
// compiler can neither fuse nor reassociate anything and each tier's
// results are fixed by this source. See simd_kernels.h for the accuracy
// contract.
#include "numerics/simd_kernels.h"

#if defined(EIGENMAPS_HAVE_X86_KERNELS)

#include <immintrin.h>

#include <algorithm>

#include "numerics/blas_internal.h"

namespace eigenmaps::numerics::detail {

namespace {

/// Load mask for the low `w` (1..3) lanes of a ymm of doubles.
inline __m256i lane_mask(std::size_t w) {
  alignas(32) static const long long kBits[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kBits + (4 - w)));
}

inline __m256d load_cols(const double* p, std::size_t w) {
  return w >= 4 ? _mm256_loadu_pd(p) : _mm256_maskload_pd(p, lane_mask(w));
}

inline void store_cols(double* p, std::size_t w, __m256d v) {
  if (w >= 4) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, lane_mask(w), v);
  }
}

// ---- GEMM ---------------------------------------------------------------

/// Accumulator seed for a 4-column group of C at column j: the bias on the
/// first k-panel of a bias product, the current C values otherwise
/// (matmul_into pre-zeroes C; matmul_accumulate starts from the caller's
/// values).
inline __m256d seed_cols(const double* crow, const double* bias,
                         std::size_t j, bool first_panel, std::size_t w) {
  const double* src = (first_panel && bias != nullptr) ? bias : crow;
  return load_cols(src + j, w);
}

/// 2 rows x 16 columns register tile over one k-panel: 8 accumulators,
/// 4 B vectors shared by both rows, FMA chains in ascending-k order.
inline void tile_2x16(const double* arow0, const double* arow1,
                      double* crow0, double* crow1, ConstMatrixView b,
                      const double* bias, bool first_panel, std::size_t kk,
                      std::size_t kend, std::size_t j) {
  __m256d acc00 = seed_cols(crow0, bias, j, first_panel, 4);
  __m256d acc01 = seed_cols(crow0, bias, j + 4, first_panel, 4);
  __m256d acc02 = seed_cols(crow0, bias, j + 8, first_panel, 4);
  __m256d acc03 = seed_cols(crow0, bias, j + 12, first_panel, 4);
  __m256d acc10 = seed_cols(crow1, bias, j, first_panel, 4);
  __m256d acc11 = seed_cols(crow1, bias, j + 4, first_panel, 4);
  __m256d acc12 = seed_cols(crow1, bias, j + 8, first_panel, 4);
  __m256d acc13 = seed_cols(crow1, bias, j + 12, first_panel, 4);
  for (std::size_t k = kk; k < kend; ++k) {
    const double* brow = b.row_data(k) + j;
    const __m256d b0 = _mm256_loadu_pd(brow);
    const __m256d b1 = _mm256_loadu_pd(brow + 4);
    const __m256d b2 = _mm256_loadu_pd(brow + 8);
    const __m256d b3 = _mm256_loadu_pd(brow + 12);
    const __m256d p = _mm256_broadcast_sd(arow0 + k);
    acc00 = _mm256_fmadd_pd(p, b0, acc00);
    acc01 = _mm256_fmadd_pd(p, b1, acc01);
    acc02 = _mm256_fmadd_pd(p, b2, acc02);
    acc03 = _mm256_fmadd_pd(p, b3, acc03);
    const __m256d q = _mm256_broadcast_sd(arow1 + k);
    acc10 = _mm256_fmadd_pd(q, b0, acc10);
    acc11 = _mm256_fmadd_pd(q, b1, acc11);
    acc12 = _mm256_fmadd_pd(q, b2, acc12);
    acc13 = _mm256_fmadd_pd(q, b3, acc13);
  }
  _mm256_storeu_pd(crow0 + j, acc00);
  _mm256_storeu_pd(crow0 + j + 4, acc01);
  _mm256_storeu_pd(crow0 + j + 8, acc02);
  _mm256_storeu_pd(crow0 + j + 12, acc03);
  _mm256_storeu_pd(crow1 + j, acc10);
  _mm256_storeu_pd(crow1 + j + 4, acc11);
  _mm256_storeu_pd(crow1 + j + 8, acc12);
  _mm256_storeu_pd(crow1 + j + 12, acc13);
}

/// 2 rows x (w <= 4) columns, masked on the column tail.
inline void tile_2xw(const double* arow0, const double* arow1, double* crow0,
                     double* crow1, ConstMatrixView b, const double* bias,
                     bool first_panel, std::size_t kk, std::size_t kend,
                     std::size_t j, std::size_t w) {
  __m256d acc0 = seed_cols(crow0, bias, j, first_panel, w);
  __m256d acc1 = seed_cols(crow1, bias, j, first_panel, w);
  for (std::size_t k = kk; k < kend; ++k) {
    const __m256d bv = load_cols(b.row_data(k) + j, w);
    acc0 = _mm256_fmadd_pd(_mm256_broadcast_sd(arow0 + k), bv, acc0);
    acc1 = _mm256_fmadd_pd(_mm256_broadcast_sd(arow1 + k), bv, acc1);
  }
  store_cols(crow0 + j, w, acc0);
  store_cols(crow1 + j, w, acc1);
}

/// 1 row x 16 columns (4 independent FMA chains hide the latency on the
/// odd tail row and the batch-1 serving shape).
inline void tile_1x16(const double* arow, double* crow, ConstMatrixView b,
                      const double* bias, bool first_panel, std::size_t kk,
                      std::size_t kend, std::size_t j) {
  __m256d acc0 = seed_cols(crow, bias, j, first_panel, 4);
  __m256d acc1 = seed_cols(crow, bias, j + 4, first_panel, 4);
  __m256d acc2 = seed_cols(crow, bias, j + 8, first_panel, 4);
  __m256d acc3 = seed_cols(crow, bias, j + 12, first_panel, 4);
  for (std::size_t k = kk; k < kend; ++k) {
    const double* brow = b.row_data(k) + j;
    const __m256d p = _mm256_broadcast_sd(arow + k);
    acc0 = _mm256_fmadd_pd(p, _mm256_loadu_pd(brow), acc0);
    acc1 = _mm256_fmadd_pd(p, _mm256_loadu_pd(brow + 4), acc1);
    acc2 = _mm256_fmadd_pd(p, _mm256_loadu_pd(brow + 8), acc2);
    acc3 = _mm256_fmadd_pd(p, _mm256_loadu_pd(brow + 12), acc3);
  }
  _mm256_storeu_pd(crow + j, acc0);
  _mm256_storeu_pd(crow + j + 4, acc1);
  _mm256_storeu_pd(crow + j + 8, acc2);
  _mm256_storeu_pd(crow + j + 12, acc3);
}

inline void tile_1xw(const double* arow, double* crow, ConstMatrixView b,
                     const double* bias, bool first_panel, std::size_t kk,
                     std::size_t kend, std::size_t j, std::size_t w) {
  __m256d acc = seed_cols(crow, bias, j, first_panel, w);
  for (std::size_t k = kk; k < kend; ++k) {
    acc = _mm256_fmadd_pd(_mm256_broadcast_sd(arow + k),
                          load_cols(b.row_data(k) + j, w), acc);
  }
  store_cols(crow + j, w, acc);
}

}  // namespace

void gemm_rows_avx2(ConstMatrixView a, ConstMatrixView b, MatrixView c,
                    const double* bias, std::size_t i0, std::size_t i1) {
  const std::size_t inner = a.cols();
  const std::size_t n = b.cols();
  for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
    const std::size_t kend = std::min(kk + kBlockK, inner);
    const bool first_panel = kk == 0;
    for (std::size_t jj = 0; jj < n; jj += kBlockJ) {
      const std::size_t jend = std::min(jj + kBlockJ, n);
      std::size_t i = i0;
      for (; i + 2 <= i1; i += 2) {
        const double* arow0 = a.row_data(i);
        const double* arow1 = a.row_data(i + 1);
        double* crow0 = c.row_data(i);
        double* crow1 = c.row_data(i + 1);
        std::size_t j = jj;
        for (; j + 16 <= jend; j += 16) {
          tile_2x16(arow0, arow1, crow0, crow1, b, bias, first_panel, kk,
                    kend, j);
        }
        for (; j < jend; j += 4) {
          tile_2xw(arow0, arow1, crow0, crow1, b, bias, first_panel, kk,
                   kend, j, std::min<std::size_t>(4, jend - j));
        }
      }
      if (i < i1) {
        const double* arow = a.row_data(i);
        double* crow = c.row_data(i);
        std::size_t j = jj;
        for (; j + 16 <= jend; j += 16) {
          tile_1x16(arow, crow, b, bias, first_panel, kk, kend, j);
        }
        for (; j < jend; j += 4) {
          tile_1xw(arow, crow, b, bias, first_panel, kk, kend, j,
                   std::min<std::size_t>(4, jend - j));
        }
      }
    }
  }
}

// ---- fp32 expansion GEMM ------------------------------------------------

namespace {

/// 8 consecutive doubles narrowed to 8 fp32 lanes. Exact on the expansion
/// path: every value stored in C is a widened float, so the k-panel RMW
/// round-trip never moves a bit.
inline __m256 load8d_ps(const double* p) {
  const __m128 lo = _mm256_cvtpd_ps(_mm256_loadu_pd(p));
  const __m128 hi = _mm256_cvtpd_ps(_mm256_loadu_pd(p + 4));
  return _mm256_set_m128(hi, lo);
}

inline void store8ps_d(double* p, __m256 v) {
  _mm256_storeu_pd(p, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
  _mm256_storeu_pd(p + 4, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
}

inline __m256 seed8_f32(const double* crow, const float* bias,
                        std::size_t j, bool first_panel) {
  return first_panel ? _mm256_loadu_ps(bias + j) : load8d_ps(crow + j);
}

/// 4 rows x 16 fp32 columns over one k-panel: 8 ymm accumulators fed by 2
/// shared B vectors per k step, fp32 FMA chains in ascending-k order.
/// `af` holds the 4 rows' converted A panels, kBlockK floats apart.
inline void tile_4x16_f32(const float* af, double* const* crows,
                          const ConstF32MatrixView& b, const float* bias,
                          bool first_panel, std::size_t kk, std::size_t kend,
                          std::size_t j) {
  __m256 acc[8];
  for (int r = 0; r < 4; ++r) {
    acc[2 * r] = seed8_f32(crows[r], bias, j, first_panel);
    acc[2 * r + 1] = seed8_f32(crows[r], bias, j + 8, first_panel);
  }
  for (std::size_t k = kk; k < kend; ++k) {
    const float* brow = b.row_data(k) + j;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < 4; ++r) {
      const __m256 p = _mm256_set1_ps(af[r * kBlockK + (k - kk)]);
      acc[2 * r] = _mm256_fmadd_ps(p, b0, acc[2 * r]);
      acc[2 * r + 1] = _mm256_fmadd_ps(p, b1, acc[2 * r + 1]);
    }
  }
  for (int r = 0; r < 4; ++r) {
    store8ps_d(crows[r] + j, acc[2 * r]);
    store8ps_d(crows[r] + j + 8, acc[2 * r + 1]);
  }
}

inline void tile_1x16_f32(const float* af, double* crow,
                          const ConstF32MatrixView& b, const float* bias,
                          bool first_panel, std::size_t kk, std::size_t kend,
                          std::size_t j) {
  __m256 acc0 = seed8_f32(crow, bias, j, first_panel);
  __m256 acc1 = seed8_f32(crow, bias, j + 8, first_panel);
  for (std::size_t k = kk; k < kend; ++k) {
    const float* brow = b.row_data(k) + j;
    const __m256 p = _mm256_set1_ps(af[k - kk]);
    acc0 = _mm256_fmadd_ps(p, _mm256_loadu_ps(brow), acc0);
    acc1 = _mm256_fmadd_ps(p, _mm256_loadu_ps(brow + 8), acc1);
  }
  store8ps_d(crow + j, acc0);
  store8ps_d(crow + j + 8, acc1);
}

/// Columns [j0, n) of one row, scalar fp32 (separate mul/add) — the sub-16
/// column tail.
inline void cols_tail_f32(const float* af, double* crow,
                          const ConstF32MatrixView& b, const float* bias,
                          bool first_panel, std::size_t kk, std::size_t kend,
                          std::size_t j0, std::size_t n) {
  for (std::size_t j = j0; j < n; ++j) {
    float acc = first_panel ? bias[j] : static_cast<float>(crow[j]);
    for (std::size_t k = kk; k < kend; ++k) {
      acc = acc + af[k - kk] * b.row_data(k)[j];
    }
    crow[j] = static_cast<double>(acc);
  }
}

}  // namespace

void gemm_f32_rows_avx2(ConstMatrixView a, const ConstF32MatrixView& b,
                        const float* bias, MatrixView c, std::size_t i0,
                        std::size_t i1) {
  const std::size_t inner = b.rows;
  const std::size_t n = b.cols;
  float af[4 * kBlockK];
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    double* crows[4] = {c.row_data(i), c.row_data(i + 1), c.row_data(i + 2),
                        c.row_data(i + 3)};
    for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
      const std::size_t kend = std::min(kk + kBlockK, inner);
      const bool first_panel = kk == 0;
      for (int r = 0; r < 4; ++r) {
        const double* arow = a.row_data(i + static_cast<std::size_t>(r));
        for (std::size_t k = kk; k < kend; ++k) {
          af[r * kBlockK + (k - kk)] = static_cast<float>(arow[k]);
        }
      }
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        tile_4x16_f32(af, crows, b, bias, first_panel, kk, kend, j);
      }
      if (j < n) {
        for (int r = 0; r < 4; ++r) {
          cols_tail_f32(af + r * kBlockK, crows[r], b, bias, first_panel,
                        kk, kend, j, n);
        }
      }
    }
  }
  for (; i < i1; ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t kk = 0; kk < inner; kk += kBlockK) {
      const std::size_t kend = std::min(kk + kBlockK, inner);
      const bool first_panel = kk == 0;
      for (std::size_t k = kk; k < kend; ++k) {
        af[k - kk] = static_cast<float>(arow[k]);
      }
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        tile_1x16_f32(af, crow, b, bias, first_panel, kk, kend, j);
      }
      if (j < n) {
        cols_tail_f32(af, crow, b, bias, first_panel, kk, kend, j, n);
      }
    }
  }
}

}  // namespace eigenmaps::numerics::detail

#endif  // EIGENMAPS_HAVE_X86_KERNELS
