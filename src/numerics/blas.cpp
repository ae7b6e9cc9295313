// Dense kernels outside the GEMM family: dot/norm, gram, matvec, column
// orthonormalisation, and the thread-count knobs.
//
// This translation unit is compiled contraction-free (-ffp-contract=off on
// the library target): gram feeds the SVD rank checks and therefore the
// golden regression files, so its results must be bit-identical across
// machines and ISA levels. Each kernel is one compiled loop on every tier
// (no runtime ISA dispatch, DESIGN.md §13); the contracted, dispatched
// fast path lives in blas_gemm.cpp.
#include "numerics/blas.h"

#include <atomic>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "numerics/blas_internal.h"
#include "support/env.h"

namespace eigenmaps::numerics {

namespace {

using detail::parallel_bounded;
using detail::threads_for;

std::atomic<std::size_t> g_thread_override{0};
thread_local std::size_t t_thread_override = 0;

std::size_t default_blas_threads() {
  if (const std::optional<std::size_t> env =
          support::env_size("EIGENMAPS_THREADS", 1)) {
    return *env;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// Upper-triangle tiles of G = A^T A whose row range is [i0, i1), with the
/// sample loop innermost per tile; contributions accumulate with r
/// ascending for every g(i, j), matching the naive rank-1 update order.
EIGENMAPS_KERNEL_CLONES
void gram_rows(ConstMatrixView a, MatrixView g, std::size_t i0,
               std::size_t i1) {
  const std::size_t rows = a.rows();
  const std::size_t n = a.cols();
  constexpr std::size_t kTile = 64;
  for (std::size_t ii = i0; ii < i1; ii += kTile) {
    const std::size_t iend = std::min(ii + kTile, i1);
    for (std::size_t jj = ii; jj < n; jj += kTile) {
      const std::size_t jend = std::min(jj + kTile, n);
      for (std::size_t r = 0; r < rows; ++r) {
        const double* row = a.row_data(r);
        for (std::size_t i = ii; i < iend; ++i) {
          const double ri = row[i];
          double* grow = g.row_data(i);
          for (std::size_t j = std::max(i, jj); j < jend; ++j) {
            grow[j] += ri * row[j];
          }
        }
      }
    }
  }
}

/// Rows [i0, i1) of y = A x, each y(i) a plain ascending-j sum.
EIGENMAPS_KERNEL_CLONES
void matvec_rows(ConstMatrixView a, const double* x, double* y,
                 std::size_t i0, std::size_t i1) {
  const std::size_t n = a.cols();
  for (std::size_t i = i0; i < i1; ++i) {
    const double* row = a.row_data(i);
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

/// Accumulates rows [i0, i1) of A into y = A^T x, i ascending per y(j).
EIGENMAPS_KERNEL_CLONES
void matvec_t_rows(ConstMatrixView a, const double* x, double* y,
                   std::size_t i0, std::size_t i1) {
  const std::size_t n = a.cols();
  for (std::size_t i = i0; i < i1; ++i) {
    const double xi = x[i];
    const double* row = a.row_data(i);
    for (std::size_t j = 0; j < n; ++j) y[j] += xi * row[j];
  }
}

/// Row boundaries that equalise upper-triangle area: row i of G costs
/// ~(n - i) samples, so thread t ends at n * (1 - sqrt(1 - t/T)). Depends
/// only on n and the thread count — results stay bit-identical.
std::vector<std::size_t> triangle_bounds(std::size_t n, std::size_t threads) {
  std::vector<std::size_t> bounds(threads + 1, 0);
  for (std::size_t t = 1; t < threads; ++t) {
    const double frac =
        1.0 - std::sqrt(1.0 - static_cast<double>(t) /
                                  static_cast<double>(threads));
    std::size_t cut = static_cast<std::size_t>(
        frac * static_cast<double>(n) + 0.5);
    bounds[t] = std::min(std::max(cut, bounds[t - 1]), n);
  }
  bounds[threads] = n;
  return bounds;
}

}  // namespace

std::size_t blas_threads() {
  if (t_thread_override != 0) return t_thread_override;
  const std::size_t override_value =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_value != 0) return override_value;
  static const std::size_t resolved = default_blas_threads();
  return resolved;
}

void set_blas_threads(std::size_t threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

void set_blas_threads_this_thread(std::size_t threads) {
  t_thread_override = threads;
}

double dot(ConstVectorView a, ConstVectorView b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(ConstVectorView a) { return std::sqrt(dot(a, a)); }

void gram_into(ConstMatrixView a, MatrixView g) {
  const std::size_t n = a.cols();
  if (g.rows() != n || g.cols() != n) {
    throw std::invalid_argument("gram_into: output shape mismatch");
  }
  for (std::size_t i = 0; i < n; ++i) g.row_view(i).fill(0.0);
  const std::size_t threads = std::min(threads_for(a.rows() * n * n / 2), n);
  if (threads <= 1) {
    // Skip the bounds vector: the single-threaded path is the steady
    // serving state and must stay heap-free (DESIGN.md §10).
    gram_rows(a, g, 0, n);
  } else {
    parallel_bounded(triangle_bounds(n, threads),
                     [&](std::size_t i0, std::size_t i1) {
                       gram_rows(a, g, i0, i1);
                     });
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
}

Matrix gram(const Matrix& a) {
  Matrix g(a.cols(), a.cols());
  gram_into(a, g.view());
  return g;
}

void matvec_into(ConstMatrixView a, ConstVectorView x, VectorView y) {
  if (a.cols() != x.size()) {
    throw std::invalid_argument("matvec_into: dimension mismatch");
  }
  if (y.size() != a.rows()) {
    throw std::invalid_argument("matvec_into: output size mismatch");
  }
  matvec_rows(a, x.data(), y.data(), 0, a.rows());
}

Vector matvec(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  matvec_into(a, x, y);
  return y;
}

void matvec_transpose_into(ConstMatrixView a, ConstVectorView x,
                           VectorView y) {
  if (a.rows() != x.size()) {
    throw std::invalid_argument("matvec_transpose_into: dimension mismatch");
  }
  if (y.size() != a.cols()) {
    throw std::invalid_argument(
        "matvec_transpose_into: output size mismatch");
  }
  y.fill(0.0);
  matvec_t_rows(a, x.data(), y.data(), 0, a.rows());
}

Vector matvec_transpose(const Matrix& a, const Vector& x) {
  Vector y(a.cols());
  matvec_transpose_into(a, x, y);
  return y;
}

std::size_t orthonormalize_columns(MatrixView a, double tolerance) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::size_t rank = 0;
  for (std::size_t j = 0; j < n; ++j) {
    // Subtract projections onto the previously accepted columns (twice, for
    // numerical safety at high aspect ratios).
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k < j; ++k) {
        double proj = 0.0;
        for (std::size_t i = 0; i < m; ++i) proj += a(i, k) * a(i, j);
        if (proj == 0.0) continue;
        for (std::size_t i = 0; i < m; ++i) a(i, j) -= proj * a(i, k);
      }
    }
    double nrm = 0.0;
    for (std::size_t i = 0; i < m; ++i) nrm += a(i, j) * a(i, j);
    nrm = std::sqrt(nrm);
    if (nrm <= tolerance) {
      for (std::size_t i = 0; i < m; ++i) a(i, j) = 0.0;
      continue;
    }
    const double inv = 1.0 / nrm;
    for (std::size_t i = 0; i < m; ++i) a(i, j) *= inv;
    ++rank;
  }
  return rank;
}

}  // namespace eigenmaps::numerics
