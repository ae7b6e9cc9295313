// The contraction-free scalar reference kernels: one implementation per
// hot kernel, shared by kernel_bench's acc/perf modes and the
// micro_kernels baselines (this header replaced bench/seed_kernels.h,
// which kept a separate copy of the seed GEMM).
//
// Any translation unit that compares bit patterns or ULP distances
// against these references must be compiled with -ffp-contract=off: the
// references define the exact results the golden-path kernels (gram,
// matvec, the compiled QR and the symmetric eigensolver — one loop on
// every ISA tier) reproduce, and the ULP baseline the
// dispatched GEMM family is measured against. Timing-only users
// (throughput_streaming, micro_kernels) may compile however they like.
#ifndef EIGENMAPS_BENCH_REFERENCE_KERNELS_H
#define EIGENMAPS_BENCH_REFERENCE_KERNELS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "numerics/matrix.h"
#include "numerics/symmetric_eigen.h"

namespace eigenmaps::bench {

/// C = A * B (+ bias per column when non-null): per element the naive
/// ascending-k left-associated sum — the order every library GEMM tier
/// preserves, so differences are contraction roundings alone.
inline void ref_matmul(numerics::ConstMatrixView a,
                       numerics::ConstMatrixView b, numerics::MatrixView c,
                       const double* bias = nullptr,
                       bool accumulate = false) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = accumulate ? crow[j] : (bias != nullptr ? bias[j] : 0.0);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        s += arow[k] * b(k, j);
      }
      crow[j] = s;
    }
  }
}

/// |A| * |B| (+ |bias|): the per-element magnitude sum that scales the
/// ULP tolerance of the GEMM comparison.
inline void ref_matmul_abs(numerics::ConstMatrixView a,
                           numerics::ConstMatrixView b,
                           numerics::MatrixView c,
                           const double* bias = nullptr,
                           bool accumulate = false) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row_data(i);
    double* crow = c.row_data(i);
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = accumulate ? std::abs(crow[j])
                            : (bias != nullptr ? std::abs(bias[j]) : 0.0);
      for (std::size_t k = 0; k < a.cols(); ++k) {
        s += std::abs(arow[k]) * std::abs(b(k, j));
      }
      crow[j] = s;
    }
  }
}

/// G = A^T A, upper triangle mirrored: per g(i, j) the contributions
/// accumulate with the sample index ascending — the naive rank-1 update
/// order every gram tier preserves bit-for-bit.
inline void ref_gram(numerics::ConstMatrixView a, numerics::MatrixView g) {
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < n; ++i) g.row_view(i).fill(0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    for (std::size_t i = 0; i < n; ++i) {
      double* grow = g.row_data(i);
      for (std::size_t j = i; j < n; ++j) grow[j] += row[i] * row[j];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) g(i, j) = g(j, i);
  }
}

/// y = A x, each element a plain ascending-j sum.
inline void ref_matvec(numerics::ConstMatrixView a, const double* x,
                       double* y) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row_data(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
}

/// y = A^T x, accumulated row by row with i ascending per y(j).
inline void ref_matvec_transpose(numerics::ConstMatrixView a,
                                 const double* x, double* y) {
  for (std::size_t j = 0; j < a.cols(); ++j) y[j] = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    const double* row = a.row_data(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
}

/// In-place scalar Householder factorisation — the classic per-column
/// trailing update, which the library's two-pass reflector loop
/// reproduces bit-for-bit (columns are independent and every dot keeps its
/// ascending-i order). Fills tau and diag like HouseholderQr.
inline void ref_householder_qr(numerics::MatrixView qr,
                               std::vector<double>& tau,
                               std::vector<double>& diag) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  tau.assign(n, 0.0);
  diag.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += qr(i, k) * qr(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = (qr(k, k) >= 0.0) ? -norm : norm;
    const double vkk = qr(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) qr(i, k) /= vkk;
    tau[k] = -vkk / alpha;
    diag[k] = alpha;
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = qr(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr(i, k) * qr(i, j);
      s *= tau[k];
      qr(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) qr(i, j) -= s * qr(i, k);
    }
    qr(k, k) = alpha;
  }
}

/// Thin Q (m x n) accumulated from a ref_householder_qr packed factor,
/// reflectors applied in reverse order — mirrors HouseholderQr::thin_q so
/// bit-equal packed factors yield bit-equal Q.
inline numerics::Matrix ref_thin_q(numerics::ConstMatrixView qr,
                                   const std::vector<double>& tau) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  numerics::Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr(i, k) * q(i, j);
      s *= tau[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) q(i, j) -= s * qr(i, k);
    }
  }
  return q;
}

// Householder reduction of v (n x n, symmetric) to tridiagonal form.
// On exit v holds the accumulated orthogonal transform, d the diagonal and
// e the sub-diagonal (e[0] unused).
inline void ref_tridiagonalize(numerics::Matrix& v, numerics::Vector& d,
                               numerics::Vector& e) {
  const int n = static_cast<int>(v.rows());
  for (int j = 0; j < n; ++j) d[j] = v(n - 1, j);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
        v(j, i) = 0.0;
      }
    } else {
      for (int k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      for (int j = 0; j < i; ++j) e[j] = 0.0;

      for (int j = 0; j < i; ++j) {
        f = d[j];
        v(j, i) = f;
        g = e[j] + v(j, j) * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += v(k, j) * d[k];
          e[k] += v(k, j) * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (int j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (int j = 0; j < i; ++j) e[j] -= hh * d[j];
      for (int j = 0; j < i; ++j) {
        f = d[j];
        g = e[j];
        for (int k = j; k <= i - 1; ++k) v(k, j) -= f * e[k] + g * d[k];
        d[j] = v(i - 1, j);
        v(i, j) = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (int i = 0; i < n - 1; ++i) {
    v(n - 1, i) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = v(k, i + 1) / h;
      for (int j = 0; j <= i; ++j) {
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += v(k, i + 1) * v(k, j);
        for (int k = 0; k <= i; ++k) v(k, j) -= g * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) v(k, i + 1) = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = v(n - 1, j);
    v(n - 1, j) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e); eigenvectors are
// accumulated into v. Eigenvalues come out ascending.
inline void ref_ql_iterate(numerics::Matrix& v, numerics::Vector& d,
                           numerics::Vector& e) {
  const int n = static_cast<int>(v.rows());
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  double f = 0.0;
  double tst1 = 0.0;
  const double eps = 2.22e-16;
  for (int l = 0; l < n; ++l) {
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    int m = l;
    while (m < n) {
      if (std::fabs(e[m]) <= eps * tst1) break;
      ++m;
    }
    if (m > l) {
      int iter = 0;
      do {
        if (++iter > 64) {
          throw std::runtime_error(
              "ref_symmetric_eigen: QL failed to converge");
        }
        double g = d[l];
        double p = (d[l + 1] - g) / (2.0 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0.0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        double h = g - d[l];
        for (int i = l + 2; i < n; ++i) d[i] -= h;
        f += h;

        p = d[m];
        double c = 1.0;
        double c2 = c, c3 = c;
        const double el1 = e[l + 1];
        double s = 0.0, s2 = 0.0;
        for (int i = m - 1; i >= l; --i) {
          c3 = c2;
          c2 = c;
          s2 = s;
          g = c * e[i];
          h = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = h + s * (c * g + s * d[i]);
          for (int k = 0; k < n; ++k) {
            h = v(k, i + 1);
            v(k, i + 1) = s * v(k, i) + c * h;
            v(k, i) = c * v(k, i) - s * h;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::fabs(e[l]) > eps * tst1);
    }
    d[l] += f;
    e[l] = 0.0;
  }
}

/// symmetric_eigen as the textbook writes it: tred2/tql2 sweeping the
/// columns of a row-major working copy of `a`. The library runs the same
/// operations on the transposed copy, so the two agree bit for bit.
inline numerics::SymmetricEigen ref_symmetric_eigen(
    const numerics::Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("ref_symmetric_eigen: matrix must be square");
  }
  const std::size_t n = a.rows();
  numerics::SymmetricEigen out;
  out.eigenvectors = a;
  out.eigenvalues.assign(n, 0.0);
  if (n == 0) return out;
  if (n == 1) {
    out.eigenvalues[0] = a(0, 0);
    out.eigenvectors(0, 0) = 1.0;
    return out;
  }

  numerics::Vector e(n, 0.0);
  ref_tridiagonalize(out.eigenvectors, out.eigenvalues, e);
  ref_ql_iterate(out.eigenvectors, out.eigenvalues, e);

  // Sort descending, permuting eigenvector columns to match.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return out.eigenvalues[x] > out.eigenvalues[y];
                   });
  numerics::Vector sorted_values(n);
  numerics::Matrix sorted_vectors(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = out.eigenvalues[order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      sorted_vectors(i, j) = out.eigenvectors(i, order[j]);
    }
  }
  out.eigenvalues = std::move(sorted_values);
  out.eigenvectors = std::move(sorted_vectors);
  return out;
}

}  // namespace eigenmaps::bench

#endif  // EIGENMAPS_BENCH_REFERENCE_KERNELS_H
