#include "numerics/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace eigenmaps::numerics {

namespace {

// Both routines below are JAMA's tred2/tql2 run on the transposed working
// matrix: every v(a, b) of the textbook loops reads v(b, a) here. The
// operations and their order are unchanged, so are the results, bit for
// bit; but the Householder updates and the Givens rotations now sweep
// contiguous rows instead of striding down columns.

// Householder reduction of v = a^T (n x n; only its diagonal and upper
// triangle, the lower triangle of a, are read) to tridiagonal form. On
// exit row j of v holds column j of the accumulated orthogonal transform,
// d the diagonal and e the sub-diagonal (e[0] unused).
void tridiagonalize(Matrix& v, Vector& d, Vector& e) {
  const int n = static_cast<int>(v.rows());
  for (int j = 0; j < n; ++j) d[j] = v(j, n - 1);

  for (int i = n - 1; i > 0; --i) {
    double scale = 0.0;
    double h = 0.0;
    for (int k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (int j = 0; j < i; ++j) {
        d[j] = v(j, i - 1);
        v(j, i) = 0.0;
        v(i, j) = 0.0;
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
        v(i, j) = f;
        const double* vj = v.row_data(j);
        g = e[j] + vj[j] * f;
        for (int k = j + 1; k <= i - 1; ++k) {
          g += vj[k] * d[k];
          e[k] += vj[k] * f;
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
        double* vj = v.row_data(j);
        for (int k = j; k <= i - 1; ++k) vj[k] -= f * e[k] + g * d[k];
        d[j] = vj[i - 1];
        vj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate transformations.
  for (int i = 0; i < n - 1; ++i) {
    v(i, n - 1) = v(i, i);
    v(i, i) = 1.0;
    const double h = d[i + 1];
    double* vi1 = v.row_data(i + 1);
    if (h != 0.0) {
      for (int k = 0; k <= i; ++k) d[k] = vi1[k] / h;
      // Rows j are independent here, so four dot products run as four
      // interleaved chains, each still summing k ascending: their adds
      // overlap instead of each waiting on the one before it.
      int j = 0;
      for (; j + 3 <= i; j += 4) {
        double* v0 = v.row_data(j);
        double* v1 = v.row_data(j + 1);
        double* v2 = v.row_data(j + 2);
        double* v3 = v.row_data(j + 3);
        double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
        for (int k = 0; k <= i; ++k) {
          g0 += vi1[k] * v0[k];
          g1 += vi1[k] * v1[k];
          g2 += vi1[k] * v2[k];
          g3 += vi1[k] * v3[k];
        }
        for (int k = 0; k <= i; ++k) {
          v0[k] -= g0 * d[k];
          v1[k] -= g1 * d[k];
          v2[k] -= g2 * d[k];
          v3[k] -= g3 * d[k];
        }
      }
      for (; j <= i; ++j) {
        double* vj = v.row_data(j);
        double g = 0.0;
        for (int k = 0; k <= i; ++k) g += vi1[k] * vj[k];
        for (int k = 0; k <= i; ++k) vj[k] -= g * d[k];
      }
    }
    for (int k = 0; k <= i; ++k) vi1[k] = 0.0;
  }
  for (int j = 0; j < n; ++j) {
    d[j] = v(j, n - 1);
    v(j, n - 1) = 0.0;
  }
  v(n - 1, n - 1) = 1.0;
  e[0] = 0.0;
}

// Implicit-shift QL iteration on the tridiagonal (d, e); eigenvectors are
// accumulated into the rows of v. Eigenvalues come out ascending.
void ql_iterate(Matrix& v, Vector& d, Vector& e) {
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
          throw std::runtime_error("symmetric_eigen: QL failed to converge");
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
          double* vi = v.row_data(i);
          double* vi1 = v.row_data(i + 1);
          for (int k = 0; k < n; ++k) {
            h = vi1[k];
            vi1[k] = s * vi[k] + c * h;
            vi[k] = c * vi[k] - s * h;
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

}  // namespace

SymmetricEigen symmetric_eigen(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("symmetric_eigen: matrix must be square");
  }
  const std::size_t n = a.rows();
  SymmetricEigen out;
  out.eigenvalues.assign(n, 0.0);
  if (n == 0) return out;
  if (n == 1) {
    out.eigenvalues[0] = a(0, 0);
    out.eigenvectors = Matrix(1, 1, 1.0);
    return out;
  }

  // The routines work on v = a^T, so a non-symmetric input still has its
  // lower triangle read, as the textbook column-sweeping loops read it.
  Matrix v(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) v(j, i) = a(i, j);
  }
  Vector e(n, 0.0);
  tridiagonalize(v, out.eigenvalues, e);
  ql_iterate(v, out.eigenvalues, e);

  // Sort descending; eigenvector j is row order[j] of v.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return out.eigenvalues[x] > out.eigenvalues[y];
                   });
  Vector sorted_values(n);
  out.eigenvectors = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted_values[j] = out.eigenvalues[order[j]];
    const double* row = v.row_data(order[j]);
    for (std::size_t i = 0; i < n; ++i) out.eigenvectors(i, j) = row[i];
  }
  out.eigenvalues = std::move(sorted_values);
  return out;
}

}  // namespace eigenmaps::numerics
