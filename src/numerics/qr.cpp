#include "numerics/qr.h"

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

namespace eigenmaps::numerics {

namespace {

/// Applies reflector k to the trailing columns of the packed factor:
/// s_j = tau * (qr(k, j) + sum_{i>k} qr(i, k) qr(i, j)), then the rank-1
/// update. Two passes over rows — the dot products accumulate with i
/// ascending per column, exactly the order of the classic per-column
/// loop, so restructuring moves no bits. `s` holds n scratch doubles.
/// One compiled loop on every ISA tier: at the M x K shapes the library
/// factors (24 x 16 and its row subsets) it outruns AVX2/AVX-512
/// intrinsics (DESIGN.md §13).
void qr_reflect_columns(MatrixView qr, std::size_t k, double tau,
                        double* s) {
  const std::size_t m = qr.rows();
  const std::size_t n = qr.cols();
  double* krow = qr.row_data(k);
  for (std::size_t j = k + 1; j < n; ++j) s[j] = krow[j];
  for (std::size_t i = k + 1; i < m; ++i) {
    const double vik = qr(i, k);
    const double* row = qr.row_data(i);
    for (std::size_t j = k + 1; j < n; ++j) s[j] += vik * row[j];
  }
  for (std::size_t j = k + 1; j < n; ++j) {
    s[j] *= tau;
    krow[j] -= s[j];
  }
  for (std::size_t i = k + 1; i < m; ++i) {
    const double vik = qr(i, k);
    double* row = qr.row_data(i);
    for (std::size_t j = k + 1; j < n; ++j) row[j] -= s[j] * vik;
  }
}

}  // namespace

HouseholderQr::HouseholderQr(Matrix a) : qr_(std::move(a)) {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  if (m < n) {
    throw std::invalid_argument("HouseholderQr: need rows >= cols");
  }
  tau_.assign(n, 0.0);
  diag_.assign(n, 0.0);
  std::vector<double> reflect_scratch(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += qr_(i, k) * qr_(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      diag_[k] = 0.0;
      tau_[k] = 0.0;
      continue;
    }
    const double alpha = (qr_(k, k) >= 0.0) ? -norm : norm;
    // v = x - alpha e1, stored in place; normalised so v[k] = 1 implicitly.
    const double vkk = qr_(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) qr_(i, k) /= vkk;
    tau_[k] = -vkk / alpha;  // beta = 2 / (v^T v) with v[k] = 1 scaling.
    diag_[k] = alpha;
    // Apply reflector to the remaining columns.
    qr_reflect_columns(qr_.view(), k, tau_[k], reflect_scratch.data());
    qr_(k, k) = alpha;
  }
}

void HouseholderQr::solve_unchecked(const double* b, double* y,
                                    double* x) const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  for (std::size_t i = 0; i < m; ++i) y[i] = b[i];
  // y = Q^T b.
  for (std::size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    double s = y[k];
    for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * y[i];
    s *= tau_[k];
    y[k] -= s;
    for (std::size_t i = k + 1; i < m; ++i) y[i] -= s * qr_(i, k);
  }
  // Back substitution with R.
  for (std::size_t k = n; k-- > 0;) {
    double s = y[k];
    for (std::size_t j = k + 1; j < n; ++j) s -= qr_(k, j) * x[j];
    if (diag_[k] == 0.0) {
      x[k] = 0.0;  // rank-deficient direction: minimum-effort component
    } else {
      x[k] = s / diag_[k];
    }
  }
}

void HouseholderQr::solve_into(ConstVectorView b, VectorView x,
                               VectorView scratch) const {
  if (b.size() != qr_.rows()) {
    throw std::invalid_argument("HouseholderQr::solve_into: rhs size mismatch");
  }
  if (x.size() != qr_.cols()) {
    throw std::invalid_argument(
        "HouseholderQr::solve_into: output size mismatch");
  }
  if (scratch.size() < scratch_doubles()) {
    throw std::invalid_argument(
        "HouseholderQr::solve_into: scratch too small");
  }
  solve_unchecked(b.data(), scratch.data(), x.data());
}

Vector HouseholderQr::solve(ConstVectorView b) const {
  Vector scratch(qr_.rows());
  Vector x(qr_.cols());
  solve_into(b, x, scratch);
  return x;
}

void HouseholderQr::solve_batch_into(ConstMatrixView rhs_rows, MatrixView x,
                                     VectorView scratch) const {
  if (rhs_rows.cols() != qr_.rows()) {
    throw std::invalid_argument(
        "HouseholderQr::solve_batch_into: rhs size mismatch");
  }
  if (x.rows() != rhs_rows.rows() || x.cols() != qr_.cols()) {
    throw std::invalid_argument(
        "HouseholderQr::solve_batch_into: output shape mismatch");
  }
  if (scratch.size() < scratch_doubles()) {
    throw std::invalid_argument(
        "HouseholderQr::solve_batch_into: scratch too small");
  }
  for (std::size_t b = 0; b < rhs_rows.rows(); ++b) {
    solve_unchecked(rhs_rows.row_data(b), scratch.data(), x.row_data(b));
  }
}

Matrix HouseholderQr::solve_batch(ConstMatrixView rhs_rows) const {
  Matrix x(rhs_rows.rows(), qr_.cols());
  Vector scratch(qr_.rows());
  solve_batch_into(rhs_rows, x.view(), scratch);
  return x;
}

Matrix HouseholderQr::thin_q() const {
  const std::size_t m = qr_.rows();
  const std::size_t n = qr_.cols();
  // Accumulate Q = H_0 H_1 ... H_{n-1} applied to the first n identity
  // columns, reflectors in reverse order so each touches rows >= k only.
  Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (tau_[k] == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += qr_(i, k) * q(i, j);
      s *= tau_[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) q(i, j) -= s * qr_(i, k);
    }
  }
  return q;
}

Matrix HouseholderQr::r() const {
  const std::size_t n = qr_.cols();
  Matrix r(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    r(i, i) = diag_[i];
    for (std::size_t j = i + 1; j < n; ++j) r(i, j) = qr_(i, j);
  }
  return r;
}

Vector solve_least_squares(const Matrix& a, const Vector& b) {
  return HouseholderQr(a).solve(b);
}

}  // namespace eigenmaps::numerics
