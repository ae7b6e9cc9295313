#include "numerics/qr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
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

/// Applies the downdating rotations J_0..J_j to every column j of R,
/// threading the hyperbolic carry xx from row j up to row 0. One compiled
/// loop on every ISA tier: at the 16 x 16 factor the downdate serves, an
/// intrinsics sweep saves ~0.15 us per call (DESIGN.md §13).
void givens_sweep_columns(MatrixView r, const double* c, const double* s) {
  const std::size_t n = r.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double xx = 0.0;
    for (std::size_t i = j + 1; i-- > 0;) {
      const double t = c[i] * xx + s[i] * r(i, j);
      r(i, j) = c[i] * r(i, j) - s[i] * xx;
      xx = t;
    }
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

bool downdate_r_row(MatrixView r, const double* row, VectorView scratch) {
  const std::size_t n = r.rows();
  if (r.cols() != n) {
    throw std::invalid_argument("downdate_r_row: R must be square");
  }
  if (scratch.size() < 3 * n) {
    throw std::invalid_argument("downdate_r_row: scratch too small");
  }
  // Leverage of the deleted row: solve R^T q = row by forward substitution.
  double* q = scratch.data();
  double leverage = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double s = row[i];
    for (std::size_t j = 0; j < i; ++j) s -= r(j, i) * q[j];
    if (r(i, i) == 0.0) return false;
    q[i] = s / r(i, i);
    leverage += q[i] * q[i];
  }
  // Leverage 1 means the row is essential to the rank; near 1 the downdated
  // factor would be garbage even if the arithmetic went through, so condemn
  // a little early and let the caller refactor for the exact verdict.
  constexpr double kLeverageGuard = 1e-12;
  if (leverage >= 1.0 - kLeverageGuard) return false;
  double alpha = std::sqrt(1.0 - leverage);
  // Rotations J_{n-1}..J_0 carrying [q; alpha] to [0; 1], bottom up.
  double* c = scratch.data() + n;
  double* s = scratch.data() + 2 * n;
  for (std::size_t i = n; i-- > 0;) {
    const double scale = alpha + std::abs(q[i]);
    const double ca = alpha / scale;
    const double sa = q[i] / scale;
    const double norm = std::sqrt(ca * ca + sa * sa);
    c[i] = ca / norm;
    s[i] = sa / norm;
    alpha = scale * norm;
  }
  // Apply the same rotations to R, column by column, hyperbolically
  // removing the deleted row's contribution.
  givens_sweep_columns(r, c, s);
  return true;
}

bool downdate_r_row(Matrix& r, const double* row) {
  Vector scratch(3 * r.rows());
  return downdate_r_row(r.view(), row, scratch);
}

void update_r_row(MatrixView r, const double* row, VectorView scratch) {
  const std::size_t n = r.rows();
  if (r.cols() != n) {
    throw std::invalid_argument("update_r_row: R must be square");
  }
  if (scratch.size() < n) {
    throw std::invalid_argument("update_r_row: scratch too small");
  }
  // Working copy of the appended row; rotation i annihilates u[i] against
  // r(i, i) and carries the remainder down to the later rows.
  double* u = scratch.data();
  for (std::size_t i = 0; i < n; ++i) u[i] = row[i];
  for (std::size_t i = 0; i < n; ++i) {
    if (u[i] == 0.0) continue;
    const double rho = std::hypot(r(i, i), u[i]);
    const double c = r(i, i) / rho;
    const double s = u[i] / rho;
    r(i, i) = rho;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double t = c * r(i, j) + s * u[j];
      u[j] = c * u[j] - s * r(i, j);
      r(i, j) = t;
    }
  }
}

void update_r_row(Matrix& r, const double* row) {
  Vector scratch(r.rows());
  update_r_row(r.view(), row, scratch);
}

double triangular_condition_1(const Matrix& r) {
  const std::size_t n = r.rows();
  if (r.cols() != n) {
    throw std::invalid_argument("triangular_condition_1: R must be square");
  }
  if (n == 0) return 1.0;
  double norm_r = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = 0; i <= j; ++i) col += std::abs(r(i, j));
    norm_r = std::max(norm_r, col);
  }
  // Explicit inverse, one unit-vector back substitution per column.
  double norm_inv = 0.0;
  Vector z(n);
  for (std::size_t j = 0; j < n; ++j) {
    double col = 0.0;
    for (std::size_t i = j + 1; i-- > 0;) {
      double s = (i == j) ? 1.0 : 0.0;
      for (std::size_t k = i + 1; k <= j; ++k) s -= r(i, k) * z[k];
      if (r(i, i) == 0.0) {
        return std::numeric_limits<double>::infinity();
      }
      z[i] = s / r(i, i);
      col += std::abs(z[i]);
    }
    norm_inv = std::max(norm_inv, col);
  }
  return norm_r * norm_inv;
}

SeminormalSolver::SeminormalSolver(Matrix r, Matrix a)
    : r_(std::move(r)), a_(std::move(a)) {
  if (r_.rows() != r_.cols() || r_.cols() != a_.cols()) {
    throw std::invalid_argument("SeminormalSolver: R must be cols x cols");
  }
  if (a_.rows() < a_.cols()) {
    throw std::invalid_argument("SeminormalSolver: need rows >= cols");
  }
  for (std::size_t i = 0; i < r_.rows(); ++i) {
    if (r_(i, i) == 0.0) {
      throw std::invalid_argument("SeminormalSolver: singular R factor");
    }
  }
}

void SeminormalSolver::solve_normal(double* x) const {
  const std::size_t n = r_.cols();
  // Forward substitution R^T y = x, then back substitution R x = y.
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = 0; j < i; ++j) s -= r_(j, i) * x[j];
    x[i] = s / r_(i, i);
  }
  for (std::size_t i = n; i-- > 0;) {
    double s = x[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= r_(i, j) * x[j];
    x[i] = s / r_(i, i);
  }
}

void SeminormalSolver::solve_unchecked(const double* b, double* residual,
                                       double* correction, double* x) const {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  // x0 = (R^T R)^{-1} A^T b.
  for (std::size_t j = 0; j < n; ++j) x[j] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a_.row_data(i);
    for (std::size_t j = 0; j < n; ++j) x[j] += row[j] * b[i];
  }
  solve_normal(x);
  // One corrected-seminormal refinement pass: dx = (R^T R)^{-1} A^T
  // (b - A x0). Bjorck: this recovers QR-level accuracy when cond(R)^2 eps
  // is still well below 1.
  for (std::size_t j = 0; j < n; ++j) correction[j] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a_.row_data(i);
    double ax = 0.0;
    for (std::size_t j = 0; j < n; ++j) ax += row[j] * x[j];
    residual[i] = b[i] - ax;
  }
  for (std::size_t i = 0; i < m; ++i) {
    const double* row = a_.row_data(i);
    for (std::size_t j = 0; j < n; ++j) correction[j] += row[j] * residual[i];
  }
  solve_normal(correction);
  for (std::size_t j = 0; j < n; ++j) x[j] += correction[j];
}

void SeminormalSolver::solve_into(ConstVectorView b, VectorView x,
                                  VectorView scratch) const {
  if (b.size() != a_.rows()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_into: rhs size mismatch");
  }
  if (x.size() != a_.cols()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_into: output size mismatch");
  }
  if (scratch.size() < scratch_doubles()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_into: scratch too small");
  }
  solve_unchecked(b.data(), scratch.data(), scratch.data() + a_.rows(),
                  x.data());
}

Vector SeminormalSolver::solve(ConstVectorView b) const {
  Vector scratch(scratch_doubles());
  Vector x(a_.cols());
  solve_into(b, x, scratch);
  return x;
}

void SeminormalSolver::solve_batch_into(ConstMatrixView rhs_rows,
                                        MatrixView x,
                                        VectorView scratch) const {
  if (rhs_rows.cols() != a_.rows()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_batch_into: rhs size mismatch");
  }
  if (x.rows() != rhs_rows.rows() || x.cols() != a_.cols()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_batch_into: output shape mismatch");
  }
  if (scratch.size() < scratch_doubles()) {
    throw std::invalid_argument(
        "SeminormalSolver::solve_batch_into: scratch too small");
  }
  for (std::size_t b = 0; b < rhs_rows.rows(); ++b) {
    solve_unchecked(rhs_rows.row_data(b), scratch.data(),
                    scratch.data() + a_.rows(), x.row_data(b));
  }
}

Matrix SeminormalSolver::solve_batch(ConstMatrixView rhs_rows) const {
  Matrix x(rhs_rows.rows(), a_.cols());
  Vector scratch(scratch_doubles());
  solve_batch_into(rhs_rows, x.view(), scratch);
  return x;
}

}  // namespace eigenmaps::numerics
