// Householder QR for tall-thin systems and least squares: the one
// factorisation behind every reconstruction, the full-sensor model's and
// each dead-sensor mask's alike (DESIGN.md §9).
//
// Every solver here has two forms: a view-based `_into` form writing a
// caller-provided output through caller-provided scratch (the
// zero-allocation serving path, DESIGN.md §10) and an owning convenience
// wrapper that allocates and delegates. The `_into` forms throw
// std::invalid_argument on any size mismatch, and outputs/scratch must not
// alias the inputs.
#ifndef EIGENMAPS_NUMERICS_QR_H
#define EIGENMAPS_NUMERICS_QR_H

#include <cstddef>

#include "numerics/matrix.h"

namespace eigenmaps::numerics {

/// Householder QR of an m x n matrix with m >= n, stored compactly so the
/// factorisation can be reused for many right-hand sides (the reconstructor
/// solves one small least-squares problem per thermal map).
class HouseholderQr {
 public:
  explicit HouseholderQr(Matrix a);

  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

  /// Doubles of scratch solve_into / solve_batch_into need.
  std::size_t scratch_doubles() const { return qr_.rows(); }

  /// Least-squares solution of A x = b (minimises ||Ax - b||_2) into `x`
  /// (cols() entries), using `scratch` (scratch_doubles() entries).
  void solve_into(ConstVectorView b, VectorView x, VectorView scratch) const;

  /// Least-squares solution of A x = b (minimises ||Ax - b||_2).
  Vector solve(ConstVectorView b) const;

  /// Batched solve_into: one right-hand side per ROW of `rhs_rows`
  /// (batch x m), the matching solution in each row of `x` (batch x n).
  /// Row i is bit-identical to solve(row i) — the batch form exists to
  /// reuse the factor across a whole frame batch without per-frame
  /// allocations.
  void solve_batch_into(ConstMatrixView rhs_rows, MatrixView x,
                        VectorView scratch) const;

  /// Owning solve_batch_into; returns batch x n.
  Matrix solve_batch(ConstMatrixView rhs_rows) const;

  /// Thin Q factor (m x n, orthonormal columns).
  Matrix thin_q() const;

  /// R factor (n x n, upper triangular).
  Matrix r() const;

 private:
  void solve_unchecked(const double* b, double* scratch_m,
                       double* x_out) const;

  Matrix qr_;       // Householder vectors below the diagonal, R on and above.
  Vector tau_;      // Householder scalars.
  Vector diag_;     // Diagonal of R.
};

/// One-shot least squares; factors and solves.
Vector solve_least_squares(const Matrix& a, const Vector& b);

}  // namespace eigenmaps::numerics

#endif  // EIGENMAPS_NUMERICS_QR_H
