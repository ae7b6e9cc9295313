// Full eigendecomposition of a real symmetric matrix.
#ifndef EIGENMAPS_NUMERICS_SYMMETRIC_EIGEN_H
#define EIGENMAPS_NUMERICS_SYMMETRIC_EIGEN_H

#include "numerics/matrix.h"

namespace eigenmaps::numerics {

/// Eigenvalues sorted descending; eigenvectors() column j pairs with
/// eigenvalues[j] and the columns are orthonormal.
struct SymmetricEigen {
  Vector eigenvalues;
  Matrix eigenvectors;
};

/// Householder tridiagonalisation followed by implicit-shift QL iteration
/// (the classic tred2/tql2 pair), run on the transposed working matrix so
/// every sweep reads contiguous rows. Only the strict lower triangle and
/// the diagonal of `a` are read. O(n^3), robust, no external dependencies.
SymmetricEigen symmetric_eigen(const Matrix& a);

}  // namespace eigenmaps::numerics

#endif  // EIGENMAPS_NUMERICS_SYMMETRIC_EIGEN_H
