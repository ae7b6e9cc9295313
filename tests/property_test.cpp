// Property-style checks over many seeded random draws: the eigensolver and
// the QR factorisation must satisfy their defining equations, not just the
// handful of analytic cases in numerics_test.cpp.
#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "numerics/blas.h"
#include "numerics/qr.h"
#include "numerics/rng.h"
#include "numerics/symmetric_eigen.h"

namespace {

using namespace eigenmaps;

constexpr int kDraws = 20;

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  numerics::Rng rng(seed);
  numerics::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

TEST(PropertySymmetricEigen, EigenpairsSatisfyTheDefinition) {
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(draw);
    const std::size_t n = 4 + static_cast<std::size_t>(draw % 9);
    // Random symmetric: S = (M + M^T) / 2 keeps indefinite spectra in play.
    const numerics::Matrix m = random_matrix(n, n, seed);
    numerics::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = 0.5 * (m(i, j) + m(j, i));
      }
    }
    const numerics::SymmetricEigen eig = numerics::symmetric_eigen(a);
    ASSERT_EQ(eig.eigenvalues.size(), n) << "draw " << draw;

    double scale = 1.0;
    for (const double lambda : eig.eigenvalues) {
      scale = std::max(scale, std::fabs(lambda));
    }
    for (std::size_t j = 0; j < n; ++j) {
      // || A v_j - lambda_j v_j ||_inf small relative to the spectrum.
      const numerics::Vector v = eig.eigenvectors.col(j);
      const numerics::Vector av = numerics::matvec(a, v);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(av[i], eig.eigenvalues[j] * v[i], 1e-9 * scale)
            << "draw " << draw << " pair " << j << " row " << i;
      }
      EXPECT_NEAR(numerics::norm2(v), 1.0, 1e-10) << "draw " << draw;
    }
    // Descending order is part of the contract.
    for (std::size_t j = 1; j < n; ++j) {
      EXPECT_GE(eig.eigenvalues[j - 1], eig.eigenvalues[j]);
    }
  }
}

TEST(PropertyQr, ReproducesTheMatrixWithTriangularR) {
  for (int draw = 0; draw < kDraws; ++draw) {
    const std::uint64_t seed = 2000 + static_cast<std::uint64_t>(draw);
    const std::size_t n = 2 + static_cast<std::size_t>(draw % 5);
    const std::size_t m = n + static_cast<std::size_t>(draw % 11);
    const numerics::Matrix a = random_matrix(m, n, seed);
    const numerics::HouseholderQr qr(a);
    const numerics::Matrix q = qr.thin_q();
    const numerics::Matrix r = qr.r();

    // R is upper triangular: exact zeros below the diagonal.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_EQ(r(i, j), 0.0) << "draw " << draw;
      }
    }
    // Q has orthonormal columns.
    const numerics::Matrix qtq = numerics::gram(q);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(qtq(i, j), (i == j) ? 1.0 : 0.0, 1e-12)
            << "draw " << draw;
      }
    }
    // Q R == A.
    const numerics::Matrix qr_product = numerics::matmul(q, r);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(qr_product(i, j), a(i, j), 1e-12 * (1.0 + std::fabs(a(i, j))) + 1e-12)
            << "draw " << draw << " (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
