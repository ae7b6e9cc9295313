#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "numerics/blas.h"
#include "numerics/qr.h"
#include "numerics/rng.h"
#include "numerics/stats.h"
#include "numerics/svd.h"
#include "numerics/symmetric_eigen.h"

namespace {

using namespace eigenmaps;

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  numerics::Rng rng(seed);
  numerics::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

TEST(Blas, MatmulMatchesHandComputed) {
  numerics::Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  numerics::Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const numerics::Matrix c = numerics::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

// Reference kernel the blocked/threaded implementations are checked
// against: the plain i-k-j triple loop.
numerics::Matrix reference_matmul(const numerics::Matrix& a,
                                  const numerics::Matrix& b) {
  numerics::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return c;
}

TEST(Blas, BlockedMatmulMatchesReferenceOnAwkwardSizes) {
  // Sizes straddle the blocking factors (128/256) with ragged remainders.
  // Tolerance, not bit-equality: the GEMM clones may fuse multiply-adds on
  // FMA hardware (DESIGN.md §8) while this reference cannot.
  const numerics::Matrix a = random_matrix(137, 261, 31);
  const numerics::Matrix b = random_matrix(261, 130, 32);
  const numerics::Matrix c = numerics::matmul(a, b);
  const numerics::Matrix ref = reference_matmul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-11 * (1.0 + std::fabs(ref(i, j))))
          << i << "," << j;
    }
  }
}

TEST(Blas, MatmulHandlesStructuralZeros) {
  // Regression for the removed `aik == 0.0` fast path: zero entries must
  // flow through the dense loop without perturbing anything.
  numerics::Matrix a = random_matrix(9, 7, 33);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 3) = 0.0;
  a(4, 0) = 0.0;
  const numerics::Matrix b = random_matrix(7, 8, 34);
  const numerics::Matrix c = numerics::matmul(a, b);
  const numerics::Matrix ref = reference_matmul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-12 * (1.0 + std::fabs(ref(i, j))));
    }
  }
}

TEST(Blas, ThreadedProductsAreBitIdenticalToSerial) {
  const numerics::Matrix a = random_matrix(150, 140, 35);
  const numerics::Matrix b = random_matrix(140, 145, 36);
  numerics::set_blas_threads(1);
  const numerics::Matrix serial = numerics::matmul(a, b);
  const numerics::Matrix serial_gram = numerics::gram(a);
  const numerics::Matrix serial_t = numerics::matmul_transposed(a, a);
  numerics::set_blas_threads(3);
  const numerics::Matrix threaded = numerics::matmul(a, b);
  const numerics::Matrix threaded_gram = numerics::gram(a);
  const numerics::Matrix threaded_t = numerics::matmul_transposed(a, a);
  numerics::set_blas_threads(0);  // restore default resolution
  for (std::size_t i = 0; i < serial.rows(); ++i) {
    for (std::size_t j = 0; j < serial.cols(); ++j) {
      EXPECT_EQ(serial(i, j), threaded(i, j));
    }
  }
  for (std::size_t i = 0; i < serial_gram.rows(); ++i) {
    for (std::size_t j = 0; j < serial_gram.cols(); ++j) {
      EXPECT_EQ(serial_gram(i, j), threaded_gram(i, j));
    }
  }
  // serial_t is rows x rows — larger than the gram — so it gets its own
  // loop; the ragged last thread partition lives in the tail rows.
  for (std::size_t i = 0; i < serial_t.rows(); ++i) {
    for (std::size_t j = 0; j < serial_t.cols(); ++j) {
      EXPECT_EQ(serial_t(i, j), threaded_t(i, j));
    }
  }
}

TEST(Blas, MatmulTransposedMatchesExplicitTranspose) {
  const numerics::Matrix a = random_matrix(13, 6, 41);
  const numerics::Matrix b = random_matrix(17, 6, 42);
  numerics::Matrix bt(6, 17);
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 6; ++j) bt(j, i) = b(i, j);
  }
  const numerics::Matrix c = numerics::matmul_transposed(a, b);
  const numerics::Matrix ref = numerics::matmul(a, bt);
  ASSERT_EQ(c.rows(), 13u);
  ASSERT_EQ(c.cols(), 17u);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-12);
    }
  }
  EXPECT_THROW(numerics::matmul_transposed(a, random_matrix(4, 5, 43)),
               std::invalid_argument);
}

TEST(Blas, MatmulBiasMatchesProductPlusBroadcast) {
  const numerics::Matrix a = random_matrix(7, 11, 51);
  const numerics::Matrix b = random_matrix(11, 300, 52);
  numerics::Rng rng(53);
  const numerics::Vector bias = rng.normal_vector(300);
  const numerics::Matrix c = numerics::matmul_bias(a, b, bias);
  const numerics::Matrix product = numerics::matmul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c(i, j), bias[j] + product(i, j),
                  1e-12 * (1.0 + std::fabs(c(i, j))));
    }
  }
  // Degenerate inner dimension: the result is the broadcast bias alone.
  const numerics::Matrix empty_inner =
      numerics::matmul_bias(numerics::Matrix(3, 0), numerics::Matrix(0, 300),
                            bias);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 300; ++j) {
      EXPECT_EQ(empty_inner(i, j), bias[j]);
    }
  }
  EXPECT_THROW(numerics::matmul_bias(a, b, numerics::Vector(5, 0.0)),
               std::invalid_argument);
}

TEST(Qr, SolveBatchMatchesPerRhsSolve) {
  const numerics::Matrix a = random_matrix(24, 9, 44);
  const numerics::HouseholderQr qr(a);
  const numerics::Matrix rhs = random_matrix(7, 24, 45);
  const numerics::Matrix x = qr.solve_batch(rhs);
  ASSERT_EQ(x.rows(), 7u);
  ASSERT_EQ(x.cols(), 9u);
  for (std::size_t b = 0; b < rhs.rows(); ++b) {
    const numerics::Vector single = qr.solve(rhs.row(b));
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(x(b, j), single[j]) << "rhs " << b << " component " << j;
    }
  }
  EXPECT_THROW(qr.solve_batch(random_matrix(3, 23, 46)),
               std::invalid_argument);
}

TEST(Blas, GramMatchesExplicitProduct) {
  const numerics::Matrix a = random_matrix(7, 4, 3);
  const numerics::Matrix g = numerics::gram(a);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      double expect = 0.0;
      for (std::size_t r = 0; r < 7; ++r) expect += a(r, i) * a(r, j);
      EXPECT_NEAR(g(i, j), expect, 1e-12);
    }
  }
}

TEST(Qr, SolvesSquareSystemExactly) {
  numerics::Matrix a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = 0;
  a(1, 0) = 1; a(1, 1) = 3; a(1, 2) = 1;
  a(2, 0) = 0; a(2, 1) = 1; a(2, 2) = 4;
  // x = (1, -2, 3) -> b = A x.
  const numerics::Vector b = numerics::matvec(a, {1.0, -2.0, 3.0});
  const numerics::Vector x = numerics::solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], -2.0, 1e-10);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(Qr, LeastSquaresRecoversLineFit) {
  // Overdetermined consistent system: y = 2 t + 1 sampled at 5 points.
  numerics::Matrix a(5, 2);
  numerics::Vector b(5);
  for (int t = 0; t < 5; ++t) {
    a(t, 0) = t;
    a(t, 1) = 1.0;
    b[t] = 2.0 * t + 1.0;
  }
  const numerics::Vector x = numerics::solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 1.0, 1e-10);
}

TEST(Qr, ResidualIsOrthogonalToColumns) {
  const numerics::Matrix a = random_matrix(20, 5, 11);
  numerics::Rng rng(12);
  const numerics::Vector b = rng.normal_vector(20);
  const numerics::Vector x = numerics::solve_least_squares(a, b);
  const numerics::Vector ax = numerics::matvec(a, x);
  numerics::Vector r(20);
  for (std::size_t i = 0; i < 20; ++i) r[i] = b[i] - ax[i];
  const numerics::Vector atr = numerics::matvec_transpose(a, r);
  for (const double v : atr) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(SymmetricEigen, DiagonalMatrix) {
  numerics::Matrix a(3, 3);
  a(0, 0) = 1.0;
  a(1, 1) = 5.0;
  a(2, 2) = 3.0;
  const numerics::SymmetricEigen eig = numerics::symmetric_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], 5.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[2], 1.0, 1e-12);
}

TEST(SymmetricEigen, AnalyticTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  numerics::Matrix a(2, 2);
  a(0, 0) = 2; a(0, 1) = 1; a(1, 0) = 1; a(1, 1) = 2;
  const numerics::SymmetricEigen eig = numerics::symmetric_eigen(a);
  EXPECT_NEAR(eig.eigenvalues[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 1.0, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(eig.eigenvectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::fabs(eig.eigenvectors(1, 0)), std::sqrt(0.5), 1e-10);
}

TEST(SymmetricEigen, ReconstructsRandomSymmetricMatrix) {
  const std::size_t n = 12;
  numerics::Matrix a = numerics::gram(random_matrix(n + 4, n, 21));
  const numerics::SymmetricEigen eig = numerics::symmetric_eigen(a);
  // A == V diag(lambda) V^T and V^T V == I.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      double vtv = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        sum += eig.eigenvectors(i, k) * eig.eigenvalues[k] *
               eig.eigenvectors(j, k);
        vtv += eig.eigenvectors(k, i) * eig.eigenvectors(k, j);
      }
      EXPECT_NEAR(sum, a(i, j), 1e-8);
      EXPECT_NEAR(vtv, (i == j) ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Svd, KnownSingularValues) {
  // diag(3, 2) embedded in a 3x2 matrix.
  numerics::Matrix a(3, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  const numerics::Vector sv = numerics::singular_values(a);
  ASSERT_EQ(sv.size(), 2u);
  EXPECT_NEAR(sv[0], 3.0, 1e-10);
  EXPECT_NEAR(sv[1], 2.0, 1e-10);
}

TEST(Svd, WideAndTallAgree) {
  const numerics::Matrix a = random_matrix(9, 4, 5);
  numerics::Matrix at(4, 9);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 4; ++j) at(j, i) = a(i, j);
  }
  const numerics::Vector sa = numerics::singular_values(a);
  const numerics::Vector sat = numerics::singular_values(at);
  ASSERT_EQ(sa.size(), sat.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sat[i], 1e-9);
  }
}

TEST(Svd, ConditionNumberOfOrthonormalColumnsIsOne) {
  numerics::Matrix q = random_matrix(30, 5, 9);
  numerics::orthonormalize_columns(q);
  EXPECT_NEAR(numerics::condition_number(q), 1.0, 1e-8);
}

TEST(Rng, MomentsAreSane) {
  numerics::Rng rng(123);
  double mean = 0.0, var = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    mean += x;
    var += x * x;
  }
  mean /= n;
  var = var / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Stats, ErrorMetricsAndRowMean) {
  const numerics::Vector a = {1.0, 2.0, 3.0};
  const numerics::Vector b = {1.0, 4.0, 0.0};
  EXPECT_NEAR(numerics::mean_squared_error(a, b), (4.0 + 9.0) / 3.0, 1e-12);
  EXPECT_NEAR(numerics::max_squared_error(a, b), 9.0, 1e-12);
  EXPECT_NEAR(numerics::norm_inf(b), 4.0, 1e-12);
  EXPECT_NEAR(numerics::sum(a), 6.0, 1e-12);

  numerics::Matrix m(2, 3);
  m.set_row(0, {1.0, 2.0, 3.0});
  m.set_row(1, {3.0, 6.0, 5.0});
  const numerics::Vector mean = numerics::row_mean(m);
  EXPECT_NEAR(mean[0], 2.0, 1e-12);
  EXPECT_NEAR(mean[1], 4.0, 1e-12);
  EXPECT_NEAR(mean[2], 4.0, 1e-12);
  numerics::subtract_row_mean(m, mean);
  EXPECT_NEAR(m(0, 0), -1.0, 1e-12);
  EXPECT_NEAR(m(1, 1), 2.0, 1e-12);
}

}  // namespace
