// The view layer: strided kernels against the contiguous golden path
// (bit-identical — strides reroute addressing, never accumulation order),
// safe aliasing of disjoint sub-blocks, `_into` equivalence with the
// owning forms, and the size-mismatch throws.
#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "core/workspace.h"
#include "numerics/blas.h"
#include "numerics/isa.h"
#include "numerics/qr.h"
#include "numerics/rng.h"

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

/// `inner` as a strided view: the rows x cols block of `host` anchored at
/// (r0, c0). The host must stay alive while the view is used.
numerics::ConstMatrixView block_of(const numerics::Matrix& host,
                                   std::size_t r0, std::size_t c0,
                                   std::size_t rows, std::size_t cols) {
  return numerics::ConstMatrixView(host.row_data(r0) + c0, rows, cols,
                                   host.cols());
}

/// Copies a matrix into the interior of a larger junk-filled host so the
/// returned view is genuinely strided (stride > cols) and surrounded by
/// sentinel values.
struct StridedCopy {
  explicit StridedCopy(const numerics::Matrix& src)
      : host(src.rows() + 3, src.cols() + 5, -7.25) {
    for (std::size_t i = 0; i < src.rows(); ++i) {
      for (std::size_t j = 0; j < src.cols(); ++j) {
        host(i + 1, j + 2) = src(i, j);
      }
    }
    view = block_of(host, 1, 2, src.rows(), src.cols());
  }
  numerics::Matrix host;
  numerics::ConstMatrixView view;
};

TEST(Views, RowViewAliasesTheMatrixStorage) {
  numerics::Matrix m = random_matrix(4, 6, 1);
  const numerics::ConstVectorView row = m.row_view(2);
  EXPECT_EQ(row.data(), m.row_data(2));
  const numerics::Vector copy = m.row(2);
  for (std::size_t j = 0; j < m.cols(); ++j) EXPECT_EQ(row[j], copy[j]);

  // Mutation through the mutable view lands in the matrix.
  m.row_view(2)[3] = 99.0;
  EXPECT_EQ(m(2, 3), 99.0);
}

TEST(Views, StridedMatmulBitIdenticalToContiguous) {
  const numerics::Matrix a = random_matrix(9, 7, 2);
  const numerics::Matrix b = random_matrix(7, 11, 3);
  const numerics::Matrix golden = numerics::matmul(a, b);

  const StridedCopy sa(a);
  const StridedCopy sb(b);
  // Strided output too: write into the interior of a junk host.
  numerics::Matrix chost(a.rows() + 2, b.cols() + 4, -3.5);
  numerics::MatrixView cview(chost.row_data(1) + 3, a.rows(), b.cols(),
                             chost.cols());
  numerics::matmul_into(sa.view, sb.view, cview);

  for (std::size_t i = 0; i < golden.rows(); ++i) {
    for (std::size_t j = 0; j < golden.cols(); ++j) {
      EXPECT_EQ(cview(i, j), golden(i, j)) << i << "," << j;
    }
  }
  // The junk border was never touched.
  EXPECT_EQ(chost(0, 0), -3.5);
  EXPECT_EQ(chost(a.rows() + 1, b.cols() + 3), -3.5);
}

TEST(Views, StridedMatmulBiasAndTransposedMatchOwningForms) {
  const numerics::Matrix a = random_matrix(6, 5, 4);
  const numerics::Matrix b = random_matrix(5, 9, 5);
  numerics::Rng rng(6);
  const numerics::Vector bias = rng.normal_vector(9);

  const StridedCopy sa(a);
  const StridedCopy sb(b);
  const numerics::Matrix golden_bias = numerics::matmul_bias(a, b, bias);
  numerics::Matrix c(6, 9);
  numerics::matmul_bias_into(sa.view, sb.view, bias, c.view());
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      EXPECT_EQ(c(i, j), golden_bias(i, j));
    }
  }

  const numerics::Matrix bt = random_matrix(9, 5, 7);
  const StridedCopy sbt(bt);
  const numerics::Matrix golden_t = numerics::matmul_transposed(a, bt);
  numerics::Matrix ct(6, 9);
  numerics::matmul_transposed_into(sa.view, sbt.view, ct.view());
  for (std::size_t i = 0; i < ct.rows(); ++i) {
    for (std::size_t j = 0; j < ct.cols(); ++j) {
      EXPECT_EQ(ct(i, j), golden_t(i, j));
    }
  }
}

TEST(Views, StridedGramAndMatvecMatchOwningForms) {
  const numerics::Matrix a = random_matrix(12, 6, 8);
  const StridedCopy sa(a);

  const numerics::Matrix golden = numerics::gram(a);
  numerics::Matrix g(6, 6);
  numerics::gram_into(sa.view, g.view());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_EQ(g(i, j), golden(i, j));
  }

  numerics::Rng rng(9);
  const numerics::Vector x = rng.normal_vector(6);
  const numerics::Vector golden_y = numerics::matvec(a, x);
  numerics::Vector y(12);
  numerics::matvec_into(sa.view, x, y);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y[i], golden_y[i]);

  const numerics::Vector xt = rng.normal_vector(12);
  const numerics::Vector golden_yt = numerics::matvec_transpose(a, xt);
  numerics::Vector yt(6);
  numerics::matvec_transpose_into(sa.view, xt, yt);
  for (std::size_t j = 0; j < yt.size(); ++j) EXPECT_EQ(yt[j], golden_yt[j]);
}

TEST(Views, StridedQrSolveBatchBitIdenticalToContiguous) {
  const numerics::Matrix a = random_matrix(10, 4, 10);
  const numerics::HouseholderQr qr(a);
  const numerics::Matrix rhs = random_matrix(5, 10, 11);
  const numerics::Matrix golden = qr.solve_batch(rhs);

  const StridedCopy srhs(rhs);
  numerics::Matrix x(5, 4);
  numerics::Vector scratch(qr.scratch_doubles());
  qr.solve_batch_into(srhs.view, x.view(), scratch);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(x(i, j), golden(i, j));
    }
  }
}

/// Every compiled dispatch tier of the fp64 GEMM, on strided inputs,
/// across the register tile edges of its SIMD kernels (DESIGN.md §13):
/// column counts off the 8/16/32-lane boundaries, row counts off the
/// 2/8-row tiles, and stride > cols throughout. Each tier must stay within
/// the contraction ULP bound of the contraction-free reference. Gram,
/// matvec and QR have no per-tier code to compare.
TEST(Views, SimdTiersMatchPortableAcrossTileEdges) {
  struct GemmShape {
    std::size_t m, k, n;
  };
  // n hits 16a+b edges for AVX2 (16-wide tiles) and 8a+b / 32a+b for
  // AVX-512; m hits the 2-row (AVX2) and 8-row (AVX-512) remainders.
  const GemmShape gemm_shapes[] = {
      {1, 3, 33}, {2, 16, 16}, {5, 7, 13}, {8, 16, 8},
      {9, 5, 21}, {11, 7, 37}, {17, 16, 48},
  };
  for (const numerics::Isa isa : numerics::runnable_isas()) {
    SCOPED_TRACE(numerics::isa_name(isa));
    for (const GemmShape& s : gemm_shapes) {
      SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                   std::to_string(s.n));
      const numerics::Matrix a = random_matrix(s.m, s.k, 31);
      const numerics::Matrix b = random_matrix(s.k, s.n, 32);
      numerics::Rng rng(33);
      const numerics::Vector bias = rng.normal_vector(s.n);
      const StridedCopy sa(a);
      const StridedCopy sb(b);

      // Contraction-free reference sum and magnitude sum per element.
      numerics::Matrix ref(s.m, s.n), ref_abs(s.m, s.n);
      for (std::size_t i = 0; i < s.m; ++i) {
        for (std::size_t j = 0; j < s.n; ++j) {
          double sum = bias[j];
          double mag = std::abs(bias[j]);
          for (std::size_t kk = 0; kk < s.k; ++kk) {
            sum += a(i, kk) * b(kk, j);
            mag += std::abs(a(i, kk)) * std::abs(b(kk, j));
          }
          ref(i, j) = sum;
          ref_abs(i, j) = mag;
        }
      }

      numerics::set_isa_override(isa);
      numerics::Matrix c(s.m, s.n);
      numerics::matmul_bias_into(sa.view, sb.view, bias, c.view());
      numerics::clear_isa_override();

      // Same ULP contract as kernel_bench acc: each fused or reordered
      // rounding is |a||b|-bounded, k + bias of them per element.
      const double eps = std::numeric_limits<double>::epsilon();
      const double bound = static_cast<double>(2 * s.k + 8) * eps;
      for (std::size_t i = 0; i < s.m; ++i) {
        for (std::size_t j = 0; j < s.n; ++j) {
          EXPECT_LE(std::abs(c(i, j) - ref(i, j)), bound * ref_abs(i, j))
              << i << "," << j;
        }
      }
    }
  }
}

TEST(Views, ReconstructIntoBitIdenticalToValueForm) {
  const core::DctBasis basis(10, 9, 6);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 6, 9);
  const numerics::Vector mean(basis.cell_count(), 42.0);
  const core::ReconstructionModel model(basis, 6, sensors, mean);

  numerics::Rng rng(12);
  const numerics::Vector readings = rng.normal_vector(sensors.size());
  const numerics::Vector golden = model.reconstruct(readings);

  core::Workspace workspace;
  numerics::Vector out(basis.cell_count());
  model.reconstruct_into(readings, out, workspace);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], golden[i]);

  const numerics::Matrix frames = random_matrix(7, sensors.size(), 13);
  const numerics::Matrix golden_batch = model.reconstruct_batch(frames);
  numerics::Matrix batch_out(7, basis.cell_count());
  const StridedCopy sframes(frames);  // strided readings view
  model.reconstruct_batch_into(sframes.view, batch_out.view(), workspace);
  for (std::size_t f = 0; f < 7; ++f) {
    for (std::size_t i = 0; i < basis.cell_count(); ++i) {
      EXPECT_EQ(batch_out(f, i), golden_batch(f, i));
    }
  }
}

TEST(Views, DisjointBlocksOfOneBufferAliasSafely) {
  // Readings and output carved out of ONE backing buffer: the contract is
  // that non-overlapping views may share storage. (Overlapping
  // input/output views are undefined, as documented.)
  const core::DctBasis basis(8, 8, 4);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 4, 8);
  const numerics::Vector mean(basis.cell_count(), 10.0);
  const core::ReconstructionModel model(basis, 4, sensors, mean);

  const std::size_t frames = 3;
  const numerics::Matrix readings = random_matrix(frames, sensors.size(), 14);
  const numerics::Matrix golden = model.reconstruct_batch(readings);

  numerics::Vector buffer(frames * sensors.size() +
                          frames * basis.cell_count());
  numerics::MatrixView in(buffer.data(), frames, sensors.size(),
                          sensors.size());
  numerics::MatrixView out(buffer.data() + frames * sensors.size(), frames,
                           basis.cell_count(), basis.cell_count());
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      in(f, s) = readings(f, s);
    }
  }
  core::Workspace workspace;
  model.reconstruct_batch_into(in, out, workspace);
  for (std::size_t f = 0; f < frames; ++f) {
    for (std::size_t i = 0; i < basis.cell_count(); ++i) {
      EXPECT_EQ(out(f, i), golden(f, i));
    }
  }
}

TEST(Views, SizeMismatchedIntoOutputsThrow) {
  const numerics::Matrix a = random_matrix(4, 3, 20);
  const numerics::Matrix b = random_matrix(3, 5, 21);
  numerics::Matrix bad(4, 4);
  numerics::Matrix good(4, 5);
  EXPECT_THROW(numerics::matmul_into(a, b, bad.view()),
               std::invalid_argument);
  EXPECT_THROW(numerics::matmul_accumulate(a, b, bad.view()),
               std::invalid_argument);
  EXPECT_THROW(
      numerics::matmul_bias_into(a, b, numerics::Vector(4, 0.0), good.view()),
      std::invalid_argument);
  EXPECT_THROW(numerics::matmul_transposed_into(a, b, good.view()),
               std::invalid_argument);
  numerics::Matrix g(3, 4);
  EXPECT_THROW(numerics::gram_into(a, g.view()), std::invalid_argument);
  numerics::Vector y3(3), y4(4);
  EXPECT_THROW(numerics::matvec_into(a, numerics::Vector(3, 0.0), y3),
               std::invalid_argument);
  EXPECT_THROW(
      numerics::matvec_transpose_into(a, numerics::Vector(4, 0.0), y4),
      std::invalid_argument);

  const numerics::HouseholderQr qr(random_matrix(6, 3, 22));
  numerics::Vector x(3), x_bad(2), scratch(qr.scratch_doubles());
  numerics::Vector rhs(6, 1.0), scratch_small(2);
  EXPECT_THROW(qr.solve_into(rhs, x_bad, scratch), std::invalid_argument);
  EXPECT_THROW(qr.solve_into(rhs, x, scratch_small), std::invalid_argument);
  numerics::Matrix rhs_rows(2, 6), x_rows_bad(3, 3);
  EXPECT_THROW(qr.solve_batch_into(rhs_rows, x_rows_bad.view(), scratch),
               std::invalid_argument);

  const core::DctBasis basis(8, 8, 4);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 4, 8);
  const core::ReconstructionModel model(
      basis, 4, sensors, numerics::Vector(basis.cell_count(), 0.0));
  core::Workspace workspace;
  numerics::Vector out_small(basis.cell_count() - 1);
  EXPECT_THROW(model.reconstruct_into(numerics::Vector(sensors.size(), 0.0),
                                      out_small, workspace),
               std::invalid_argument);
  numerics::Matrix batch_out_bad(2, basis.cell_count() - 1);
  EXPECT_THROW(
      model.reconstruct_batch_into(numerics::Matrix(2, sensors.size()),
                                   batch_out_bad.view(), workspace),
      std::invalid_argument);
  EXPECT_THROW(
      model.expand_into(numerics::Matrix(2, 4), batch_out_bad.view()),
      std::invalid_argument);

  core::FactorCache cache(std::make_shared<core::ReconstructionModel>(
      basis, 4, sensors, numerics::Vector(basis.cell_count(), 0.0)));
  const core::SensorBitmask mask =
      core::SensorBitmask::except(sensors.size(), {0});
  EXPECT_THROW(
      cache.reconstruct_batch_into(numerics::Matrix(2, sensors.size()), mask,
                                   batch_out_bad.view(), workspace),
      std::invalid_argument);
}

}  // namespace
