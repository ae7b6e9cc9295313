// Micro-benchmarks (google-benchmark) for the library's hot kernels:
// dense products, QR least squares, eigensolvers, sparse CG, thermal
// stepping, PCA training and the greedy allocator.
//
// These quantify the design choices DESIGN.md calls out — in particular the
// snapshot-Gram PCA vs the dense-covariance eigensolve, and the cost of one
// greedy allocation against one reconstruction.
#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/pca_basis.h"
#include "core/reconstructor.h"
#include "core/snapshot_set.h"
#include "core/workspace.h"
#include "floorplan/floorplan.h"
#include "floorplan/grid.h"
#include "numerics/blas.h"
#include "numerics/qr.h"
#include "numerics/rng.h"
#include "numerics/svd.h"
#include "numerics/symmetric_eigen.h"
#include "reference_kernels.h"
#include "sparse/conjugate_gradient.h"
#include "thermal/rc_model.h"

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

core::SnapshotSet synthetic_snapshots(std::size_t t, std::size_t n) {
  numerics::Rng rng(7);
  const std::size_t rank = 8;
  const numerics::Matrix modes = random_matrix(rank, n, 11);
  numerics::Matrix maps(t, n);
  for (std::size_t j = 0; j < t; ++j) {
    for (std::size_t r = 0; r < rank; ++r) {
      const double coeff = rng.normal() * static_cast<double>(rank - r);
      for (std::size_t i = 0; i < n; ++i) maps(j, i) += coeff * modes(r, i);
    }
  }
  return core::SnapshotSet(std::move(maps));
}

void BM_DenseMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numerics::Matrix a = random_matrix(n, n, 1);
  const numerics::Matrix b = random_matrix(n, n, 2);
  numerics::set_blas_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::matmul(a, b));
  }
  numerics::set_blas_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_DenseMatmul)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

/// The contraction-free scalar reference from reference_kernels.h — the
/// same baseline kernel_bench's acc and perf modes use, so this bench and
/// BENCH_kernels.json quote speedups against one implementation.
void BM_DenseMatmulScalarReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numerics::Matrix a = random_matrix(n, n, 1);
  const numerics::Matrix b = random_matrix(n, n, 2);
  numerics::Matrix c(n, n);
  for (auto _ : state) {
    bench::ref_matmul(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.row_data(0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_DenseMatmulScalarReference)->Arg(256)->Arg(512);

/// Heap allocations per reconstructed frame across the timed loop; the
/// headline number of the value-returning vs `_into` comparison.
void set_alloc_per_frame_counter(benchmark::State& state,
                                 std::uint64_t alloc_before,
                                 std::size_t batch) {
  const auto allocs = static_cast<double>(eigenmaps::testhook::allocation_count() -
                                          alloc_before);
  const double frames =
      static_cast<double>(state.iterations()) * static_cast<double>(batch);
  state.counters["allocs/frame"] = frames == 0.0 ? 0.0 : allocs / frames;
}

void BM_ReconstructBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const core::DctBasis basis(56, 60, 16);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 16, 24);
  const numerics::Vector mean(basis.cell_count(), 50.0);
  const core::Reconstructor rec(basis, 16, sensors, mean);
  const numerics::Matrix readings = random_matrix(batch, sensors.size(), 12);
  const std::uint64_t alloc_before = eigenmaps::testhook::allocation_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.reconstruct_batch(readings));
  }
  set_alloc_per_frame_counter(state, alloc_before, batch);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ReconstructBatch)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

/// The zero-allocation serving path: same solve + GEMM as
/// BM_ReconstructBatch but into a caller-owned output through a warmed
/// Workspace — allocs/frame must read 0 and fps at least match.
void BM_ReconstructBatchInto(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const core::DctBasis basis(56, 60, 16);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 16, 24);
  const numerics::Vector mean(basis.cell_count(), 50.0);
  const core::Reconstructor rec(basis, 16, sensors, mean);
  const numerics::Matrix readings = random_matrix(batch, sensors.size(), 12);
  core::Workspace workspace;
  numerics::Matrix out(batch, basis.cell_count());
  rec.reconstruct_batch_into(readings, out.view(), workspace);  // warm
  const std::uint64_t alloc_before = eigenmaps::testhook::allocation_count();
  for (auto _ : state) {
    rec.reconstruct_batch_into(readings, out.view(), workspace);
    benchmark::DoNotOptimize(out.storage().data());
  }
  set_alloc_per_frame_counter(state, alloc_before, batch);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ReconstructBatchInto)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_QrLeastSquares(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 16;
  const numerics::Matrix a = random_matrix(m, k, 3);
  numerics::Rng rng(4);
  const numerics::Vector b = rng.normal_vector(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::solve_least_squares(a, b));
  }
}
BENCHMARK(BM_QrLeastSquares)->Arg(16)->Arg(64)->Arg(256);

void BM_SymmetricEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const numerics::Matrix g = numerics::gram(random_matrix(n + 8, n, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::symmetric_eigen(g));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(64)->Arg(128)->Arg(256);

void BM_SingularValues(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const numerics::Matrix a = random_matrix(m, 16, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::singular_values(a));
  }
}
BENCHMARK(BM_SingularValues)->Arg(16)->Arg(64)->Arg(256);

void BM_SparseCgThermalSystem(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const floorplan::Floorplan plan = floorplan::make_niagara_t1();
  const floorplan::ThermalGrid grid(plan, side, side);
  const thermal::RcModel model(grid);
  numerics::Vector power(plan.block_count(), 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.steady_state(power));
  }
}
BENCHMARK(BM_SparseCgThermalSystem)->Arg(20)->Arg(40)->Arg(60);

void BM_ThermalTransientStep(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const floorplan::Floorplan plan = floorplan::make_niagara_t1();
  const floorplan::ThermalGrid grid(plan, side, side);
  const thermal::RcModel model(grid);
  numerics::Vector power(plan.block_count(), 2.0);
  numerics::Vector state_vec = model.steady_state(power);
  const thermal::RcModel::StepSystem system = model.step_system(0.01);
  numerics::Rng rng(9);
  for (auto _ : state) {
    // Perturb power so each step does real work.
    for (std::size_t b = 0; b < power.size(); ++b) {
      power[b] = 2.0 + 0.5 * rng.uniform();
    }
    benchmark::DoNotOptimize(model.step(state_vec, power, system));
  }
}
BENCHMARK(BM_ThermalTransientStep)->Arg(20)->Arg(40)->Arg(60);

void BM_PcaTrainSnapshotGram(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const core::SnapshotSet set = synthetic_snapshots(t, 1200);
  core::PcaOptions options;
  options.max_order = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PcaBasis(set, options));
  }
}
BENCHMARK(BM_PcaTrainSnapshotGram)->Arg(64)->Arg(128)->Arg(256);

void BM_PcaTrainDenseCovariance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SnapshotSet set = synthetic_snapshots(128, n);
  core::PcaOptions options;
  options.method = core::PcaMethod::kDenseCovariance;
  options.max_order = 32;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::PcaBasis(set, options));
  }
}
BENCHMARK(BM_PcaTrainDenseCovariance)->Arg(128)->Arg(256);

void BM_GreedyAllocation(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const core::DctBasis basis(side, side, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::allocate_greedy(basis, 16, 24));
  }
}
BENCHMARK(BM_GreedyAllocation)->Arg(16)->Arg(32)->Arg(48);

void BM_Reconstruct(benchmark::State& state) {
  const auto n_side = static_cast<std::size_t>(state.range(0));
  const core::DctBasis basis(n_side, n_side, 16);
  const core::SensorLocations sensors =
      core::allocate_greedy(basis, 16, 24);
  const numerics::Vector mean(n_side * n_side, 50.0);
  const core::Reconstructor rec(basis, 16, sensors, mean);
  numerics::Rng rng(12);
  const numerics::Vector readings = rng.normal_vector(sensors.size());
  const std::uint64_t alloc_before = eigenmaps::testhook::allocation_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rec.reconstruct(readings));
  }
  set_alloc_per_frame_counter(state, alloc_before, 1);
}
BENCHMARK(BM_Reconstruct)->Arg(32)->Arg(56)->Arg(80);

/// Single-frame zero-allocation path; allocs/frame must read 0.
void BM_ReconstructInto(benchmark::State& state) {
  const auto n_side = static_cast<std::size_t>(state.range(0));
  const core::DctBasis basis(n_side, n_side, 16);
  const core::SensorLocations sensors =
      core::allocate_greedy(basis, 16, 24);
  const numerics::Vector mean(n_side * n_side, 50.0);
  const core::Reconstructor rec(basis, 16, sensors, mean);
  numerics::Rng rng(12);
  const numerics::Vector readings = rng.normal_vector(sensors.size());
  core::Workspace workspace;
  numerics::Vector out(basis.cell_count());
  rec.reconstruct_into(readings, out, workspace);  // warm
  const std::uint64_t alloc_before = eigenmaps::testhook::allocation_count();
  for (auto _ : state) {
    rec.reconstruct_into(readings, out, workspace);
    benchmark::DoNotOptimize(out.data());
  }
  set_alloc_per_frame_counter(state, alloc_before, 1);
}
BENCHMARK(BM_ReconstructInto)->Arg(32)->Arg(56)->Arg(80);

}  // namespace

BENCHMARK_MAIN();
