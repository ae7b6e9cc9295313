#include <stdexcept>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/interpolation.h"
#include "core/metrics.h"
#include "core/noise.h"
#include "core/order_selection.h"
#include "core/reconstructor.h"
#include "floorplan/floorplan.h"
#include "floorplan/grid.h"
#include "numerics/rng.h"

namespace {

using namespace eigenmaps;

// Maps that lie exactly in the span of the first k DCT modes plus a mean.
numerics::Matrix in_subspace_maps(const core::Basis& basis, std::size_t k,
                                  const numerics::Vector& mean, std::size_t t,
                                  std::uint64_t seed) {
  numerics::Rng rng(seed);
  numerics::Matrix maps(t, basis.cell_count());
  for (std::size_t row = 0; row < t; ++row) {
    const numerics::Vector coeff = rng.normal_vector(k);
    for (std::size_t i = 0; i < basis.cell_count(); ++i) {
      double v = mean[i];
      for (std::size_t j = 0; j < k; ++j) {
        v += coeff[j] * basis.vectors()(i, j);
      }
      maps(row, i) = v;
    }
  }
  return maps;
}

TEST(Reconstructor, ExactRecoveryInsideTheSubspace) {
  const core::DctBasis basis(10, 10, 8);
  const numerics::Vector mean(basis.cell_count(), 55.0);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 8, 12);
  const core::Reconstructor rec(basis, 8, sensors, mean);

  const numerics::Matrix maps = in_subspace_maps(basis, 8, mean, 6, 42);
  const core::ReconstructionErrors errors =
      core::evaluate_reconstruction(rec, maps);
  EXPECT_LT(errors.mse, 1e-16);
  EXPECT_LT(errors.max_sq, 1e-14);
}

TEST(Reconstructor, RejectsRankDeficientPlacements) {
  const core::DctBasis basis(8, 8, 6);
  const numerics::Vector mean(basis.cell_count(), 0.0);
  // Six copies of the same cell give a rank-one sampled basis...
  core::SensorLocations degenerate = {0, 0, 0, 0, 0, 0};
  EXPECT_THROW(core::Reconstructor(basis, 6, degenerate, mean),
               std::invalid_argument);
  // ...and an order above the sensor count is infeasible outright.
  core::SensorLocations two = {3, 40};
  EXPECT_THROW(core::Reconstructor(basis, 3, two, mean),
               std::invalid_argument);
}

TEST(Reconstructor, ConditionNumberIsAtLeastOne) {
  const core::DctBasis basis(9, 9, 6);
  const numerics::Vector mean(basis.cell_count(), 0.0);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 6, 10);
  const core::Reconstructor rec(basis, 6, sensors, mean);
  EXPECT_GE(rec.condition_number(), 1.0);
}

TEST(Reconstructor, SampleReadsTheSensorCells) {
  const core::DctBasis basis(5, 5, 4);
  const numerics::Vector mean(25, 0.0);
  const core::SensorLocations sensors = {2, 7, 13, 24};
  const core::Reconstructor rec(basis, 4, sensors, mean);
  numerics::Vector map(25, 0.0);
  for (std::size_t i = 0; i < 25; ++i) map[i] = static_cast<double>(i);
  const numerics::Vector readings = rec.sample(map);
  ASSERT_EQ(readings.size(), 4u);
  EXPECT_DOUBLE_EQ(readings[0], 2.0);
  EXPECT_DOUBLE_EQ(readings[3], 24.0);
}

TEST(SelectOrder, FindsTheTrueOrderOnCleanSubspaceData) {
  const core::DctBasis basis(10, 10, 10);
  const numerics::Vector mean(basis.cell_count(), 20.0);
  const std::size_t true_k = 6;
  const numerics::Matrix maps = in_subspace_maps(basis, true_k, mean, 40, 7);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 10, 12);
  const core::OrderSelection sel =
      core::select_order(basis, sensors, mean, maps, 10);
  // From K = true_k on the validation error is numerically zero, so the
  // winner is at least the true order and its error is ~machine epsilon.
  EXPECT_GE(sel.k, true_k);
  EXPECT_LT(sel.validation_mse, 1e-16);

  // A shape mismatch is a caller error, not "no feasible order".
  const numerics::Vector short_mean(basis.cell_count() - 1, 20.0);
  EXPECT_THROW(core::select_order(basis, sensors, short_mean, maps, 10),
               std::invalid_argument);
  const numerics::Matrix narrow(maps.rows(), maps.cols() - 3, 20.0);
  EXPECT_THROW(core::select_order(basis, sensors, mean, narrow, 10),
               std::invalid_argument);
  core::SensorLocations outside = sensors;
  outside.back() = basis.cell_count();
  EXPECT_THROW(core::select_order(basis, outside, mean, maps, 10),
               std::invalid_argument);
}

TEST(NoiseModel, SigmaMatchesTheSnrDefinition) {
  const double energy = 4.0;
  core::NoiseModel noise(10.0, energy, 99);  // SNR 10 dB -> ratio 10
  EXPECT_NEAR(noise.sigma() * noise.sigma(), energy / 10.0, 1e-12);

  numerics::Vector readings(10000, 0.0);
  noise.perturb(readings);
  double var = 0.0;
  for (const double r : readings) var += r * r;
  var /= static_cast<double>(readings.size());
  EXPECT_NEAR(var, energy / 10.0, 0.05 * energy / 10.0);
}

TEST(NoiseModel, NoisyReconstructionIsWorseThanNoiseless) {
  const core::DctBasis basis(10, 10, 8);
  const numerics::Vector mean(basis.cell_count(), 50.0);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 8, 14);
  const core::Reconstructor rec(basis, 8, sensors, mean);
  const numerics::Matrix maps = in_subspace_maps(basis, 8, mean, 12, 17);

  const double clean = core::evaluate_reconstruction(rec, maps).mse;
  core::NoiseModel noise(15.0, 1.0, 5);
  const double noisy = core::evaluate_reconstruction(rec, maps, &noise).mse;
  EXPECT_GT(noisy, clean);
}

TEST(Interpolation, ExactAtSensorsAndBoundedElsewhere) {
  const floorplan::Floorplan plan = floorplan::make_niagara_t1();
  const floorplan::ThermalGrid grid(plan, 12, 12);
  const core::SensorLocations sensors = core::allocate_uniform_grid(grid, 9);
  const core::InterpolatingReconstructor interp(grid, sensors);

  numerics::Vector map(grid.cell_count());
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = 40.0 + 10.0 * grid.cell_x(i) + 5.0 * grid.cell_y(i);
  }
  const numerics::Vector estimate = interp.reconstruct(interp.sample(map));
  double lo = 1e300, hi = -1e300;
  for (const std::size_t s : sensors) {
    EXPECT_NEAR(estimate[s], map[s], 1e-12);  // pass-through at sensors
    lo = std::min(lo, map[s]);
    hi = std::max(hi, map[s]);
  }
  for (const double v : estimate) {
    // Convex weights: estimates stay inside the reading range.
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

}  // namespace
