#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/metrics.h"
#include "core/order_selection.h"
#include "core/pipeline.h"
#include "core/reconstructor.h"
#include "numerics/blas.h"

namespace {

using namespace eigenmaps;

core::ExperimentConfig tiny_config() {
  core::ExperimentConfig config;
  config.grid_width = 14;
  config.grid_height = 12;
  config.scenario_count = 3;
  config.steps_per_scenario = 30;
  config.training_stride = 2;
  config.pca_max_order = 16;
  config.dct_max_order = 16;
  return config;
}

TEST(Pipeline, SimulatedExperimentHasTheConfiguredShape) {
  const core::ExperimentConfig config = tiny_config();
  const core::Experiment e = core::simulate_experiment(config);

  EXPECT_EQ(e.snapshots().count(), 90u);
  EXPECT_EQ(e.snapshots().cell_count(), 14u * 12u);
  EXPECT_EQ(e.training_set().count(), 45u);
  EXPECT_EQ(e.mean_map().size(), e.snapshots().cell_count());
  EXPECT_EQ(e.centered_evaluation_maps().rows(), 90u);
  EXPECT_EQ(e.energy().size(), e.snapshots().cell_count());
  EXPECT_GT(e.eigenmaps_basis().max_order(), 4u);
  EXPECT_EQ(e.dct_basis().max_order(), 16u);

  // Temperatures must be physical: above ambient, below meltdown.
  for (const double t : e.snapshots().data().storage()) {
    EXPECT_GT(t, 40.0);
    EXPECT_LT(t, 200.0);
  }
  // Cores dissipate, so mean energy must be positive everywhere.
  for (const double p : e.energy()) EXPECT_GT(p, 0.0);
}

TEST(Pipeline, SimulationIsDeterministic) {
  const core::ExperimentConfig config = tiny_config();
  const core::Experiment a = core::simulate_experiment(config);
  const core::Experiment b = core::simulate_experiment(config);
  for (std::size_t i = 0; i < a.snapshots().data().storage().size(); ++i) {
    ASSERT_DOUBLE_EQ(a.snapshots().data().storage()[i],
                     b.snapshots().data().storage()[i]);
  }
}

TEST(Pipeline, NonFiniteDtThrowsFromTheScenarioThreads) {
  // Three threads for three scenarios: every scenario throws on its own
  // thread, and each exception must reach the caller, not std::terminate.
  core::ExperimentConfig config = tiny_config();
  numerics::set_blas_threads(3);
  for (const double dt : {std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
    config.dt = dt;
    EXPECT_THROW(core::simulate_experiment(config), std::invalid_argument);
  }
  numerics::set_blas_threads(0);
}

TEST(Pipeline, EndToEndReconstructionBeatsTheMeanBaseline) {
  const core::Experiment e = core::simulate_experiment(tiny_config());
  const std::size_t m = 10;
  const core::SensorLocations sensors = core::allocate_greedy(
      e.eigenmaps_basis(), std::min<std::size_t>(m, e.eigenmaps_basis().max_order()), m);
  const core::OrderSelection sel =
      core::select_order(e.eigenmaps_basis(), sensors, e.mean_map(),
                         e.snapshots().data(), m);
  const core::Reconstructor rec(e.eigenmaps_basis(), sel.k, sensors,
                                e.mean_map());
  const core::ReconstructionErrors errors =
      core::evaluate_reconstruction(rec, e.snapshots().data());

  // Predicting the mean map everywhere has MSE equal to the mean signal
  // energy; the sensor-driven reconstruction must be far better.
  const double mean_baseline =
      core::signal_energy_per_cell(e.centered_evaluation_maps());
  EXPECT_LT(errors.mse, 0.2 * mean_baseline);
  EXPECT_GT(errors.mse, 0.0);
}

TEST(Pipeline, EnvOverridesShrinkTheDefaultConfig) {
  setenv("EIGENMAPS_GRID_WIDTH", "9", 1);
  setenv("EIGENMAPS_STEPS_PER_SCENARIO", "11", 1);
  const core::ExperimentConfig config;
  unsetenv("EIGENMAPS_GRID_WIDTH");
  unsetenv("EIGENMAPS_STEPS_PER_SCENARIO");
  EXPECT_EQ(config.grid_width, 9u);
  EXPECT_EQ(config.steps_per_scenario, 11u);
  EXPECT_EQ(config.grid_height, 56u);  // untouched default

  const core::ExperimentConfig plain;
  EXPECT_EQ(plain.grid_width, 60u);
  EXPECT_FALSE(plain == config);

  // Zero is a legitimate RNG seed and must not be rejected.
  setenv("EIGENMAPS_SEED", "0", 1);
  const core::ExperimentConfig zero_seed;
  unsetenv("EIGENMAPS_SEED");
  EXPECT_EQ(zero_seed.seed, 0u);
}

}  // namespace
