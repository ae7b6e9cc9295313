// End-to-end experiment assembly: floorplan -> thermal simulation ->
// snapshot ensemble -> trained bases. The figure harnesses consume one
// Experiment object and nothing else.
#ifndef EIGENMAPS_CORE_PIPELINE_H
#define EIGENMAPS_CORE_PIPELINE_H

#include <cstdint>

#include "core/dct_basis.h"
#include "core/pca_basis.h"
#include "core/snapshot_set.h"
#include "floorplan/floorplan.h"
#include "floorplan/grid.h"

namespace eigenmaps::core {

/// Paper-sized defaults: 60 x 56 grid, 5 workload scenarios x 530 steps =
/// 2650 maps. The default constructor honours EIGENMAPS_* environment
/// overrides (see README) so CI and smoke tests can shrink the experiment
/// without touching the harness sources.
struct ExperimentConfig {
  std::size_t grid_width = 60;
  std::size_t grid_height = 56;
  std::size_t scenario_count = 5;
  std::size_t steps_per_scenario = 530;
  double dt = 2e-3;  // seconds per simulation step
  /// The design-time ensemble is every training_stride-th map.
  std::size_t training_stride = 4;
  std::size_t pca_max_order = 48;
  std::size_t dct_max_order = 48;
  std::uint64_t seed = 42;

  ExperimentConfig();

  std::size_t map_count() const { return scenario_count * steps_per_scenario; }
  std::size_t cell_count() const { return grid_width * grid_height; }
  bool operator==(const ExperimentConfig& other) const;
};

class Experiment {
 public:
  /// Builds grid, training set and both bases from simulated (or cached)
  /// snapshots and the per-cell dissipated energy.
  Experiment(const ExperimentConfig& config, SnapshotSet snapshots,
             numerics::Vector energy);

  const ExperimentConfig& config() const { return config_; }
  const floorplan::Floorplan& plan() const { return plan_; }
  const floorplan::ThermalGrid& grid() const { return grid_; }

  /// All simulated maps, in trace order (the evaluation ensemble).
  const SnapshotSet& snapshots() const { return snapshots_; }
  /// The design-time subsample the bases were trained on.
  const SnapshotSet& training_set() const { return training_; }
  /// Design-time mean map (training-set mean).
  const numerics::Vector& mean_map() const { return training_.mean(); }
  /// snapshots() minus the design-time mean, one map per row.
  const numerics::Matrix& centered_evaluation_maps() const {
    return centered_evaluation_;
  }
  /// Mean dissipated power per cell (W), for the energy-center baseline.
  const numerics::Vector& energy() const { return energy_; }

  const PcaBasis& eigenmaps_basis() const { return eigenmaps_basis_; }
  const DctBasis& dct_basis() const { return dct_basis_; }

 private:
  ExperimentConfig config_;
  floorplan::Floorplan plan_;
  floorplan::ThermalGrid grid_;
  SnapshotSet snapshots_;
  SnapshotSet training_;
  numerics::Matrix centered_evaluation_;
  numerics::Vector energy_;
  PcaBasis eigenmaps_basis_;
  DctBasis dct_basis_;
};

/// Runs the RC thermal simulation over the workload scenarios and returns
/// the assembled experiment. The scenarios run concurrently on
/// min(scenario_count, numerics::blas_threads()) threads, and the result is
/// bit-identical for every thread count (DESIGN.md §2). A paper-sized
/// config takes ~1.1 s on 4 cores, ~2 s on one, basis training included;
/// core::build_cached_experiment amortises the simulation across harnesses.
Experiment simulate_experiment(const ExperimentConfig& config);

}  // namespace eigenmaps::core

#endif  // EIGENMAPS_CORE_PIPELINE_H
