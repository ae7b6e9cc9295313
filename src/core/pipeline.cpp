#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "numerics/blas.h"
#include "numerics/rng.h"
#include "support/env.h"
#include "thermal/rc_model.h"

namespace eigenmaps::core {

namespace {

std::size_t env_size(const char* name, std::size_t fallback,
                     bool allow_zero = false) {
  return support::env_size_or(name, fallback, allow_zero ? 0 : 1);
}

// Per-block activity with Ornstein-Uhlenbeck-style dynamics; the scenario
// index picks which cores run hot so the five traces span distinct
// workload mixes (full load, half load, checkerboard, two hot cores,
// migrating load).
class ScenarioPower {
 public:
  ScenarioPower(const floorplan::Floorplan& plan, std::size_t scenario,
                numerics::Rng* rng)
      : plan_(&plan), scenario_(scenario), rng_(rng) {
    activity_.assign(plan.block_count(), 0.3);
    core_index_.assign(plan.block_count(), 0);
    std::size_t core = 0;
    for (std::size_t b = 0; b < plan.block_count(); ++b) {
      if (plan.block(b).type == floorplan::BlockType::kCore) {
        core_index_[b] = core++;
      }
    }
    core_count_ = core;
    step_ = 0;
  }

  void advance() {
    ++step_;
    const double mean_core_target = update_core_targets();
    for (std::size_t b = 0; b < activity_.size(); ++b) {
      double target;
      if (plan_->block(b).type == floorplan::BlockType::kCore) {
        target = core_target_[core_index_[b]];
      } else {
        // Shared resources load-follow the cores, with their own jitter.
        target = 0.2 + 0.7 * mean_core_target;
      }
      const double noise = 0.05 * rng_->normal();
      activity_[b] += 0.15 * (target - activity_[b]) + noise;
      activity_[b] = std::clamp(activity_[b], 0.0, 1.0);
    }
  }

  numerics::Vector block_power() const {
    numerics::Vector p(activity_.size());
    for (std::size_t b = 0; b < activity_.size(); ++b) {
      double idle = 0.2, busy = 1.0;
      switch (plan_->block(b).type) {
        case floorplan::BlockType::kCore:
          idle = 0.5;
          busy = 4.0;
          break;
        case floorplan::BlockType::kCache:
          idle = 0.3;
          busy = 1.5;
          break;
        case floorplan::BlockType::kCrossbar:
          idle = 0.3;
          busy = 2.0;
          break;
        case floorplan::BlockType::kMemController:
          idle = 0.3;
          busy = 1.5;
          break;
        case floorplan::BlockType::kFpu:
          idle = 0.1;
          busy = 2.0;
          break;
        case floorplan::BlockType::kIo:
          idle = 0.2;
          busy = 1.0;
          break;
      }
      p[b] = idle + activity_[b] * (busy - idle);
    }
    return p;
  }

 private:
  // Returns the mean core target for this step.
  double update_core_targets() {
    if (core_target_.size() != core_count_) {
      core_target_.assign(core_count_, 0.5);
    }
    double mean = 0.0;
    for (std::size_t c = 0; c < core_count_; ++c) {
      bool hot;
      switch (scenario_) {
        case 0:
          hot = true;  // full load
          break;
        case 1:
          hot = c < core_count_ / 2;  // half the cores
          break;
        case 2:
          hot = (c % 2) == 0;  // checkerboard
          break;
        case 3:
          hot = (c == 1 || c == 5);  // two hot spots
          break;
        default:
          // Migrating load: the hot pair rotates every 32 steps.
          hot = (c == (step_ / 32) % core_count_) ||
                (c == (step_ / 32 + core_count_ / 2) % core_count_);
          break;
      }
      double target = hot ? 0.9 : 0.1;
      // Frequent per-core phase changes ride on top of the scenario
      // pattern so the within-scenario covariance is not rank one.
      if (rng_->uniform() < 0.08) target = rng_->uniform();
      core_target_[c] = target;
      mean += target;
    }
    return core_count_ > 0 ? mean / static_cast<double>(core_count_) : 0.0;
  }

  const floorplan::Floorplan* plan_;
  std::size_t scenario_;
  numerics::Rng* rng_;
  numerics::Vector activity_;
  numerics::Vector core_target_;
  std::vector<std::size_t> core_index_;
  std::size_t core_count_ = 0;
  std::size_t step_ = 0;
};

SnapshotSet validate_snapshots(SnapshotSet snapshots,
                               const ExperimentConfig& config) {
  if (snapshots.count() != config.map_count() ||
      snapshots.cell_count() != config.cell_count()) {
    throw std::invalid_argument("Experiment: snapshot shape != config");
  }
  return snapshots;
}

}  // namespace

ExperimentConfig::ExperimentConfig() {
  grid_width = env_size("EIGENMAPS_GRID_WIDTH", grid_width);
  grid_height = env_size("EIGENMAPS_GRID_HEIGHT", grid_height);
  scenario_count = env_size("EIGENMAPS_SCENARIOS", scenario_count);
  steps_per_scenario =
      env_size("EIGENMAPS_STEPS_PER_SCENARIO", steps_per_scenario);
  training_stride = env_size("EIGENMAPS_TRAINING_STRIDE", training_stride);
  pca_max_order = env_size("EIGENMAPS_PCA_MAX_ORDER", pca_max_order);
  dct_max_order = env_size("EIGENMAPS_DCT_MAX_ORDER", dct_max_order);
  seed = env_size("EIGENMAPS_SEED", seed, /*allow_zero=*/true);
}

bool ExperimentConfig::operator==(const ExperimentConfig& other) const {
  return grid_width == other.grid_width && grid_height == other.grid_height &&
         scenario_count == other.scenario_count &&
         steps_per_scenario == other.steps_per_scenario && dt == other.dt &&
         training_stride == other.training_stride &&
         pca_max_order == other.pca_max_order &&
         dct_max_order == other.dct_max_order && seed == other.seed;
}

Experiment::Experiment(const ExperimentConfig& config, SnapshotSet snapshots,
                       numerics::Vector energy)
    : config_(config),
      plan_(floorplan::make_niagara_t1()),
      grid_(plan_, config.grid_width, config.grid_height),
      snapshots_(validate_snapshots(std::move(snapshots), config)),
      training_(snapshots_.subsample(config.training_stride)),
      centered_evaluation_(snapshots_.data()),
      energy_(std::move(energy)),
      eigenmaps_basis_(training_,
                       [&config] {
                         PcaOptions o;
                         o.max_order = config.pca_max_order;
                         return o;
                       }()),
      dct_basis_(config.grid_height, config.grid_width,
                 std::min(config.dct_max_order, config.cell_count())) {
  if (energy_.size() != config.cell_count()) {
    throw std::invalid_argument("Experiment: energy size != config");
  }
  numerics::subtract_row_mean(centered_evaluation_, training_.mean());
}

Experiment simulate_experiment(const ExperimentConfig& config) {
  const floorplan::Floorplan plan = floorplan::make_niagara_t1();
  const floorplan::ThermalGrid grid(plan, config.grid_width,
                                    config.grid_height);
  const thermal::RcModel model(grid);
  const std::size_t steps = config.steps_per_scenario;

  // Scenario s owns rows [s * steps, (s + 1) * steps) of both matrices, so
  // the scenarios run concurrently without sharing any mutable state.
  numerics::Matrix maps(config.map_count(), grid.cell_count());
  numerics::Matrix block_powers(config.map_count(), plan.block_count());
  const auto run_scenario = [&](std::size_t s) {
    numerics::Rng rng(config.seed + 1000 * s);
    ScenarioPower workload(plan, s, &rng);
    const thermal::RcModel::StepSystem system = model.step_system(config.dt);
    // Settle into the scenario before recording.
    for (int warm = 0; warm < 8; ++warm) workload.advance();
    numerics::Vector power = workload.block_power();
    numerics::Vector state = model.steady_state(power);
    for (std::size_t t = 0; t < steps; ++t) {
      workload.advance();
      power = workload.block_power();
      state = model.step(state, power, system);
      maps.set_row(s * steps + t, state);
      block_powers.set_row(s * steps + t, power);
    }
  };

  // Threads claim scenarios in index order; the calling thread runs too.
  // Errors are captured per thread and rethrown after the join, so an
  // exception never escapes a thread (which would std::terminate).
  const std::size_t threads = std::max<std::size_t>(
      1, std::min(config.scenario_count, numerics::blas_threads()));
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(threads);
  const auto worker = [&](std::size_t id) {
    try {
      for (std::size_t s = next++; s < config.scenario_count; s = next++) {
        run_scenario(s);
      }
    } catch (...) {
      errors[id] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  try {
    for (std::size_t id = 1; id < threads; ++id) pool.emplace_back(worker, id);
  } catch (const std::system_error&) {
    // Out of threads: the ones running and the caller take the rest.
  }
  worker(0);
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // The energy sum runs in trace order, as a single-threaded trace would
  // add it: per-scenario partial sums would round differently.
  numerics::Vector energy(grid.cell_count(), 0.0);
  for (std::size_t row = 0; row < config.map_count(); ++row) {
    const numerics::Vector p = model.cell_power(block_powers.row(row));
    for (std::size_t i = 0; i < energy.size(); ++i) energy[i] += p[i];
  }
  const double inv = 1.0 / static_cast<double>(config.map_count());
  for (double& e : energy) e *= inv;
  return Experiment(config, SnapshotSet(std::move(maps)), std::move(energy));
}

}  // namespace eigenmaps::core
