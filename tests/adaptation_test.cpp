// The online adaptation subsystem (DESIGN.md §11): streaming reservoir,
// CUSUM drift detection, warm-started basis refresh, and the paper-sized
// end-to-end loop — drift fires, the background retrainer publishes a new
// model through the registry hot-swap with zero dropped or misordered
// frames, and reconstruction error returns to oracle level.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/metrics.h"
#include "core/model.h"
#include "core/pca_basis.h"
#include "core/snapshot_set.h"
#include "numerics/rng.h"
#include "online/controller.h"
#include "online/drift.h"
#include "online/streaming_snapshots.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace {

using namespace eigenmaps;

// ---- StreamingSnapshotSet ----------------------------------------------

TEST(StreamingSnapshotSet, BoundedCapacityAndHonestCounters) {
  online::StreamingSnapshotOptions options;
  options.capacity = 8;
  online::StreamingSnapshotSet reservoir(4, options);
  EXPECT_EQ(reservoir.size(), 0u);
  EXPECT_THROW(reservoir.snapshot(), std::logic_error);

  numerics::Vector map(4, 0.0);
  for (int i = 0; i < 100; ++i) {
    map[0] = static_cast<double>(i);
    reservoir.ingest(map);
  }
  EXPECT_EQ(reservoir.frames_seen(), 100u);
  EXPECT_EQ(reservoir.size(), 8u);

  const core::SnapshotSet snap = reservoir.snapshot();
  EXPECT_EQ(snap.count(), 8u);
  EXPECT_EQ(snap.cell_count(), 4u);

  EXPECT_THROW(reservoir.ingest(numerics::Vector(3, 0.0)),
               std::invalid_argument);

  reservoir.clear();
  EXPECT_EQ(reservoir.size(), 0u);
  EXPECT_EQ(reservoir.frames_seen(), 0u);
}

TEST(StreamingSnapshotSet, ExponentialDecayPrefersRecentMaps) {
  online::StreamingSnapshotOptions options;
  options.capacity = 32;
  options.half_life_frames = 16.0;
  options.seed = 42;
  online::StreamingSnapshotSet reservoir(2, options);

  // 200 phase-A maps (value 1), then 200 phase-B maps (value 2): with a
  // 16-frame half-life, phase-A residents should be almost entirely
  // displaced by the end of phase B.
  numerics::Vector map(2);
  for (int i = 0; i < 200; ++i) {
    map[0] = map[1] = 1.0;
    reservoir.ingest(map);
  }
  for (int i = 0; i < 200; ++i) {
    map[0] = map[1] = 2.0;
    reservoir.ingest(map);
  }
  const core::SnapshotSet snap = reservoir.snapshot();
  std::size_t recent = 0;
  for (std::size_t t = 0; t < snap.count(); ++t) {
    if (snap.map_view(t)[0] == 2.0) ++recent;
  }
  EXPECT_GE(recent, (3 * snap.count()) / 4)
      << "decay sampling must skew the reservoir toward the recent phase";
}

TEST(StreamingSnapshotSet, NoDecayKeepsEarlyMapsInThePool) {
  online::StreamingSnapshotOptions options;
  options.capacity = 64;
  options.half_life_frames = 0.0;  // uniform reservoir sampling
  options.seed = 7;
  online::StreamingSnapshotSet reservoir(1, options);

  numerics::Vector map(1);
  for (int i = 0; i < 1000; ++i) {
    map[0] = i < 500 ? 1.0 : 2.0;
    reservoir.ingest(map);
  }
  const core::SnapshotSet snap = reservoir.snapshot();
  std::size_t early = 0;
  for (std::size_t t = 0; t < snap.count(); ++t) {
    if (snap.map_view(t)[0] == 1.0) ++early;
  }
  // Uniform sampling retains both halves in force (expected 50/50).
  EXPECT_GE(early, snap.count() / 4);
  EXPECT_LE(early, (3 * snap.count()) / 4);
}

// ---- DriftDetector -----------------------------------------------------

TEST(DriftDetector, StationaryResidualsNeverAlarm) {
  online::DriftOptions options;
  options.warmup_frames = 128;
  options.threshold = 24.0;
  online::DriftDetector detector(options);

  numerics::Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_FALSE(detector.observe(5.0 + 0.1 * rng.normal()));
  }
  EXPECT_EQ(detector.stats().alarms, 0u);
  EXPECT_TRUE(detector.calibrated());
  EXPECT_NEAR(detector.stats().baseline_mean, 5.0, 0.05);
}

TEST(DriftDetector, MeanShiftAlarmsOnceAndRecalibrates) {
  online::DriftOptions options;
  options.warmup_frames = 128;
  options.threshold = 24.0;
  options.slack = 1.0;
  online::DriftDetector detector(options);

  numerics::Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(detector.observe(5.0 + 0.1 * rng.normal()));
  }
  // Mean jumps 30 baseline sigmas: the CUSUM must fire within a few frames.
  bool fired = false;
  int frames_to_alarm = 0;
  for (int i = 0; i < 64 && !fired; ++i) {
    ++frames_to_alarm;
    fired = detector.observe(8.0 + 0.1 * rng.normal());
  }
  EXPECT_TRUE(fired);
  EXPECT_LE(frames_to_alarm, 8);
  EXPECT_EQ(detector.stats().alarms, 1u);
  EXPECT_FALSE(detector.calibrated());  // alarm re-enters warmup

  // The detector relearns the shifted level as the new normal: the same
  // stationary-but-higher residual stream raises no further alarms.
  for (int i = 0; i < 2000; ++i) {
    EXPECT_FALSE(detector.observe(8.0 + 0.1 * rng.normal()));
  }
  EXPECT_EQ(detector.stats().alarms, 1u);
  EXPECT_NEAR(detector.stats().baseline_mean, 8.0, 0.05);
}

// ---- Warm-started orthogonal iteration ---------------------------------

TEST(PcaWarmStart, WarmStartConvergesInFewerSweeps) {
  // Low-rank ensemble with noise: cold orthogonal iteration needs many
  // sweeps; seeded with the previously-trained basis it needs only a few.
  const std::size_t kCells = 200, kMaps = 80, kRank = 6;
  numerics::Rng rng(29);
  numerics::Matrix modes(kCells, kRank);
  for (double& v : modes.storage()) v = rng.normal();
  numerics::Matrix maps(kMaps, kCells);
  for (std::size_t t = 0; t < kMaps; ++t) {
    for (std::size_t j = 0; j < kRank; ++j) {
      const double c = (6.0 / (1.0 + j)) * rng.normal();
      for (std::size_t i = 0; i < kCells; ++i) maps(t, i) += c * modes(i, j);
    }
    for (std::size_t i = 0; i < kCells; ++i) maps(t, i) += 0.01 * rng.normal();
  }
  const core::SnapshotSet training(maps);

  core::PcaOptions cold_options;
  cold_options.method = core::PcaMethod::kOrthogonalIteration;
  cold_options.max_order = kRank;
  cold_options.iteration_tolerance = 1e-10;
  const core::PcaBasis cold(training, cold_options);
  ASSERT_GE(cold.iterations_used(), 1u);

  core::PcaOptions warm_options = cold_options;
  warm_options.warm_start = &cold.vectors();
  const core::PcaBasis warm(training, warm_options);

  EXPECT_LE(warm.iterations_used(), cold.iterations_used());
  EXPECT_LE(warm.iterations_used(), 5u)
      << "a basis re-fed to itself must converge almost immediately";
  // Same subspace: every warm eigenvalue matches the cold run closely.
  ASSERT_EQ(warm.eigenvalues().size(), cold.eigenvalues().size());
  for (std::size_t j = 0; j < warm.eigenvalues().size(); ++j) {
    EXPECT_NEAR(warm.eigenvalues()[j], cold.eigenvalues()[j],
                1e-6 * cold.eigenvalues()[0]);
  }
}

// ---- AdaptationController ----------------------------------------------

struct ControllerFixture {
  ControllerFixture()
      : basis(12, 12, 8),
        mean(basis.cell_count(), 40.0),
        sensors(core::allocate_greedy(basis, 8, 12)),
        model(std::make_shared<const core::ReconstructionModel>(
            basis, 8, sensors, mean)) {
    registry.register_model(kModel, model);
  }

  /// A plausible map over the fixture's own modes + texture.
  numerics::Vector make_map(numerics::Rng& rng, double base) const {
    numerics::Vector map(basis.cell_count(), base);
    for (std::size_t j = 0; j < 8; ++j) {
      const double c = (4.0 / (1.0 + j)) * rng.normal();
      for (std::size_t i = 0; i < map.size(); ++i) {
        map[i] += c * basis.vectors()(i, j);
      }
    }
    for (double& v : map) v += 0.01 * rng.normal();
    return map;
  }

  static constexpr runtime::ModelId kModel = 5;
  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
  std::shared_ptr<const core::ReconstructionModel> model;
  runtime::ModelRegistry registry;
};

TEST(AdaptationController, ManualRetrainPublishesAHotSwap) {
  ControllerFixture fx;
  online::AdaptationOptions options;
  options.reservoir.capacity = 32;
  options.min_snapshots = 16;
  online::AdaptationController controller(fx.registry,
                                          ControllerFixture::kModel, options);

  numerics::Rng rng(3);
  for (int i = 0; i < 24; ++i) {
    controller.ingest_calibration(fx.make_map(rng, 55.0));
  }
  controller.request_retrain();
  ASSERT_TRUE(controller.wait_idle(std::chrono::milliseconds(10000)));

  const online::AdaptationStats stats = controller.stats();
  EXPECT_EQ(stats.retrains_started, 1u);
  EXPECT_EQ(stats.retrains_completed, 1u);
  EXPECT_EQ(stats.retrains_failed, 0u);
  EXPECT_EQ(stats.swaps_published, 1u);
  EXPECT_EQ(stats.calibration_maps, 24u);

  const auto entry = fx.registry.resolve(ControllerFixture::kModel);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->version, 2u);  // hot-swapped
  EXPECT_EQ(entry->model->order(), fx.model->order());      // kept
  EXPECT_EQ(entry->model->sensors(), fx.model->sensors());  // hardware
  // The refreshed mean tracks the streamed data, not the stale 40.
  EXPECT_NEAR(entry->model->mean_map()[0], 55.0, 3.0);
}

TEST(AdaptationController, DeferredRetrainReArmsWhenDataArrives) {
  ControllerFixture fx;
  online::AdaptationOptions options;
  options.reservoir.capacity = 32;
  options.min_snapshots = 16;
  online::AdaptationController controller(fx.registry,
                                          ControllerFixture::kModel, options);

  // Alarm with an empty reservoir: deferred, nothing published.
  controller.request_retrain();
  ASSERT_TRUE(controller.wait_idle(std::chrono::milliseconds(10000)));
  online::AdaptationStats stats = controller.stats();
  EXPECT_EQ(stats.retrains_deferred, 1u);
  EXPECT_EQ(stats.swaps_published, 0u);
  EXPECT_EQ(fx.registry.resolve(ControllerFixture::kModel)->version, 1u);

  // Data arriving re-arms the deferred retrain without another alarm.
  numerics::Rng rng(4);
  for (int i = 0; i < 16; ++i) {
    controller.ingest_calibration(fx.make_map(rng, 52.0));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (controller.stats().swaps_published == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stats = controller.stats();
  EXPECT_EQ(stats.swaps_published, 1u);
  EXPECT_EQ(fx.registry.resolve(ControllerFixture::kModel)->version, 2u);
}

TEST(AdaptationController, RejectsUnknownModelAndBadConfiguration) {
  ControllerFixture fx;
  EXPECT_THROW(
      online::AdaptationController(fx.registry, 999),
      std::invalid_argument);
  online::AdaptationOptions bad_slot;
  bad_slot.holdout_slots = {fx.sensors.size()};  // one past the end
  EXPECT_THROW(online::AdaptationController(
                   fx.registry, ControllerFixture::kModel, bad_slot),
               std::invalid_argument);
  online::AdaptationOptions unreachable_floor;
  unreachable_floor.reservoir.capacity = 32;
  unreachable_floor.min_snapshots = 64;  // could never retrain: refused
  EXPECT_THROW(online::AdaptationController(
                   fx.registry, ControllerFixture::kModel, unreachable_floor),
               std::invalid_argument);
  online::AdaptationOptions zero_stride;
  zero_stride.expanded_stride = 0;  // would divide by zero on a worker
  EXPECT_THROW(online::AdaptationController(
                   fx.registry, ControllerFixture::kModel, zero_stride),
               std::invalid_argument);
}

// ---- End to end at paper size ------------------------------------------

// Workload generator over disjoint DCT mode banks: phase A excites modes
// [0, kOrder), phase B modes [kOrder, 2 kOrder) — orthogonal subspaces, so
// a basis trained on A is useless for B (the stale-model failure the loop
// must heal).
struct WorkloadGenerator {
  WorkloadGenerator(std::size_t height, std::size_t width, std::size_t order)
      : modes(height, width, 2 * order), order(order) {}

  numerics::Vector make_map(bool phase_b, numerics::Rng& rng) const {
    const std::size_t offset = phase_b ? order : 0;
    numerics::Vector map(modes.cell_count(), 50.0);
    for (std::size_t j = 0; j < order; ++j) {
      const double c = (10.0 / (1.0 + j)) * rng.normal();
      const numerics::Matrix& v = modes.vectors();
      for (std::size_t i = 0; i < map.size(); ++i) {
        map[i] += c * v(i, offset + j);
      }
    }
    for (double& v : map) v += 0.02 * rng.normal();
    return map;
  }

  core::SnapshotSet ensemble(bool phase_b, std::size_t count,
                             std::uint64_t seed) const {
    numerics::Rng rng(seed);
    numerics::Matrix maps(count, modes.cell_count());
    for (std::size_t t = 0; t < count; ++t) {
      maps.set_row(t, make_map(phase_b, rng));
    }
    return core::SnapshotSet(std::move(maps));
  }

  core::DctBasis modes;
  std::size_t order;
};

double evaluate_mse(const core::ReconstructionModel& model,
                    const core::SnapshotSet& maps) {
  double mse = 0.0;
  for (std::size_t t = 0; t < maps.count(); ++t) {
    const numerics::ConstVectorView original = maps.map_view(t);
    const numerics::Vector estimate =
        model.reconstruct(model.sample(original));
    double sq = 0.0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      const double d = original[i] - estimate[i];
      sq += d * d;
    }
    mse += sq / static_cast<double>(original.size());
  }
  return mse / static_cast<double>(maps.count());
}

TEST(AdaptationEndToEnd, DriftRetrainHotSwapRecoversOracleAccuracy) {
  constexpr std::size_t kHeight = 56, kWidth = 60;  // paper-sized grid
  constexpr std::size_t kOrder = 12, kSensors = 24, kBatch = 32;
  const WorkloadGenerator gen(kHeight, kWidth, kOrder);

  // Offline training on phase A, exactly like the paper's pipeline.
  const core::SnapshotSet training_a = gen.ensemble(false, 300, 100);
  core::PcaOptions pca;
  pca.max_order = kOrder;
  const core::PcaBasis basis_a(training_a, pca);
  const core::SensorLocations sensors =
      core::allocate_greedy(basis_a, kOrder, kSensors);
  const auto model_a = std::make_shared<const core::ReconstructionModel>(
      basis_a, kOrder, sensors, training_a.mean());

  runtime::ModelRegistry registry;
  constexpr runtime::ModelId kModel = 1;
  registry.register_model(kModel, model_a);

  // Hold four sensor slots out of the solve (via the serving mask); the
  // drift detector watches exactly those slots.
  const std::vector<std::size_t> holdout = {3, 9, 15, 21};
  const core::SensorBitmask mask =
      core::SensorBitmask::except(kSensors, holdout);

  online::AdaptationOptions adapt;
  adapt.reservoir.capacity = 192;
  adapt.reservoir.half_life_frames = 96.0;
  adapt.reservoir.seed = 17;
  adapt.drift.warmup_frames = 64;
  adapt.drift.threshold = 16.0;
  adapt.holdout_slots = holdout;
  adapt.ingest_expanded = false;  // calibration-tap-driven in this scenario
  adapt.min_snapshots = 128;
  online::AdaptationController controller(registry, kModel, adapt);

  // Delivery bookkeeping: every frame exactly once, in order, across the
  // swap — the zero-downtime contract.
  std::mutex delivery_mutex;
  std::uint64_t next_expected_seq = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t order_violations = 0;
  runtime::EngineOptions engine_options;
  engine_options.worker_count = 2;
  engine_options.batch_size = kBatch;
  engine_options.observer = &controller;
  runtime::ReconstructionEngine engine(
      registry, engine_options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        std::lock_guard<std::mutex> lock(delivery_mutex);
        EXPECT_EQ(stream, 0u);
        if (first_seq != next_expected_seq) ++order_violations;
        next_expected_seq = first_seq + maps.rows();
        frames_delivered += maps.rows();
      });

  numerics::Rng serve_rng(200);
  std::uint64_t frames_pushed = 0;
  const auto push_map = [&](const numerics::Vector& map) {
    engine.push_frame(0, model_a->sample(map), kModel, mask);
    ++frames_pushed;
  };

  // Phase A: 20 batches of in-distribution traffic. The detector
  // calibrates its residual baseline; no alarm.
  for (std::size_t f = 0; f < 20 * kBatch; ++f) {
    push_map(gen.make_map(false, serve_rng));
  }
  engine.drain();
  EXPECT_EQ(controller.stats().drift_events, 0u);
  EXPECT_TRUE(controller.stats().drift.calibrated);

  // Phase B: the workload shifts to the orthogonal mode bank. Calibration
  // maps stream in alongside (every other frame), as a real deployment's
  // slow full-scan tap would; the controller defers its first alarm until
  // the reservoir holds min_snapshots of them, then retrains and swaps.
  bool swapped = false;
  std::size_t chunks_to_swap = 0;
  for (std::size_t chunk = 0; chunk < 40 && !swapped; ++chunk) {
    for (std::size_t f = 0; f < kBatch; ++f) {
      const numerics::Vector map = gen.make_map(true, serve_rng);
      push_map(map);
      if (f % 2 == 0) controller.ingest_calibration(map);
    }
    engine.drain();
    controller.wait_idle(std::chrono::milliseconds(30000));
    swapped = controller.stats().swaps_published > 0;
    ++chunks_to_swap;
  }
  ASSERT_TRUE(swapped) << "drift must trigger a published hot swap";
  EXPECT_GE(controller.stats().drift_events, 1u);

  // Post-swap traffic binds the refreshed model.
  for (std::size_t f = 0; f < 4 * kBatch; ++f) {
    push_map(gen.make_map(true, serve_rng));
  }
  engine.drain();

  // Zero-downtime: every frame pushed was delivered exactly once, in
  // order, across the swap.
  {
    std::lock_guard<std::mutex> lock(delivery_mutex);
    EXPECT_EQ(order_violations, 0u);
    EXPECT_EQ(frames_delivered, frames_pushed);
  }
  const runtime::EngineStats engine_stats = engine.stats();
  EXPECT_EQ(engine_stats.frames_completed, frames_pushed);
  const runtime::ModelStats& model_stats = engine_stats.models.at(kModel);
  EXPECT_GE(model_stats.hot_swaps_served, 1u);
  EXPECT_GE(model_stats.adaptation.drift_events, 1u);
  EXPECT_GE(model_stats.adaptation.swaps_published, 1u);
  EXPECT_EQ(model_stats.adaptation.retrains_failed, 0u);

  // Accuracy: the adapted model must land within 1.5x of an oracle model
  // trained offline on a fresh phase-B ensemble (same sensors — hardware),
  // while the stale phase-A model is off by orders of magnitude.
  const auto adapted = registry.resolve(kModel);
  ASSERT_TRUE(adapted);
  EXPECT_GE(adapted->version, 2u);

  const core::SnapshotSet training_b = gen.ensemble(true, 300, 300);
  const core::PcaBasis basis_b(training_b, pca);
  const core::ReconstructionModel oracle(basis_b, kOrder, sensors,
                                         training_b.mean());

  const core::SnapshotSet eval_b = gen.ensemble(true, 64, 400);
  const double mse_adapted = evaluate_mse(*adapted->model, eval_b);
  const double mse_oracle = evaluate_mse(oracle, eval_b);
  const double mse_stale = evaluate_mse(*model_a, eval_b);
  EXPECT_LE(mse_adapted, 1.5 * mse_oracle)
      << "adapted " << mse_adapted << " vs oracle " << mse_oracle;
  EXPECT_GE(mse_stale, 10.0 * mse_adapted)
      << "stale " << mse_stale << " vs adapted " << mse_adapted;
}

}  // namespace
