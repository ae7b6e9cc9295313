// The closed loop: serve -> observe residuals -> detect drift -> retrain
// in the background -> hot-swap -> serve.
//
// The AdaptationController is the runtime's train-side half. It hangs off
// the serving engine as a BatchObserver: every completed batch streams its
// held-out sensor residuals into a DriftDetector and (optionally) its
// reconstructed maps into a StreamingSnapshotSet. When the detector fires,
// a dedicated background thread re-extracts the basis from the reservoir
// (warm-started when the PCA method supports it), re-validates the
// existing sensor placement against the fresh basis (Theorem 1 rank guard
// + conditioning ceiling — the sensors are hardware and cannot move, so
// the greedy allocation is validated, not re-run), builds a fresh
// ReconstructionModel, and publishes it through the ModelRegistry's
// hot-swap. Serving never stalls: workers keep completing batches against
// whichever version they bound, and the next batch picks up the new one
// (DESIGN.md §11).
#ifndef EIGENMAPS_ONLINE_CONTROLLER_H
#define EIGENMAPS_ONLINE_CONTROLLER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pca_basis.h"
#include "online/drift.h"
#include "online/streaming_snapshots.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace eigenmaps::online {

struct AdaptationOptions {
  /// Reservoir of candidate training maps (see StreamingSnapshotSet).
  StreamingSnapshotOptions reservoir;
  /// Drift detection over the per-frame held-out residual.
  DriftOptions drift;
  /// Sensor slots (indices into the model's sensor list) whose residuals
  /// the detector watches; empty = every slot. Pushing frames with these
  /// slots masked out of the solve makes the statistic genuinely held out.
  std::vector<std::size_t> holdout_slots;
  /// Feed every expanded_stride-th served map into the reservoir. Catches
  /// within-subspace drift (the workload mix shifting under the same
  /// physics) for free; maps reconstructed through a *stale* basis cannot
  /// teach the retrainer genuinely new directions — that takes calibration
  /// frames (ingest_calibration).
  bool ingest_expanded = true;
  std::size_t expanded_stride = 8;
  /// A retrain needs at least this many resident maps; a drift alarm
  /// arriving earlier stays pending and re-arms as soon as the reservoir
  /// fills to it.
  std::size_t min_snapshots = 64;
  /// Basis order of the retrained model; 0 keeps the current model's.
  std::size_t retrain_order = 0;
  /// PCA backend of the refresh. max_order is overridden with the retrain
  /// order; kOrthogonalIteration is automatically warm-started from the
  /// serving model's subspace.
  core::PcaOptions pca;
  /// A refreshed model whose full-sensor conditioning exceeds this is
  /// rejected (retrain counted failed, no swap) — same convention as
  /// FactorCacheOptions::condition_ceiling (+inf: no ceiling).
  double condition_ceiling = 1e8;
};

struct AdaptationStats {
  std::uint64_t frames_observed = 0;
  std::uint64_t frames_ingested = 0;     // reservoir acceptances
  std::uint64_t calibration_maps = 0;    // ingest_calibration calls
  std::uint64_t drift_events = 0;
  std::uint64_t retrains_started = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t retrains_failed = 0;
  std::uint64_t retrains_deferred = 0;   // alarm before min_snapshots
  std::uint64_t swaps_published = 0;
  std::size_t reservoir_size = 0;
  DriftStats drift;
};

/// One controller adapts one model id in one registry. Construct it before
/// the engine, register it via EngineOptions::observer, and keep it alive
/// until the engine is destroyed. Thread-safe: on_batch arrives from many
/// workers, the retrainer runs on its own thread, and stats()/counters()
/// can be called from anywhere.
class AdaptationController final : public runtime::BatchObserver {
 public:
  /// Throws std::invalid_argument when `model` is not registered, a
  /// holdout slot is out of range for it, or an option value is out of
  /// range (drift options as DriftDetector checks them, a
  /// condition_ceiling below 1 or NaN).
  AdaptationController(runtime::ModelRegistry& registry,
                       runtime::ModelId model,
                       AdaptationOptions options = {});
  ~AdaptationController() override;

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  // BatchObserver: residual + ingestion tap, and the EngineStats overlay.
  void on_batch(std::uint64_t model, std::uint64_t version,
                std::uint64_t stream,
                const core::ReconstructionModel& served,
                const core::SensorBitmask& mask,
                numerics::ConstMatrixView frames,
                numerics::ConstMatrixView maps) override;
  runtime::AdaptationCounters counters(std::uint64_t model) const override;

  /// Offers one true full-resolution map (a calibration scan) to the
  /// reservoir — the only way genuinely new directions enter the training
  /// data; returns whether the reservoir retained it.
  bool ingest_calibration(numerics::ConstVectorView map);

  /// Queues a retrain as if drift had fired (ops override).
  void request_retrain();

  /// Blocks until no retrain is queued or running, or `timeout` elapses;
  /// returns whether idle was reached. Test and shutdown helper.
  bool wait_idle(std::chrono::milliseconds timeout);

  AdaptationStats stats() const;

 private:
  void retrain_loop();
  enum class RetrainOutcome { kSwapped, kDeferred, kFailed };
  RetrainOutcome retrain_once();

  runtime::ModelRegistry& registry_;
  const runtime::ModelId model_id_;
  const AdaptationOptions options_;
  StreamingSnapshotSet reservoir_;

  // Observation state (detector + counters) shared by workers, the
  // retrainer and stats readers. The reservoir locks itself (leaf lock).
  mutable std::mutex state_mutex_;
  DriftDetector detector_;
  std::uint64_t newest_version_seen_ = 0;
  std::uint64_t frames_observed_ = 0;
  std::uint64_t frames_ingested_ = 0;
  std::uint64_t calibration_maps_ = 0;
  std::uint64_t drift_events_ = 0;
  std::uint64_t retrains_started_ = 0;
  std::uint64_t retrains_completed_ = 0;
  std::uint64_t retrains_failed_ = 0;
  std::uint64_t retrains_deferred_ = 0;
  std::uint64_t swaps_published_ = 0;

  // Retrainer handshake.
  std::mutex retrain_mutex_;
  std::condition_variable retrain_cv_;
  bool retrain_requested_ = false;
  bool retrain_pending_data_ = false;  // deferred alarm awaiting reservoir fill
  bool retrain_running_ = false;
  bool stop_ = false;
  std::thread retrainer_;
};

}  // namespace eigenmaps::online

#endif  // EIGENMAPS_ONLINE_CONTROLLER_H
