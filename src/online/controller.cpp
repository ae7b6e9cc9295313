#include "online/controller.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/metrics.h"
#include "core/model.h"
#include "obs/event_log.h"

namespace eigenmaps::online {

namespace {

std::shared_ptr<const core::ReconstructionModel> resolve_model_or_throw(
    runtime::ModelRegistry& registry, runtime::ModelId model) {
  const std::shared_ptr<const runtime::RegisteredModel> entry =
      registry.resolve(model);
  if (!entry) {
    throw std::invalid_argument(
        "AdaptationController: model id not registered");
  }
  return entry->model;
}

}  // namespace

AdaptationController::AdaptationController(runtime::ModelRegistry& registry,
                                           runtime::ModelId model,
                                           AdaptationOptions options)
    : registry_(registry),
      model_id_(model),
      options_(std::move(options)),
      reservoir_(resolve_model_or_throw(registry, model)->cell_count(),
                 options_.reservoir),
      detector_(options_.drift) {
  const std::shared_ptr<const core::ReconstructionModel> current =
      registry_.resolve(model_id_)->model;
  for (const std::size_t slot : options_.holdout_slots) {
    if (slot >= current->sensor_count()) {
      throw std::invalid_argument(
          "AdaptationController: holdout slot out of range");
    }
  }
  if (options_.min_snapshots > reservoir_.capacity()) {
    // The reservoir could never reach the retrain floor: every alarm
    // would defer forever and the stale model would serve indefinitely —
    // a configuration error, refused loudly.
    throw std::invalid_argument(
        "AdaptationController: min_snapshots exceeds the reservoir "
        "capacity");
  }
  if (options_.ingest_expanded && options_.expanded_stride == 0) {
    throw std::invalid_argument(
        "AdaptationController: expanded_stride must be positive");
  }
  retrainer_ = std::thread([this] { retrain_loop(); });
}

AdaptationController::~AdaptationController() {
  {
    std::lock_guard<std::mutex> lock(retrain_mutex_);
    stop_ = true;
  }
  retrain_cv_.notify_all();
  retrainer_.join();
}

void AdaptationController::on_batch(std::uint64_t model,
                                    std::uint64_t version, std::uint64_t stream,
                                    const core::ReconstructionModel& served,
                                    const core::SensorBitmask& mask,
                                    numerics::ConstMatrixView frames,
                                    numerics::ConstMatrixView maps) {
  if (model != model_id_) return;
  const core::SensorLocations& sensors = served.sensors();
  // The constructor validated the holdout slots against the model of that
  // moment, but an operator can hot-swap in a model with fewer sensors at
  // any time; stand down (no residual, no alarm) rather than index past
  // the served model's frame width.
  bool holdout_usable = !options_.holdout_slots.empty();
  for (const std::size_t slot : options_.holdout_slots) {
    if (slot >= sensors.size()) holdout_usable = false;
  }
  bool alarm = false;
  std::uint64_t observed_base = 0;
  bool current_version = false;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // With several workers, batches still bound to the pre-swap model
    // finish interleaved with post-swap ones; their residuals describe
    // the model being retired and would poison the just-reset baseline
    // (desensitizing the detector by orders of magnitude), so only the
    // newest version's batches feed the detector and the reservoir.
    if (version > newest_version_seen_) newest_version_seen_ = version;
    current_version = version == newest_version_seen_;
    observed_base = frames_observed_;
    frames_observed_ += frames.rows();
    if (current_version) {
      for (std::size_t f = 0; f < frames.rows(); ++f) {
        double residual = 0.0;
        bool observed = false;
        if (holdout_usable) {
          // Explicit holdout slots are calibration-quality by contract:
          // the operator excludes them from the solve via the serving
          // mask precisely so their readings stay honest ground truth,
          // so the mask marking them inactive must NOT silence them.
          residual = core::sensor_residual_rms(frames.row_view(f),
                                               maps.row_view(f), sensors,
                                               options_.holdout_slots);
          observed = true;
        } else if (options_.holdout_slots.empty()) {
          // In-sample mode: every slot the solve used, skipping slots
          // the mask reports dead (their readings are garbage, not
          // drift).
          const double* readings = frames.row_data(f);
          const double* map = maps.row_data(f);
          double sum = 0.0;
          std::size_t counted = 0;
          for (std::size_t s = 0; s < sensors.size(); ++s) {
            if (mask.size() != 0 && !mask.active(s)) continue;
            const double d = readings[s] - map[sensors[s]];
            sum += d * d;
            ++counted;
          }
          if (counted > 0) {
            residual = std::sqrt(sum / static_cast<double>(counted));
            observed = true;
          }
        }
        if (observed && detector_.observe(residual)) {
          ++drift_events_;
          alarm = true;
        }
      }
    }
  }
  if (alarm) obs::emit_event(obs::EventType::kDriftAlarm, model_id_, stream);
  // The O(N) reservoir copies run outside the controller lock (the
  // reservoir has its own leaf lock), so concurrent workers only
  // serialize on the cheap detector pass above. The cell-count guard
  // covers an external hot swap to a model of a different resolution:
  // such maps cannot join this reservoir (and an engine-worker throw
  // would take down the process).
  if (options_.ingest_expanded && current_version &&
      maps.cols() == reservoir_.cell_count()) {
    std::uint64_t accepted = 0;
    for (std::size_t f = 0; f < frames.rows(); ++f) {
      if ((observed_base + f + 1) % options_.expanded_stride != 0) continue;
      if (reservoir_.ingest(maps.row_view(f))) ++accepted;
    }
    if (accepted > 0) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      frames_ingested_ += accepted;
    }
  }
  const bool data_ready = reservoir_.size() >= options_.min_snapshots;
  {
    std::lock_guard<std::mutex> lock(retrain_mutex_);
    if (alarm || (retrain_pending_data_ && data_ready)) {
      retrain_requested_ = true;
      if (data_ready) retrain_pending_data_ = false;
    } else {
      return;
    }
  }
  retrain_cv_.notify_all();
}

runtime::AdaptationCounters AdaptationController::counters(
    std::uint64_t model) const {
  if (model != model_id_) return {};
  std::lock_guard<std::mutex> lock(state_mutex_);
  runtime::AdaptationCounters out;
  out.drift_events = drift_events_;
  out.retrains_completed = retrains_completed_;
  out.retrains_failed = retrains_failed_;
  out.swaps_published = swaps_published_;
  return out;
}

bool AdaptationController::ingest_calibration(numerics::ConstVectorView map) {
  const bool accepted = reservoir_.ingest(map);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++calibration_maps_;
    if (accepted) ++frames_ingested_;
  }
  // A deferred alarm re-arms the moment calibration data pushes the
  // reservoir over the retrain floor.
  if (reservoir_.size() >= options_.min_snapshots) {
    bool notify = false;
    {
      std::lock_guard<std::mutex> lock(retrain_mutex_);
      if (retrain_pending_data_) {
        retrain_pending_data_ = false;
        retrain_requested_ = true;
        notify = true;
      }
    }
    if (notify) retrain_cv_.notify_all();
  }
  return accepted;
}

void AdaptationController::request_retrain() {
  {
    std::lock_guard<std::mutex> lock(retrain_mutex_);
    retrain_requested_ = true;
  }
  retrain_cv_.notify_all();
}

bool AdaptationController::wait_idle(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(retrain_mutex_);
  return retrain_cv_.wait_for(lock, timeout, [this] {
    return !retrain_requested_ && !retrain_running_;
  });
}

AdaptationStats AdaptationController::stats() const {
  AdaptationStats out;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    out.frames_observed = frames_observed_;
    out.frames_ingested = frames_ingested_;
    out.calibration_maps = calibration_maps_;
    out.drift_events = drift_events_;
    out.retrains_started = retrains_started_;
    out.retrains_completed = retrains_completed_;
    out.retrains_failed = retrains_failed_;
    out.retrains_deferred = retrains_deferred_;
    out.swaps_published = swaps_published_;
    out.drift = detector_.stats();
  }
  out.reservoir_size = reservoir_.size();
  return out;
}

void AdaptationController::retrain_loop() {
  std::unique_lock<std::mutex> lock(retrain_mutex_);
  for (;;) {
    retrain_cv_.wait(lock,
                     [this] { return stop_ || retrain_requested_; });
    if (stop_) return;
    retrain_requested_ = false;
    retrain_running_ = true;
    lock.unlock();
    const RetrainOutcome outcome = retrain_once();
    lock.lock();
    retrain_running_ = false;
    if (outcome == RetrainOutcome::kDeferred) {
      // Close the re-arm race: data that landed while retrain_once was
      // observing the shortfall saw retrain_pending_data_ still false and
      // could not re-arm, so re-check before going back to sleep — a
      // quiet stream after a calibration burst must not wedge pending.
      if (reservoir_.size() >= options_.min_snapshots) {
        retrain_requested_ = true;
      } else {
        retrain_pending_data_ = true;
      }
    }
    retrain_cv_.notify_all();  // wake wait_idle watchers
  }
}

AdaptationController::RetrainOutcome AdaptationController::retrain_once() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++retrains_started_;
  }
  obs::emit_event(obs::EventType::kRetrainStarted, model_id_);
  const std::shared_ptr<const runtime::RegisteredModel> entry =
      registry_.resolve(model_id_);
  if (!entry) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++retrains_failed_;
    obs::emit_event(obs::EventType::kRetrainFailed, model_id_);
    return RetrainOutcome::kFailed;
  }
  const std::shared_ptr<const core::ReconstructionModel> current =
      entry->model;
  if (reservoir_.size() < options_.min_snapshots) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++retrains_deferred_;
    return RetrainOutcome::kDeferred;
  }
  // Everything below runs off the hot path: snapshot() deep-copies the
  // reservoir, so serving keeps ingesting while the basis refreshes.
  const core::SnapshotSet training = reservoir_.snapshot();
  const std::size_t k =
      options_.retrain_order != 0 ? options_.retrain_order : current->order();
  core::PcaOptions pca = options_.pca;
  pca.max_order = k;
  numerics::Matrix warm;  // outlives the PcaBasis build that reads it
  if (pca.method == core::PcaMethod::kOrthogonalIteration) {
    // The serving subspace is usually close to the refreshed one; a few
    // warm sweeps instead of a cold eigendecomposition (DESIGN.md §11).
    warm = current->subspace();
    pca.warm_start = &warm;
  }
  try {
    const core::PcaBasis basis(training, pca);
    if (basis.max_order() < k) {
      throw std::invalid_argument(
          "retrain: reservoir variance does not support the order");
    }
    // Sensor-allocation validation: the ReconstructionModel constructor
    // re-checks Theorem 1's rank condition for the *existing* placement
    // against the fresh basis, and the ceiling re-checks conditioning —
    // the sensors are hardware, so a placement the new basis cannot
    // support must fail the retrain, not move the sensors. The expansion
    // backend follows the model being replaced: an fp32 model stays fp32
    // across retrains, and an fp32 replacement the fresh basis pushes
    // over its error budget fails at register_model below (counted as a
    // failed retrain, old model keeps serving).
    auto fresh = std::make_shared<const core::ReconstructionModel>(
        basis, k, current->sensors(), training.mean(),
        current->expansion_options());
    if (fresh->condition_number() > options_.condition_ceiling) {
      throw std::invalid_argument("retrain: conditioning past the ceiling");
    }
    const std::uint64_t published =
        registry_.register_model(model_id_, std::move(fresh));
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++retrains_completed_;
    ++swaps_published_;
    // Residuals observed from here on belong to the new model; relearn
    // the baseline from scratch (also a natural alarm cooldown). The
    // version floor must move in the same stroke, or the queue's backlog
    // of old-version batches would re-calibrate the fresh baseline on
    // the very stale residuals the on_batch filter exists to exclude.
    if (published > newest_version_seen_) newest_version_seen_ = published;
    detector_.reset();
    obs::emit_event(obs::EventType::kRetrainCompleted, model_id_, published);
    return RetrainOutcome::kSwapped;
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++retrains_failed_;
    obs::emit_event(obs::EventType::kRetrainFailed, model_id_);
    return RetrainOutcome::kFailed;
  }
}

}  // namespace eigenmaps::online
