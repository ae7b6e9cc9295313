// Workload-drift detection over per-frame reconstruction residuals.
//
// A basis trained on yesterday's workload keeps producing maps — they are
// just quietly wrong. The observable symptom is the held-out sensor
// residual (core::sensor_residual_rms): while the basis spans the
// workload it sits at the noise floor; when the workload leaves the
// subspace it grows and stays grown. The DriftDetector turns that stream
// of residuals into a calibrated alarm with a one-sided CUSUM — the
// classic change-point statistic: cheap (O(1) per frame), memoryless, and
// tunable between sensitivity and false-alarm rate with two knobs.
#ifndef EIGENMAPS_ONLINE_DRIFT_H
#define EIGENMAPS_ONLINE_DRIFT_H

#include <cstdint>

namespace eigenmaps::online {

struct DriftOptions {
  /// Residuals observed before the baseline (mean, sigma) is frozen and
  /// the CUSUM armed. Clamped to at least 2.
  std::size_t warmup_frames = 128;
  /// Alarm level of the CUSUM statistic, in baseline sigmas. Higher =
  /// fewer false alarms, slower detection.
  double threshold = 24.0;
  /// Per-frame drift allowance, in baseline sigmas: deviations below it
  /// never accumulate, so benign residual chatter cannot creep up to the
  /// alarm level.
  double slack = 1.0;
  /// Floor on the baseline sigma, guarding the noiseless-calibration case
  /// (a zero-variance warmup would make any deviation an instant alarm).
  double min_sigma = 1e-9;
};

struct DriftStats {
  std::uint64_t frames_observed = 0;
  std::uint64_t alarms = 0;
  bool calibrated = false;
  double baseline_mean = 0.0;
  double baseline_sigma = 0.0;
  double cusum = 0.0;          // current statistic, in sigmas
  double last_residual = 0.0;
};

/// One-sided CUSUM over a residual stream. Not thread-safe: the
/// AdaptationController serialises observe() under its own lock.
///
/// Warmup: the first warmup_frames residuals fix the baseline via Welford
/// mean/variance. Armed: S <- max(0, S + (r - mean)/sigma - slack); an
/// observation pushing S past `threshold` fires (observe returns true),
/// counts an alarm, and re-enters warmup through reset() semantics — after
/// a model swap the residual scale is new, so the baseline must be
/// relearned, which also gives the retrainer a natural alarm cooldown.
class DriftDetector {
 public:
  /// Throws std::invalid_argument naming the field for a threshold that is
  /// not positive, a slack that is negative or infinite, a min_sigma that
  /// is not positive or is infinite, and NaN anywhere.
  explicit DriftDetector(DriftOptions options = {});

  const DriftOptions& options() const { return options_; }

  /// Feeds one residual; returns true when the drift alarm fires.
  bool observe(double residual);

  /// Back to warmup: forget the baseline and the accumulated statistic
  /// (alarm and frame counters persist).
  void reset();

  bool calibrated() const { return calibrated_; }
  DriftStats stats() const;

 private:
  const DriftOptions options_;
  std::uint64_t frames_observed_ = 0;
  std::uint64_t alarms_ = 0;
  double last_residual_ = 0.0;

  // Warmup accumulation (Welford), then the frozen baseline.
  std::size_t warmup_count_ = 0;
  double warmup_mean_ = 0.0;
  double warmup_m2_ = 0.0;
  bool calibrated_ = false;
  double mean_ = 0.0;
  double sigma_ = 0.0;
  double cusum_ = 0.0;
};

}  // namespace eigenmaps::online

#endif  // EIGENMAPS_ONLINE_DRIFT_H
