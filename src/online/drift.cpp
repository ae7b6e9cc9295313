#include "online/drift.h"

#include <algorithm>
#include <cmath>

namespace eigenmaps::online {

DriftDetector::DriftDetector(DriftOptions options) : options_(options) {}

bool DriftDetector::observe(double residual) {
  ++frames_observed_;
  last_residual_ = residual;
  if (!calibrated_) {
    // Welford running mean/variance over the warmup window.
    ++warmup_count_;
    const double delta = residual - warmup_mean_;
    warmup_mean_ += delta / static_cast<double>(warmup_count_);
    warmup_m2_ += delta * (residual - warmup_mean_);
    if (warmup_count_ >= std::max<std::size_t>(options_.warmup_frames, 2)) {
      mean_ = warmup_mean_;
      sigma_ = std::max(
          std::sqrt(warmup_m2_ / static_cast<double>(warmup_count_ - 1)),
          options_.min_sigma);
      calibrated_ = true;
      cusum_ = 0.0;
    }
    return false;
  }
  const double z = (residual - mean_) / sigma_;
  cusum_ = std::max(0.0, cusum_ + z - options_.slack);
  if (cusum_ < options_.threshold) return false;
  ++alarms_;
  reset();
  return true;
}

void DriftDetector::reset() {
  warmup_count_ = 0;
  warmup_mean_ = 0.0;
  warmup_m2_ = 0.0;
  calibrated_ = false;
  cusum_ = 0.0;
}

DriftStats DriftDetector::stats() const {
  DriftStats out;
  out.frames_observed = frames_observed_;
  out.alarms = alarms_;
  out.calibrated = calibrated_;
  out.baseline_mean = mean_;
  out.baseline_sigma = sigma_;
  out.cusum = cusum_;
  out.last_residual = last_residual_;
  return out;
}

}  // namespace eigenmaps::online
