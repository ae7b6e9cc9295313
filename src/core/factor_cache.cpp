#include "core/factor_cache.h"

#include <algorithm>
#include <stdexcept>

#include "numerics/svd.h"
#include "obs/trace.h"

namespace eigenmaps::core {

// ---- SensorBitmask -----------------------------------------------------

SensorBitmask::SensorBitmask(std::size_t sensor_count, bool all_active)
    : count_(sensor_count) {
  const std::size_t words = word_count();
  if (words > kInlineWords) {
    overflow_.assign(words, 0);
  }
  if (all_active) {
    std::uint64_t* w = this->words();
    for (std::size_t i = 0; i < words; ++i) w[i] = ~std::uint64_t{0};
    if (count_ % 64 != 0 && words != 0) {
      w[words - 1] >>= 64 - count_ % 64;  // clear bits past the sensor count
    }
  }
}

SensorBitmask SensorBitmask::except(std::size_t sensor_count,
                                    const std::vector<std::size_t>& dropped) {
  SensorBitmask mask(sensor_count);
  for (const std::size_t slot : dropped) mask.set(slot, false);
  return mask;
}

std::size_t SensorBitmask::active_count() const {
  const std::uint64_t* w = words();
  std::size_t count = 0;
  for (std::size_t i = 0; i < word_count(); ++i) {
    std::uint64_t word = w[i];
    while (word != 0) {
      word &= word - 1;
      ++count;
    }
  }
  return count;
}

bool SensorBitmask::active(std::size_t slot) const {
  if (slot >= count_) {
    throw std::out_of_range("SensorBitmask: slot out of range");
  }
  return (words()[slot / 64] >> (slot % 64)) & 1u;
}

void SensorBitmask::set(std::size_t slot, bool alive) {
  if (slot >= count_) {
    throw std::out_of_range("SensorBitmask: slot out of range");
  }
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if (alive) {
    words()[slot / 64] |= bit;
  } else {
    words()[slot / 64] &= ~bit;
  }
}

std::vector<std::size_t> SensorBitmask::active_slots() const {
  const std::uint64_t* w = words();
  std::vector<std::size_t> slots;
  slots.reserve(count_);
  for (std::size_t s = 0; s < count_; ++s) {
    if ((w[s / 64] >> (s % 64)) & 1u) slots.push_back(s);
  }
  return slots;
}

bool SensorBitmask::operator==(const SensorBitmask& other) const {
  if (count_ != other.count_) return false;
  const std::uint64_t* a = words();
  const std::uint64_t* b = other.words();
  for (std::size_t i = 0; i < word_count(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

std::size_t SensorBitmask::hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(count_);
  const std::uint64_t* w = words();
  for (std::size_t i = 0; i < word_count(); ++i) mix(w[i]);
  return static_cast<std::size_t>(h);
}

// ---- MaskedFactor ------------------------------------------------------

MaskedFactor::MaskedFactor(SensorBitmask mask, std::vector<std::size_t> active,
                           double condition, numerics::HouseholderQr qr)
    : mask_(std::move(mask)),
      active_(std::move(active)),
      condition_(condition),
      method_(Method::kRefactored),
      qr_(std::move(qr)) {}

MaskedFactor::MaskedFactor(SensorBitmask mask, std::vector<std::size_t> active,
                           std::shared_ptr<const ReconstructionModel> model)
    : mask_(std::move(mask)),
      active_(std::move(active)),
      condition_(model->condition_number()),
      method_(Method::kFullFactor),
      full_model_(std::move(model)) {}

const numerics::HouseholderQr& MaskedFactor::solver() const {
  return full_model_ ? full_model_->full_factor() : *qr_;
}

std::size_t MaskedFactor::solve_scratch_doubles() const {
  return solver().scratch_doubles();
}

void MaskedFactor::solve_batch_into(numerics::ConstMatrixView centered,
                                    numerics::MatrixView alpha,
                                    numerics::VectorView scratch) const {
  solver().solve_batch_into(centered, alpha, scratch);
}

numerics::Matrix MaskedFactor::solve_batch(
    numerics::ConstMatrixView centered) const {
  return solver().solve_batch(centered);
}

std::size_t MaskedFactor::resident_bytes() const {
  std::size_t doubles = 0;
  if (qr_) {
    // Packed factor + tau + diag.
    doubles = qr_->rows() * qr_->cols() + 2 * qr_->cols();
  }
  return doubles * sizeof(double) + active_.size() * sizeof(std::size_t);
}

// ---- FactorCache -------------------------------------------------------

FactorCache::FactorCache(std::shared_ptr<const ReconstructionModel> model,
                         FactorCacheOptions options)
    : model_(std::move(model)), options_([&options] {
        options.capacity = std::max<std::size_t>(options.capacity, 1);
        return options;
      }()) {
  if (!model_) {
    throw std::invalid_argument("FactorCache: null model");
  }
  // Borrows the model's own factor — bit-identical to the undegraded
  // path, no duplicate factorization.
  SensorBitmask all(model_->sensor_count());
  std::vector<std::size_t> slots = all.active_slots();
  full_factor_ = std::shared_ptr<const MaskedFactor>(
      new MaskedFactor(std::move(all), std::move(slots), model_));
}

std::shared_ptr<const MaskedFactor> FactorCache::build(
    const SensorBitmask& mask) const {
  const std::size_t k = model_->order();
  std::vector<std::size_t> active = mask.active_slots();
  if (active.size() < k) {
    // Theorem 1: fewer survivors than basis components cannot determine a
    // unique estimate at this order, whatever the geometry.
    throw std::invalid_argument(
        "FactorCache: surviving sensors fewer than the model order");
  }
  const numerics::Matrix& sampled = model_->sampled_basis();
  numerics::Matrix surviving(active.size(), k);
  for (std::size_t i = 0; i < active.size(); ++i) {
    const double* src = sampled.row_data(active[i]);
    double* dst = surviving.row_data(i);
    for (std::size_t j = 0; j < k; ++j) dst[j] = src[j];
  }

  // The rank guard, condition and factor of a ReconstructionModel built on
  // the survivors, computed the same way from the same rows: masked output
  // is that model's, bit for bit.
  const numerics::Vector sv = numerics::singular_values(surviving);
  if (sv.empty() || sv.front() <= 0.0 ||
      sv.back() < options_.rank_tolerance * sv.front()) {
    throw std::invalid_argument(
        "FactorCache: surviving sensors rank deficient (Theorem 1)");
  }
  const double condition = sv.front() / sv.back();
  if (condition > options_.condition_ceiling) {
    throw std::invalid_argument(
        "FactorCache: mask conditioning past the ceiling");
  }
  return std::shared_ptr<const MaskedFactor>(
      new MaskedFactor(mask, std::move(active), condition,
                       numerics::HouseholderQr(std::move(surviving))));
}

std::shared_ptr<const MaskedFactor> FactorCache::factor(
    const SensorBitmask& mask) {
  return lookup_or_build(mask, /*count_hit=*/true);
}

void FactorCache::validate(const SensorBitmask& mask) {
  lookup_or_build(mask, /*count_hit=*/false);
}

std::shared_ptr<const MaskedFactor> FactorCache::lookup_or_build(
    const SensorBitmask& mask, bool count_hit) {
  SensorBitmask full;
  const SensorBitmask* key_ptr = &mask;
  if (mask.size() == 0) {  // empty = all sensors
    full = SensorBitmask(model_->sensor_count());
    key_ptr = &full;
  }
  const SensorBitmask& key = *key_ptr;
  if (key.size() != model_->sensor_count()) {
    throw std::invalid_argument("FactorCache: mask width != sensor count");
  }
  if (key.all_active()) {
    if (count_hit) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.hits;
    }
    return full_factor_;  // permanently resident, no LRU slot
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (count_hit) ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    if (rejected_.count(key) != 0) {
      ++stats_.rejections;
      throw std::invalid_argument(
          "FactorCache: mask rejected (rank guard / condition ceiling)");
    }
    ++stats_.misses;
  }
  // Build outside the lock: the factors are small (k x k-ish) but a cold
  // mask must not stall hits on other masks, the undegraded path, or the
  // stats readers. Concurrent misses on the same mask may build twice;
  // the first insert wins below.
  std::shared_ptr<const MaskedFactor> built;
  try {
    built = build(key);
  } catch (const std::invalid_argument&) {
    // A genuine rejection (rank guard / ceiling): negatively cache it.
    // The attempt is a rejection, not a miss — hit rate should measure
    // the cache over servable masks, not the presence of bad ones.
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.misses;
    ++stats_.rejections;
    if (rejected_.size() >= 1024) rejected_.clear();
    rejected_.insert(key);
    throw;
  } catch (...) {
    // Transient failure (e.g. allocation): retryable, never poison the
    // mask.
    std::lock_guard<std::mutex> lock(mutex_);
    --stats_.misses;
    throw;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.refactors;
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Raced another builder; keep the resident factor.
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, built);
  index_[key] = lru_.begin();
  if (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return built;
}

void FactorCache::reconstruct_batch_into(numerics::ConstMatrixView readings,
                                         const SensorBitmask& mask,
                                         numerics::MatrixView out,
                                         Workspace& workspace) {
  if (readings.cols() != model_->sensor_count()) {
    throw std::invalid_argument(
        "FactorCache::reconstruct_batch: readings width != sensor count");
  }
  if (mask.size() == 0 || (mask.size() == model_->sensor_count() &&
                           mask.all_active())) {
    // Undegraded: the model's own path, bit for bit, no cache slot burned
    // — and counted apart from hits so the hit rate measures the cache.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.full_mask_batches;
    }
    model_->reconstruct_batch_into(readings, out, workspace);
    return;
  }
  const std::size_t frames = readings.rows();
  if (out.rows() != frames || out.cols() != model_->cell_count()) {
    throw std::invalid_argument(
        "FactorCache::reconstruct_batch: output shape mismatch");
  }
  const std::shared_ptr<const MaskedFactor> f = factor(mask);
  const std::vector<std::size_t>& slots = f->active_slots();
  const numerics::Vector& mean = model_->mean_at_sensors();
  const std::size_t k = model_->order();
  // Same layout as the undegraded path, so the model's sizing bound
  // (workspace_doubles) covers every mask and a warm workspace never
  // grows on a mask change.
  workspace.begin(Workspace::padded(frames * slots.size()) +
                  Workspace::padded(frames * k) +
                  Workspace::padded(f->solve_scratch_doubles()));
  numerics::MatrixView centered =
      workspace.alloc_matrix(frames, slots.size());
  numerics::MatrixView alpha = workspace.alloc_matrix(frames, k);
  numerics::VectorView scratch =
      workspace.alloc_vector(f->solve_scratch_doubles());
  for (std::size_t row = 0; row < frames; ++row) {
    const double* src = readings.row_data(row);
    double* dst = centered.row_data(row);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      dst[i] = src[slots[i]] - mean[slots[i]];
    }
  }
  {
    // Stage attribution for the masked path (the full-mask path is timed
    // inside the model's own batch solve); expansion is timed by
    // expand_into itself.
    obs::ScopedStageSpan span(obs::Stage::kSolve);
    f->solve_batch_into(centered, alpha, scratch);
  }
  model_->expand_into(alpha, out);
}

numerics::Matrix FactorCache::reconstruct_batch(
    numerics::ConstMatrixView readings, const SensorBitmask& mask) {
  numerics::Matrix out(readings.rows(), model_->cell_count());
  reconstruct_batch_into(readings, mask, out.view(), wrapper_workspace());
  return out;
}

FactorCacheStats FactorCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t FactorCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::size_t FactorCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = full_factor_->resident_bytes();
  for (const LruEntry& entry : lru_) {
    bytes += entry.second->resident_bytes();
  }
  return bytes;
}

}  // namespace eigenmaps::core
