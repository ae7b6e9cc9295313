// Degraded-mode reconstruction: an LRU of per-dropout-pattern QR factors.
//
// A production thermal-map service loses sensors at runtime. Theorem 1's
// feasibility condition and the conditioning analysis (Fig. 5) are stated
// for one fixed sensor set, so every distinct survivor set is a distinct
// inverse problem with its own factor, rank guard, and condition number.
// The cache keys factors by the active-sensor bitmask and builds each one
// lazily, as a Householder QR of the surviving rows: the same rank guard,
// factor and solve a ReconstructionModel built on those sensors runs, so a
// masked reconstruction is bit-identical to a from-scratch one. A
// condition-number ceiling on top rejects masks too ill-conditioned to
// serve.
#ifndef EIGENMAPS_CORE_FACTOR_CACHE_H
#define EIGENMAPS_CORE_FACTOR_CACHE_H

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/model.h"
#include "core/workspace.h"

namespace eigenmaps::core {

/// Which of a model's sensors are alive; bit s set = sensor slot s is
/// reporting. A default-constructed (empty) mask means "all sensors".
///
/// Masks up to kInlineSensors sensors live entirely inline (no heap), so
/// the serving path can copy one into every batch job without allocating —
/// part of the zero-allocation steady-state invariant (DESIGN.md §10).
class SensorBitmask {
 public:
  /// Sensor slots held without heap storage (4 x 64). Wider masks spill to
  /// a heap vector and still work; they just cost an allocation per copy.
  static constexpr std::size_t kInlineSensors = 256;

  SensorBitmask() = default;
  /// All `sensor_count` sensors alive (or dead, with all_active = false).
  explicit SensorBitmask(std::size_t sensor_count, bool all_active = true);
  /// All alive except the listed slots.
  static SensorBitmask except(std::size_t sensor_count,
                              const std::vector<std::size_t>& dropped);

  /// Sensor slots covered (0 for the default "all sensors" mask).
  std::size_t size() const { return count_; }
  std::size_t active_count() const;
  bool active(std::size_t slot) const;
  void set(std::size_t slot, bool alive);
  bool all_active() const { return active_count() == count_; }
  std::vector<std::size_t> active_slots() const;

  bool operator==(const SensorBitmask& other) const;
  bool operator!=(const SensorBitmask& other) const {
    return !(*this == other);
  }
  /// FNV-1a over the packed words; the cache's unordered_map key hash.
  std::size_t hash() const;

 private:
  static constexpr std::size_t kInlineWords = kInlineSensors / 64;

  std::size_t word_count() const { return (count_ + 63) / 64; }
  const std::uint64_t* words() const {
    return overflow_.empty() ? inline_.data() : overflow_.data();
  }
  std::uint64_t* words() {
    return overflow_.empty() ? inline_.data() : overflow_.data();
  }

  std::size_t count_ = 0;
  std::array<std::uint64_t, kInlineWords> inline_ = {};
  std::vector<std::uint64_t> overflow_;  // used only past kInlineSensors
};

struct SensorBitmaskHash {
  std::size_t operator()(const SensorBitmask& mask) const {
    return mask.hash();
  }
};

struct FactorCacheOptions {
  /// LRU capacity in dropout patterns (the full-sensor pattern bypasses the
  /// cache and costs no slot). Clamped to at least 1.
  std::size_t capacity = 64;
  /// A survivor set is rank deficient when sigma_min/sigma_max of its
  /// sampled basis falls below this (Theorem 1's guard, same convention as
  /// GreedyOptions::rank_tolerance).
  double rank_tolerance = 1e-8;
  /// Masks whose factor conditions worse than this are rejected: past the
  /// ceiling the reconstruction amplifies sensor noise beyond use (Fig. 5)
  /// and the caller should fall back (fewer orders, interpolation, ...).
  /// +inf means no ceiling; below 1 or NaN is rejected at construction.
  double condition_ceiling = 1e8;
  /// Kept only so the frozen serving ledger (perfbench/serve.cpp) still
  /// compiles; always 0: every mask refactors.
  static constexpr std::size_t downdate_limit = 0;
};

/// Monotonic counters; read with FactorCache::stats().
struct FactorCacheStats {
  std::uint64_t hits = 0;       // factor served from the cache
  std::uint64_t misses = 0;     // factor had to be built
  std::uint64_t refactors = 0;  // factors built (QR of the surviving rows)
  std::uint64_t evictions = 0;  // LRU entries dropped at capacity
  std::uint64_t rejections = 0; // masks refused: rank loss / past ceiling
  /// Batches served on the undegraded full-sensor path, which bypasses
  /// the cache entirely — kept out of hits so the hit rate measures the
  /// cache, not the absence of dropout.
  std::uint64_t full_mask_batches = 0;
  /// Kept only so the frozen serving ledger (perfbench/serve.cpp) still
  /// compiles; always 0, never counted or exported.
  static constexpr std::uint64_t downdates = 0;
};

/// One survivor set's solver, immutable once built: solve_batch maps
/// centered compacted readings (frames x active) to coefficients
/// (frames x k). Shared out of the cache by shared_ptr, so eviction never
/// invalidates a factor a worker is mid-solve on.
class MaskedFactor {
 public:
  enum class Method {
    kFullFactor,  // all sensors alive: the model's own factor, borrowed
    kRefactored,  // fresh Householder QR of the surviving rows
    // Kept only so the frozen serving ledger (perfbench/serve.cpp) still
    // compiles; no factor has this method.
    kDowndated,
  };

  const SensorBitmask& mask() const { return mask_; }
  /// Surviving sensor slots, ascending; the reading-compaction map.
  const std::vector<std::size_t>& active_slots() const { return active_; }
  double condition() const { return condition_; }
  Method method() const { return method_; }

  /// Scratch doubles solve_batch_into needs (independent of batch size);
  /// always within ReconstructionModel::workspace_doubles' scratch term.
  std::size_t solve_scratch_doubles() const;

  /// Heap bytes this factor holds beyond the model it serves: the solver
  /// matrices plus the survivor-slot map. The full-sensor variant borrows
  /// the model's factor and reports only its own bookkeeping.
  std::size_t resident_bytes() const;

  /// Coefficients for centered compacted readings (frames x active) into
  /// `alpha` (frames x k), allocation-free given `scratch`.
  void solve_batch_into(numerics::ConstMatrixView centered,
                        numerics::MatrixView alpha,
                        numerics::VectorView scratch) const;
  numerics::Matrix solve_batch(numerics::ConstMatrixView centered) const;

 private:
  friend class FactorCache;
  MaskedFactor(SensorBitmask mask, std::vector<std::size_t> active,
               double condition, numerics::HouseholderQr qr);
  /// Full-sensor variant: borrows (and keeps alive) the model's own
  /// factor instead of recomputing it.
  MaskedFactor(SensorBitmask mask, std::vector<std::size_t> active,
               std::shared_ptr<const ReconstructionModel> model);

  /// The model's factor for the full-sensor variant, qr_ otherwise.
  const numerics::HouseholderQr& solver() const;

  SensorBitmask mask_;
  std::vector<std::size_t> active_;
  double condition_;
  Method method_;
  std::optional<numerics::HouseholderQr> qr_;
  std::shared_ptr<const ReconstructionModel> full_model_;
};

/// Thread-safe mask-keyed LRU of MaskedFactors over one immutable model,
/// plus the degraded-mode reconstruction entry point. Throws
/// std::invalid_argument when a mask cannot be served: fewer survivors
/// than the model order or a rank-deficient survivor set (Theorem 1), or
/// conditioning past the ceiling. The constructor throws it for a NaN
/// rank_tolerance and a condition_ceiling below 1 or NaN.
class FactorCache {
 public:
  explicit FactorCache(std::shared_ptr<const ReconstructionModel> model,
                       FactorCacheOptions options = {});

  const ReconstructionModel& model() const { return *model_; }
  const FactorCacheOptions& options() const { return options_; }

  /// The factor for `mask`, built on first use. An empty mask resolves to
  /// the full-sensor pattern, which is permanently resident (no LRU slot,
  /// never a miss). Masks the cache has already rejected fail again
  /// immediately, without repeating the build.
  std::shared_ptr<const MaskedFactor> factor(const SensorBitmask& mask);

  /// factor() without the serving-side hit accounting: resolves (building
  /// and caching if needed, counting the miss) but a resident factor does
  /// not count as a hit. Producers validating a mask ahead of enqueueing
  /// use this so warm-up lookups cannot inflate the reported hit rate.
  void validate(const SensorBitmask& mask);

  /// Batched degraded-mode reconstruction into `out` (frames x N).
  /// `readings` stays full width (frames x sensor_count) — dead sensors
  /// keep their slot and their values are ignored — so producers never
  /// re-pack frames as sensors come and go. The full-sensor mask takes the
  /// model's undegraded path bit for bit. Allocation-free once `workspace`
  /// is warm and the mask's factor is resident (the engine's steady
  /// state); model_->workspace_doubles(frames) bounds the reservation for
  /// every mask.
  void reconstruct_batch_into(numerics::ConstMatrixView readings,
                              const SensorBitmask& mask,
                              numerics::MatrixView out, Workspace& workspace);
  numerics::Matrix reconstruct_batch(numerics::ConstMatrixView readings,
                                     const SensorBitmask& mask);

  FactorCacheStats stats() const;
  /// Resident dropout patterns (full-sensor pattern excluded).
  std::size_t size() const;
  /// Heap bytes the cache currently holds: every resident factor's solver
  /// storage (per-model memory accounting, surfaced through
  /// ModelStats::factor_cache_bytes).
  std::size_t resident_bytes() const;

 private:
  std::shared_ptr<const MaskedFactor> lookup_or_build(
      const SensorBitmask& mask, bool count_hit);
  std::shared_ptr<const MaskedFactor> build(const SensorBitmask& mask) const;

  const std::shared_ptr<const ReconstructionModel> model_;
  const FactorCacheOptions options_;
  // The full-sensor pattern, built once at construction: permanently
  // resident so it can never evict a genuinely degraded mask.
  std::shared_ptr<const MaskedFactor> full_factor_;

  mutable std::mutex mutex_;
  // Front = most recently used. The map indexes into the list.
  using LruEntry =
      std::pair<SensorBitmask, std::shared_ptr<const MaskedFactor>>;
  std::list<LruEntry> lru_;
  std::unordered_map<SensorBitmask, std::list<LruEntry>::iterator,
                     SensorBitmaskHash>
      index_;
  // Negative cache: masks that failed the rank guard or the ceiling.
  // Lookups of a known-bad mask count a rejection (never a miss) and
  // throw without repeating the build. Cleared wholesale if it ever
  // grows absurd, so adversarial mask streams cannot balloon it.
  std::unordered_set<SensorBitmask, SensorBitmaskHash> rejected_;
  FactorCacheStats stats_;
};

}  // namespace eigenmaps::core

#endif  // EIGENMAPS_CORE_FACTOR_CACHE_H
