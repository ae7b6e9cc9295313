// Multi-model serving: model id -> versioned immutable model + its
// per-dropout-pattern factor cache, hot-swappable without draining.
#ifndef EIGENMAPS_RUNTIME_REGISTRY_H
#define EIGENMAPS_RUNTIME_REGISTRY_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/factor_cache.h"
#include "core/model.h"

namespace eigenmaps::runtime {

/// Caller-chosen model identifier (one per chip / floorplan / basis).
using ModelId = std::uint64_t;

/// One registered (model, version): the immutable ReconstructionModel plus
/// the FactorCache serving its dropout patterns. Handed out by shared_ptr,
/// so a hot-swap never invalidates an entry an in-flight job still holds.
struct RegisteredModel {
  ModelId id = 0;
  std::uint64_t version = 0;  // 1-based, monotonic per id
  std::shared_ptr<const core::ReconstructionModel> model;
  std::shared_ptr<core::FactorCache> cache;  // thread-safe
};

/// Thread-safe model table. register_model(id, model) on a live id is a
/// hot swap: resolve() hands out the new version from that point on while
/// jobs built against the old version finish on their own shared_ptr —
/// no drain, no lock held during a solve.
class ModelRegistry {
 public:
  /// `cache_options` seeds every registered model's FactorCache.
  explicit ModelRegistry(core::FactorCacheOptions cache_options = {})
      : cache_options_(cache_options) {}

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Called after a registration or hot-swap commits, with the entry just
  /// published. Runs on the registering thread, outside the table lock, so
  /// it may resolve() freely — but must not subscribe/unsubscribe (the
  /// listener lock is held) and should stay cheap: every swap waits on it.
  using SwapListener = std::function<void(const RegisteredModel&)>;

  /// Registers `listener` for every future registration/hot-swap; returns
  /// the token to unsubscribe with.
  std::uint64_t subscribe(SwapListener listener);

  /// Removes the listener. Blocks until any in-flight callback to it has
  /// returned, and guarantees it will never be called again — the
  /// subscriber may be destroyed the instant this returns. This quiescence
  /// guarantee is what lets a ReconstructionEngine die while another
  /// thread keeps hot-swapping (see ~ReconstructionEngine).
  void unsubscribe(std::uint64_t token);

  /// Registers (or hot-swaps) `model` under `id`; returns the new version.
  /// Throws std::invalid_argument when an fp32-backend model's measured
  /// expansion error exceeds its fp32_error_budget — an over-budget model
  /// never becomes resolvable.
  std::uint64_t register_model(
      ModelId id, std::shared_ptr<const core::ReconstructionModel> model);

  /// Drops `id` from the table (in-flight jobs keep their entry); returns
  /// whether anything was registered.
  bool unregister_model(ModelId id);

  /// The current entry for `id`, or nullptr when unknown.
  std::shared_ptr<const RegisteredModel> resolve(ModelId id) const;

  std::vector<ModelId> ids() const;
  std::size_t size() const;

 private:
  const core::FactorCacheOptions cache_options_;
  mutable std::mutex mutex_;
  std::map<ModelId, std::shared_ptr<const RegisteredModel>> models_;
  std::map<ModelId, std::uint64_t> versions_;

  // Listener table, guarded separately from the model table: callbacks run
  // under listeners_mutex_ (never under mutex_), so resolve() from inside a
  // callback cannot deadlock, and unsubscribe() doubles as the quiescence
  // barrier.
  mutable std::mutex listeners_mutex_;
  std::map<std::uint64_t, SwapListener> listeners_;
  std::uint64_t next_listener_token_ = 1;
};

}  // namespace eigenmaps::runtime

#endif  // EIGENMAPS_RUNTIME_REGISTRY_H
