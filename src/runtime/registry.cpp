#include "runtime/registry.h"

#include <stdexcept>
#include <string>

#include "obs/event_log.h"

namespace eigenmaps::runtime {

std::uint64_t ModelRegistry::register_model(
    ModelId id, std::shared_ptr<const core::ReconstructionModel> model) {
  if (!model) {
    throw std::invalid_argument("ModelRegistry::register_model: null model");
  }
  // fp32 publish gate: the expansion error was measured against the fp64
  // operator at construction; a model over its budget never reaches the
  // serving table (DESIGN.md §14). The online controller's retrain path
  // funnels through here too, so a drifting basis that degrades the fp32
  // representation fails the swap instead of silently serving it.
  if (model->expansion_backend() == core::ExpansionBackend::kFp32 &&
      model->fp32_measured_error() >
          model->expansion_options().fp32_error_budget) {
    obs::emit_event(obs::EventType::kModelRejected, id);
    throw std::invalid_argument(
        "ModelRegistry::register_model: model " + std::to_string(id) +
        " fp32 expansion error " +
        std::to_string(model->fp32_measured_error()) +
        " exceeds fp32_error_budget " +
        std::to_string(model->expansion_options().fp32_error_budget));
  }
  // Build the entry (and its cache's full-R seed) outside the lock.
  auto entry = std::make_shared<RegisteredModel>();
  entry->id = id;
  entry->model = model;
  entry->cache = std::make_shared<core::FactorCache>(std::move(model),
                                                     cache_options_);
  std::shared_ptr<const RegisteredModel> published;
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry->version = ++versions_[id];
    version = entry->version;
    published = entry;
    models_[id] = std::move(entry);
  }
  obs::emit_event(obs::EventType::kHotSwapPublished, id, version);
  // Notify outside the table lock: listeners may resolve(). The listener
  // lock is held across the calls so unsubscribe() can guarantee
  // quiescence.
  {
    std::lock_guard<std::mutex> lock(listeners_mutex_);
    for (const auto& [token, listener] : listeners_) listener(*published);
  }
  return version;
}

std::uint64_t ModelRegistry::subscribe(SwapListener listener) {
  std::lock_guard<std::mutex> lock(listeners_mutex_);
  const std::uint64_t token = next_listener_token_++;
  listeners_[token] = std::move(listener);
  return token;
}

void ModelRegistry::unsubscribe(std::uint64_t token) {
  // Taking the lock waits out any callback in flight; erasing under it
  // prevents any future call. Both halves of the quiescence contract.
  std::lock_guard<std::mutex> lock(listeners_mutex_);
  listeners_.erase(token);
}

bool ModelRegistry::unregister_model(ModelId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.erase(id) > 0;
}

std::shared_ptr<const RegisteredModel> ModelRegistry::resolve(
    ModelId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(id);
  return it == models_.end() ? nullptr : it->second;
}

std::vector<ModelId> ModelRegistry::ids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ModelId> out;
  out.reserve(models_.size());
  for (const auto& entry : models_) out.push_back(entry.first);
  return out;
}

std::size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

}  // namespace eigenmaps::runtime
