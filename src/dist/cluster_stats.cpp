#include "dist/cluster_stats.h"

#include <algorithm>

namespace eigenmaps::dist {

namespace {

void merge_model_stats(runtime::ModelStats& into,
                       const runtime::ModelStats& from) {
  into.frames_completed += from.frames_completed;
  into.batches_completed += from.batches_completed;
  into.cache_hits += from.cache_hits;
  into.cache_misses += from.cache_misses;
  into.cache_full_mask_batches += from.cache_full_mask_batches;
  into.factor_refactors += from.factor_refactors;
  into.steady_state_allocations += from.steady_state_allocations;
  into.hot_swaps_served += from.hot_swaps_served;
  into.adaptation.drift_events += from.adaptation.drift_events;
  into.adaptation.retrains_completed += from.adaptation.retrains_completed;
  into.adaptation.retrains_failed += from.adaptation.retrains_failed;
  into.adaptation.swaps_published += from.adaptation.swaps_published;
  // Memory gauges sum across shards — every worker process holds its own
  // copy of the operator and its own factor cache, so the cluster view is
  // total resident bytes. The backend id and the fp32 error are model
  // properties identical on every shard serving it; max() keeps the real
  // value when some shard has not reported the model yet (defaults: id 0,
  // error 0.0).
  into.expansion_backend = std::max(into.expansion_backend,
                                    from.expansion_backend);
  into.dense_expansion_bytes += from.dense_expansion_bytes;
  into.fp32_expansion_bytes += from.fp32_expansion_bytes;
  into.factor_cache_bytes += from.factor_cache_bytes;
  into.fp32_measured_error =
      std::max(into.fp32_measured_error, from.fp32_measured_error);
}

}  // namespace

void merge_engine_stats(runtime::EngineStats& into,
                        const runtime::EngineStats& from) {
  into.frames_submitted += from.frames_submitted;
  into.frames_completed += from.frames_completed;
  into.batches_completed += from.batches_completed;
  into.total_batch_latency_ns += from.total_batch_latency_ns;
  into.max_batch_latency_ns =
      std::max(into.max_batch_latency_ns, from.max_batch_latency_ns);
  into.latency.merge(from.latency);
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    into.stage_latency[s].merge(from.stage_latency[s]);
  }
  // Events concatenate: each shard's ring snapshot keeps its own (shard,
  // index) identity, so the merged list stays de-duplicable and a reader
  // can re-order by ts_ns (one CLOCK_MONOTONIC across the host).
  into.events.insert(into.events.end(), from.events.begin(),
                     from.events.end());
  for (const auto& [model, stats] : from.models) {
    merge_model_stats(into.models[model], stats);
  }
}

}  // namespace eigenmaps::dist
