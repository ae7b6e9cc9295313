#include "obs/export.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>

#include "dist/cluster_stats.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "runtime/engine.h"

namespace eigenmaps::obs {

namespace {

void line_u64(std::string& out, const char* name, const char* labels,
              std::uint64_t value) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s%s %" PRIu64 "\n", name, labels, value);
  out += buf;
}

void line_f64(std::string& out, const char* name, const char* labels,
              double value) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s%s %.17g\n", name, labels, value);
  out += buf;
}

void type_header(std::string& out, const char* name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

/// Cumulative `le` buckets; only buckets that advance the running count
/// are emitted (plus +Inf == _count), so an idle histogram costs 2 lines.
/// `extra_label` is either "" or a `key="value",` fragment spliced before
/// the le label.
void histogram(std::string& out, const char* name,
               const std::string& extra_label,
               const runtime::LatencyHistogram& h) {
  char buf[256];
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < runtime::LatencyHistogram::kBuckets; ++i) {
    if (h.counts[i] == 0) continue;
    cumulative += h.counts[i];
    // Upper edge of bucket i = lower edge of bucket i + 1.
    std::snprintf(buf, sizeof buf, "%s_bucket{%sle=\"%" PRIu64 "\"} %" PRIu64
                  "\n",
                  name, extra_label.c_str(),
                  runtime::LatencyHistogram::bucket_lower_ns(i + 1),
                  cumulative);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%s_bucket{%sle=\"+Inf\"} %" PRIu64 "\n",
                name, extra_label.c_str(), h.total);
  out += buf;
  if (extra_label.empty()) {
    std::snprintf(buf, sizeof buf, "%s_count %" PRIu64 "\n", name, h.total);
  } else {
    const std::string trimmed =
        extra_label.substr(0, extra_label.size() - 1);  // drop trailing ','
    std::snprintf(buf, sizeof buf, "%s_count{%s} %" PRIu64 "\n", name,
                  trimmed.c_str(), h.total);
  }
  out += buf;
}

void render_engine(std::string& out, const runtime::EngineStats& stats) {
  type_header(out, "eigenmaps_frames_submitted", "counter");
  line_u64(out, "eigenmaps_frames_submitted", "", stats.frames_submitted);
  type_header(out, "eigenmaps_frames_completed", "counter");
  line_u64(out, "eigenmaps_frames_completed", "", stats.frames_completed);
  type_header(out, "eigenmaps_batches_completed", "counter");
  line_u64(out, "eigenmaps_batches_completed", "", stats.batches_completed);
  type_header(out, "eigenmaps_batch_latency_total_ns", "counter");
  line_u64(out, "eigenmaps_batch_latency_total_ns", "",
           stats.total_batch_latency_ns);
  type_header(out, "eigenmaps_batch_latency_max_ns", "gauge");
  line_u64(out, "eigenmaps_batch_latency_max_ns", "",
           stats.max_batch_latency_ns);

  type_header(out, "eigenmaps_batch_latency_ns", "histogram");
  histogram(out, "eigenmaps_batch_latency_ns", "", stats.latency);

  type_header(out, "eigenmaps_stage_latency_ns", "histogram");
  for (std::size_t s = 0; s < kEngineStageCount; ++s) {
    std::string label = "stage=\"";
    label += stage_name(static_cast<Stage>(s));
    label += "\",";
    histogram(out, "eigenmaps_stage_latency_ns", label,
              stats.stage_latency[s]);
  }

  // Structured events, folded to per-type counts (the snapshot is a ring;
  // the counts cover what the ring still holds).
  std::map<EventType, std::uint64_t> by_type;
  for (const Event& e : stats.events) ++by_type[e.type];
  type_header(out, "eigenmaps_events", "gauge");
  for (const auto& [type, count] : by_type) {
    std::string label = "{type=\"";
    label += event_name(type);
    label += "\"}";
    line_u64(out, "eigenmaps_events", label.c_str(), count);
  }

  for (const auto& [id, m] : stats.models) {
    char label[64];
    std::snprintf(label, sizeof label, "{model=\"%" PRIu64 "\"}",
                  static_cast<std::uint64_t>(id));
    line_u64(out, "eigenmaps_model_frames_completed", label,
             m.frames_completed);
    line_u64(out, "eigenmaps_model_batches_completed", label,
             m.batches_completed);
    line_u64(out, "eigenmaps_model_cache_hits", label, m.cache_hits);
    line_u64(out, "eigenmaps_model_cache_misses", label, m.cache_misses);
    line_u64(out, "eigenmaps_model_cache_full_mask_batches", label,
             m.cache_full_mask_batches);
    line_u64(out, "eigenmaps_model_factor_refactors", label,
             m.factor_refactors);
    line_u64(out, "eigenmaps_model_steady_state_allocations", label,
             m.steady_state_allocations);
    line_u64(out, "eigenmaps_model_hot_swaps_served", label,
             m.hot_swaps_served);
    line_u64(out, "eigenmaps_model_drift_events", label,
             m.adaptation.drift_events);
    line_u64(out, "eigenmaps_model_retrains_completed", label,
             m.adaptation.retrains_completed);
    line_u64(out, "eigenmaps_model_retrains_failed", label,
             m.adaptation.retrains_failed);
    line_u64(out, "eigenmaps_model_swaps_published", label,
             m.adaptation.swaps_published);
    line_u64(out, "eigenmaps_model_expansion_backend", label,
             m.expansion_backend);
    line_u64(out, "eigenmaps_model_dense_expansion_bytes", label,
             m.dense_expansion_bytes);
    line_u64(out, "eigenmaps_model_fp32_expansion_bytes", label,
             m.fp32_expansion_bytes);
    line_u64(out, "eigenmaps_model_factor_cache_bytes", label,
             m.factor_cache_bytes);
    line_f64(out, "eigenmaps_model_fp32_measured_error", label,
             m.fp32_measured_error);
  }
}

}  // namespace

std::string render_prometheus(const runtime::EngineStats& stats) {
  std::string out;
  out.reserve(4096);
  render_engine(out, stats);
  return out;
}

std::string render_prometheus(const dist::ClusterStats& stats) {
  std::string out;
  out.reserve(8192);
  const dist::RouterCounters& r = stats.router;
  line_u64(out, "eigenmaps_router_frames_routed", "", r.frames_routed);
  line_u64(out, "eigenmaps_router_results_delivered", "",
           r.results_delivered);
  line_u64(out, "eigenmaps_router_shard_failures", "", r.shard_failures);
  line_u64(out, "eigenmaps_router_streams_rehashed", "", r.streams_rehashed);
  line_u64(out, "eigenmaps_router_frames_replayed", "", r.frames_replayed);
  line_u64(out, "eigenmaps_router_stale_results_dropped", "",
           r.stale_results_dropped);
  line_u64(out, "eigenmaps_router_heartbeats_seen", "", r.heartbeats_seen);
  line_u64(out, "eigenmaps_router_worker_errors", "", r.worker_errors);
  line_u64(out, "eigenmaps_router_workers_respawned", "",
           r.workers_respawned);
  line_u64(out, "eigenmaps_router_respawns_abandoned", "",
           r.respawns_abandoned);
  line_u64(out, "eigenmaps_router_streams_migrated_back", "",
           r.streams_migrated_back);
  type_header(out, "eigenmaps_shard_alive", "gauge");
  for (const dist::ShardSnapshot& shard : stats.shards) {
    char label[48];
    std::snprintf(label, sizeof label, "{shard=\"%u\"}", shard.shard);
    line_u64(out, "eigenmaps_shard_alive", label, shard.alive ? 1 : 0);
  }
  render_engine(out, stats.aggregate);
  return out;
}

}  // namespace eigenmaps::obs
