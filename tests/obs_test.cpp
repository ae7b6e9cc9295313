// The observability layer (DESIGN.md §15): span ring recording/draining,
// ScopedStageSpan batch attribution, the bounded structured event ring,
// histogram merge-by-bucket-addition preserving interpolated quantiles,
// Chrome trace_event JSON export, the Prometheus text exposition, leveled
// logging, and the stats-snapshot consistency fix under concurrent hot
// swaps.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/model.h"
#include "core/reconstructor.h"
#include "dist/cluster_stats.h"
#include "numerics/rng.h"
#include "obs/event_log.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "worker_hold.h"

namespace {

using namespace eigenmaps;

/// Turns tracing on for one test and restores the off state (and drains
/// any leftover spans) on destruction, so the process-global tracer state
/// cannot leak between tests.
struct ScopedTracing {
  ScopedTracing() {
    obs::drain_spans();  // clear other tests' leftovers
    obs::set_tracing(true);
  }
  ~ScopedTracing() {
    obs::set_tracing(false);
    obs::drain_spans();
  }
};

struct Fixture {
  Fixture()
      : basis(12, 12, 8),
        mean(basis.cell_count(), 40.0),
        sensors(core::allocate_greedy(basis, 8, 12)),
        rec(basis, 8, sensors, mean) {}

  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
  core::Reconstructor rec;

  std::shared_ptr<const core::ReconstructionModel> model(
      const core::ExpansionOptions& opts) const {
    return std::make_shared<const core::ReconstructionModel>(basis, 8,
                                                             sensors, mean,
                                                             opts);
  }

  numerics::Matrix frames(std::size_t count, std::uint64_t seed) const {
    numerics::Rng rng(seed);
    numerics::Matrix f(count, sensors.size());
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t s = 0; s < sensors.size(); ++s) {
        f(i, s) = 40.0 + rng.normal();
      }
    }
    return f;
  }
};

// ---- histogram merge ---------------------------------------------------

TEST(ObsHistogram, MergeByBucketAdditionPreservesQuantilesPerStage) {
  // Two shards record disjoint per-stage latency populations; the merged
  // histogram must answer every quantile exactly as one histogram that
  // saw all samples would — merge is bucket addition, and the
  // interpolated readout depends only on bucket counts.
  std::array<runtime::LatencyHistogram, obs::kEngineStageCount> shard_a{};
  std::array<runtime::LatencyHistogram, obs::kEngineStageCount> shard_b{};
  std::array<runtime::LatencyHistogram, obs::kEngineStageCount> reference{};
  numerics::Rng rng(29);
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    // Different scale per stage and per shard (solve slower than deliver,
    // shard B generally slower than shard A).
    for (int i = 0; i < 400; ++i) {
      const std::uint64_t a_ns = static_cast<std::uint64_t>(
          (s + 1) * 20000.0 * (1.0 + 0.5 * std::abs(rng.normal())));
      const std::uint64_t b_ns = static_cast<std::uint64_t>(
          (s + 1) * 90000.0 * (1.0 + 0.5 * std::abs(rng.normal())));
      shard_a[s].record(a_ns);
      shard_b[s].record(b_ns);
      reference[s].record(a_ns);
      reference[s].record(b_ns);
    }
  }
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    runtime::LatencyHistogram merged = shard_a[s];
    merged.merge(shard_b[s]);
    EXPECT_EQ(merged.total, reference[s].total);
    for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile_ns(q), reference[s].quantile_ns(q))
          << "stage " << s << " q " << q;
    }
    // Merging an empty histogram is the identity.
    runtime::LatencyHistogram idle;
    merged.merge(idle);
    EXPECT_EQ(merged.quantile_ns(0.5), reference[s].quantile_ns(0.5));
  }
}

// ---- event ring --------------------------------------------------------

TEST(ObsEvents, RingKeepsNewestCapacityEventsInOrder) {
  constexpr std::uint64_t kMarker = 0xE1E1;
  const std::size_t emitted = obs::kEventRingCapacity + 37;
  for (std::size_t i = 0; i < emitted; ++i) {
    obs::emit_event(obs::EventType::kDriftAlarm, kMarker, i);
  }
  const std::vector<obs::Event> snap = obs::event_snapshot();
  ASSERT_EQ(snap.size(), obs::kEventRingCapacity);
  // We emitted more than a full ring, so every surviving event is ours:
  // the newest kEventRingCapacity, oldest first, indices and timestamps
  // monotonic.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].type, obs::EventType::kDriftAlarm);
    EXPECT_EQ(snap[i].a, kMarker);
    EXPECT_EQ(snap[i].b, emitted - obs::kEventRingCapacity + i);
    if (i > 0) {
      EXPECT_GT(snap[i].index, snap[i - 1].index);
      EXPECT_GE(snap[i].ts_ns, snap[i - 1].ts_ns);
    }
  }
}

// ---- span recording ----------------------------------------------------

TEST(ObsTrace, RecordedSpansDrainOnceWithProcessShardStamp) {
  ScopedTracing tracing;
  const std::uint64_t t0 = obs::monotonic_ns();
  obs::record_span(obs::Stage::kRoute, t0, t0 + 500, 11, 42, 1);
  const std::vector<obs::SpanRecord> spans = obs::drain_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].stage, static_cast<std::uint8_t>(obs::Stage::kRoute));
  EXPECT_EQ(spans[0].stream, 11u);
  EXPECT_EQ(spans[0].seq, 42u);
  EXPECT_EQ(spans[0].frames, 1u);
  EXPECT_EQ(spans[0].start_ns, t0);
  EXPECT_EQ(spans[0].end_ns, t0 + 500);
  EXPECT_EQ(spans[0].shard, obs::process_shard());
  // A drain consumes: the second one is empty.
  EXPECT_TRUE(obs::drain_spans().empty());

  // Recording while tracing is off is a no-op.
  obs::set_tracing(false);
  obs::record_span(obs::Stage::kRoute, t0, t0 + 1, 11, 43, 1);
  EXPECT_TRUE(obs::drain_spans().empty());
}

TEST(ObsTrace, RingWrapDropsOldestLapAndKeepsNewest) {
  ScopedTracing tracing;
  obs::ensure_thread_ring();
  const std::size_t cap = obs::trace_ring_capacity();
  const std::size_t pushed = cap + 100;
  const std::uint64_t t0 = obs::monotonic_ns();
  for (std::size_t i = 0; i < pushed; ++i) {
    obs::record_span(obs::Stage::kSolve, t0, t0 + 1, 0xABCD, i, 1);
  }
  std::vector<obs::SpanRecord> spans = obs::drain_spans();
  std::vector<std::uint64_t> seqs;
  for (const obs::SpanRecord& s : spans) {
    if (s.stream == 0xABCD) seqs.push_back(s.seq);
  }
  // The ring wrapped: exactly one capacity's worth survives, and it is the
  // newest lap (the first 100 seqs were overwritten).
  ASSERT_EQ(seqs.size(), cap);
  EXPECT_EQ(seqs.front(), pushed - cap);
  EXPECT_EQ(seqs.back(), pushed - 1);
}

TEST(ObsTrace, ScopedStageSpanAttributesToBatchContext) {
  ScopedTracing tracing;
  obs::BatchContext ctx;
  ctx.traced = true;
  ctx.stream = 7;
  ctx.first_seq = 100;
  ctx.frames = 8;
  obs::set_batch_context(&ctx);
  {
    obs::ScopedStageSpan span(obs::Stage::kSolve);
    const std::uint64_t until = obs::monotonic_ns() + 1000;
    while (obs::monotonic_ns() < until) {}
  }
  obs::set_batch_context(nullptr);
  EXPECT_GT(ctx.stage_ns[static_cast<std::size_t>(obs::Stage::kSolve)], 0u);
  EXPECT_EQ(ctx.stage_ns[static_cast<std::size_t>(obs::Stage::kExpand)], 0u);

  const std::vector<obs::SpanRecord> spans = obs::drain_spans();
  const auto it = std::find_if(
      spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
        return s.stage == static_cast<std::uint8_t>(obs::Stage::kSolve) &&
               s.stream == 7 && s.seq == 100 && s.frames == 8;
      });
  ASSERT_NE(it, spans.end()) << "traced context must mirror into the ring";

  // Without a context the timer is inert: no accumulation, no span.
  {
    obs::ScopedStageSpan span(obs::Stage::kExpand);
  }
  EXPECT_TRUE(obs::drain_spans().empty());
}

// ---- Chrome trace export -----------------------------------------------

TEST(ObsTrace, ChromeTraceJsonAppendsCompleteEventsWithProcessNames) {
  const std::string path = testing::TempDir() + "/obs_chrome_trace.json";
  std::remove(path.c_str());

  std::vector<obs::SpanRecord> spans(2);
  spans[0].start_ns = 5'000'000;
  spans[0].end_ns = 5'250'000;
  spans[0].stream = 3;
  spans[0].seq = 16;
  spans[0].frames = 8;
  spans[0].shard = obs::kRouterShard;
  spans[0].stage = static_cast<std::uint8_t>(obs::Stage::kRoute);
  spans[1] = spans[0];
  spans[1].shard = 1;
  spans[1].stage = static_cast<std::uint8_t>(obs::Stage::kSolve);
  spans[1].thread = 2;

  obs::append_chrome_trace(path, spans);
  obs::append_chrome_trace(path, spans);  // append mode: second dump grows it

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  // One unterminated JSON array (the composable multi-process form): the
  // opening bracket appears exactly once, at the start.
  ASSERT_GE(text.size(), 2u);
  EXPECT_EQ(text.substr(0, 2), "[\n");
  EXPECT_EQ(text.find('['), text.rfind('['));

  // Complete-event records with the span identity in args.
  EXPECT_NE(text.find("\"name\":\"route\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"solve\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"stream\":3"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":16"), std::string::npos);
  EXPECT_NE(text.find("\"frames\":8"), std::string::npos);
  // Process-name metadata: the router pseudo-pid and the worker shard.
  EXPECT_NE(text.find("\"args\":{\"name\":\"router\"}"), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"name\":\"shard 1\"}"), std::string::npos);
  // ts is microseconds: 5'000'000 ns = 5000.000 us.
  EXPECT_NE(text.find("\"ts\":5000.000"), std::string::npos);
  EXPECT_NE(text.find("\"dur\":250.000"), std::string::npos);
  std::remove(path.c_str());
}

// ---- end-to-end: traced engine run -------------------------------------

/// Sorted-interval union check: the [seq, seq+frames) intervals must tile
/// [0, total) without a gap.
void expect_gap_free(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                     std::uint64_t total, const char* what) {
  ASSERT_FALSE(iv.empty()) << what;
  std::sort(iv.begin(), iv.end());
  std::uint64_t next = 0;
  for (const auto& [begin, end] : iv) {
    EXPECT_LE(begin, next) << what << ": gap before seq " << begin;
    next = std::max(next, end);
  }
  EXPECT_EQ(next, total) << what << ": coverage ends early";
}

TEST(ObsTrace, TracedEngineRunCoversEveryStageGapFree) {
  ScopedTracing tracing;
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kFrames = 32;

  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = kBatch;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  testhook::WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t, numerics::ConstMatrixView) {
        hold.held(stream);
      });
  const numerics::Matrix frames = fx.frames(kFrames, 31);
  hold.engage(engine, frames.row_view(0));
  for (std::uint64_t f = 0; f < kFrames; ++f) {
    for (std::uint64_t stream = 1; stream <= 2; ++stream) {
      engine.push_frame(stream, frames.row_view(f));
    }
  }
  hold.release();
  engine.drain();

  const std::vector<obs::SpanRecord> spans = obs::drain_spans();
  for (std::uint64_t stream = 1; stream <= 2; ++stream) {
    for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const obs::SpanRecord& span : spans) {
        if (span.stream != stream || span.stage != s) continue;
        EXPECT_GE(span.end_ns, span.start_ns);
        iv.emplace_back(span.seq, span.seq + span.frames);
      }
      expect_gap_free(iv, kFrames,
                      obs::stage_name(static_cast<obs::Stage>(s)));
    }
  }
  // Ingest spans are per frame; batch stages are per batch. The hold's own
  // frames are not counted.
  std::size_t ingest = 0, solves = 0;
  for (const obs::SpanRecord& span : spans) {
    if (span.stream >= testhook::WorkerHold::kFirstStream) continue;
    if (span.stage == static_cast<std::uint8_t>(obs::Stage::kIngest)) {
      EXPECT_EQ(span.frames, 1u);
      ++ingest;
    }
    if (span.stage == static_cast<std::uint8_t>(obs::Stage::kSolve)) ++solves;
  }
  EXPECT_EQ(ingest, 2 * kFrames);
  EXPECT_EQ(solves, 2 * kFrames / kBatch);

  // The per-stage histograms saw the same run (ingest included: the traced
  // push path timestamps batch assembly).
  const runtime::EngineStats stats = engine.stats();
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    EXPECT_GT(stats.stage_latency[s].total, 0u)
        << obs::stage_name(static_cast<obs::Stage>(s));
  }
}

// ---- Prometheus exposition ---------------------------------------------

TEST(ObsExport, HistogramBucketsAreCumulativeAndEndAtInf) {
  runtime::EngineStats stats;
  stats.frames_submitted = 16;
  stats.frames_completed = 16;
  stats.batches_completed = 2;
  for (int i = 0; i < 3; ++i) stats.latency.record(2000);
  for (int i = 0; i < 2; ++i) stats.latency.record(50000);
  const std::string text = obs::render_prometheus(stats);

  EXPECT_NE(text.find("eigenmaps_frames_submitted 16\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE eigenmaps_batch_latency_ns histogram\n"),
            std::string::npos);
  char line[128];
  const std::uint64_t edge_low = runtime::LatencyHistogram::bucket_lower_ns(
      runtime::LatencyHistogram::bucket_for(2000) + 1);
  std::snprintf(line, sizeof line,
                "eigenmaps_batch_latency_ns_bucket{le=\"%llu\"} 3\n",
                static_cast<unsigned long long>(edge_low));
  EXPECT_NE(text.find(line), std::string::npos) << text;
  const std::uint64_t edge_high = runtime::LatencyHistogram::bucket_lower_ns(
      runtime::LatencyHistogram::bucket_for(50000) + 1);
  std::snprintf(line, sizeof line,
                "eigenmaps_batch_latency_ns_bucket{le=\"%llu\"} 5\n",
                static_cast<unsigned long long>(edge_high));
  EXPECT_NE(text.find(line), std::string::npos) << text;
  EXPECT_NE(text.find("eigenmaps_batch_latency_ns_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_batch_latency_ns_count 5\n"),
            std::string::npos);
}

TEST(ObsExport, EngineRenderCarriesStageLabelsModelsAndEvents) {
  const Fixture fx;
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 4;
  // Asserts batch boundaries: with the worker held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  testhook::WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t, numerics::ConstMatrixView) {
        hold.held(stream);
      });
  const numerics::Matrix frames = fx.frames(8, 33);
  hold.engage(engine, frames.row_view(0));  // one frame, one batch
  for (std::size_t f = 0; f < 8; ++f) engine.push_frame(1, frames.row_view(f));
  hold.release();
  engine.drain();
  obs::emit_event(obs::EventType::kHotSwapPublished, 0, 1);

  // 8 frames in 2 batches, plus the hold's 1 frame in 1 batch.
  const std::string text = obs::render_prometheus(engine.stats());
  EXPECT_NE(text.find("eigenmaps_frames_completed 9\n"), std::string::npos);
  // Per-stage histograms, labelled, one sample per batch for every stage:
  // ingest (batch assembly) records untraced too.
  EXPECT_NE(
      text.find("eigenmaps_stage_latency_ns_count{stage=\"ingest\"} 3\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("eigenmaps_stage_latency_ns_bucket{stage=\"solve\",le="),
            std::string::npos);
  EXPECT_NE(text.find(
                "eigenmaps_stage_latency_ns_bucket{stage=\"deliver\",le="),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_stage_latency_ns_count{stage=\"expand\"}"),
            std::string::npos);
  // Per-model lines under the default model id.
  EXPECT_NE(text.find("eigenmaps_model_frames_completed{model=\"0\"} 9\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_model_expansion_backend{model=\"0\"}"),
            std::string::npos);
  // The structured event ring folds to per-type counts.
  EXPECT_NE(text.find("eigenmaps_events{type=\"hot_swap_published\"}"),
            std::string::npos);
}

TEST(ObsExport, ClusterRenderCarriesRouterCountersAndShardGauges) {
  dist::ClusterStats stats;
  stats.router.frames_routed = 7;
  stats.router.results_delivered = 7;
  stats.router.shard_failures = 1;
  stats.shards.resize(2);
  stats.shards[0].shard = 0;
  stats.shards[0].alive = true;
  stats.shards[1].shard = 1;
  stats.shards[1].alive = false;
  stats.aggregate.frames_completed = 7;

  const std::string text = obs::render_prometheus(stats);
  EXPECT_NE(text.find("eigenmaps_router_frames_routed 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_router_shard_failures 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_shard_alive{shard=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_shard_alive{shard=\"1\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("eigenmaps_frames_completed 7\n"), std::string::npos);
}

// ---- leveled logging ---------------------------------------------------

TEST(ObsLog, WritesOneStructuredLinePerEnabledMessage) {
  // The default threshold is info (EIGENMAPS_LOG_LEVEL is not set in the
  // test environment), so error passes and debug is suppressed.
  ASSERT_TRUE(obs::log_enabled(obs::LogLevel::kError));
  testing::internal::CaptureStderr();
  obs::log(obs::LogLevel::kError, "obstest", "value=%d", 42);
  const std::string line = testing::internal::GetCapturedStderr();
  EXPECT_NE(line.find("eigenmaps level=error"), std::string::npos) << line;
  EXPECT_NE(line.find("comp=obstest"), std::string::npos);
  EXPECT_NE(line.find("msg=\"value=42\""), std::string::npos);
  EXPECT_NE(line.find("ts_ns="), std::string::npos);
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);

  if (!obs::log_enabled(obs::LogLevel::kDebug)) {
    testing::internal::CaptureStderr();
    obs::log(obs::LogLevel::kDebug, "obstest", "suppressed");
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
  }
}

// ---- stats-snapshot consistency under hot swap -------------------------

TEST(ObsStats, SwapUnderStatsKeepsBackendGaugesMutuallyConsistent) {
  // Regression for the snapshot-skew bug: stats() used to read the
  // counter block and the per-model gauge overlay from different moments,
  // so a concurrent hot swap could yield a snapshot claiming the dense
  // backend with the fp32 model's byte gauges. Hammer stats() while a
  // writer flips the model between backends and check every snapshot is
  // internally consistent.
  const Fixture fx;
  const auto dense = fx.model({});
  core::ExpansionOptions fp32_opts;
  fp32_opts.backend = core::ExpansionBackend::kFp32;
  const auto fp32 = fx.model(fp32_opts);

  runtime::ModelRegistry registry;
  registry.register_model(1, dense);
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 4;
  runtime::ReconstructionEngine engine(
      registry, options,
      [](std::uint64_t, std::uint64_t, numerics::ConstMatrixView) {});
  const numerics::Matrix frames = fx.frames(4, 35);
  for (std::size_t f = 0; f < 4; ++f) {
    engine.push_frame(1, frames.row_view(f), 1);
  }
  engine.drain();  // the stats map now has model 1's node

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool to_fp32 = true;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.register_model(1, to_fp32 ? fp32 : dense);
      to_fp32 = !to_fp32;
    }
  });

  for (int i = 0; i < 400; ++i) {
    const runtime::EngineStats stats = engine.stats();
    const runtime::ModelStats& m = stats.models.at(1);
    if (m.expansion_backend ==
        static_cast<std::uint32_t>(core::ExpansionBackend::kDense64)) {
      EXPECT_EQ(m.fp32_expansion_bytes, 0u) << "torn snapshot at " << i;
      EXPECT_EQ(m.fp32_measured_error, 0.0);
    } else {
      ASSERT_EQ(m.expansion_backend,
                static_cast<std::uint32_t>(core::ExpansionBackend::kFp32));
      EXPECT_EQ(m.fp32_expansion_bytes, fp32->expansion_bytes())
          << "torn snapshot at " << i;
      EXPECT_EQ(m.fp32_measured_error, fp32->fp32_measured_error());
    }
    EXPECT_EQ(m.dense_expansion_bytes, dense->dense_expansion_bytes());
  }
  stop.store(true, std::memory_order_relaxed);
  swapper.join();
}

}  // namespace
