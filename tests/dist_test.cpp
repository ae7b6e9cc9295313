// Distributed sharded serving: wire-protocol round trips, the bounded
// replay log, and end-to-end router/worker runs — including the chaos
// case: SIGKILL a shard mid-stream and require byte-identical,
// exactly-once, in-order delivery against a single-process golden run
// (DESIGN.md §12).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/reconstructor.h"
#include "dist/protocol.h"
#include "dist/replay_log.h"
#include "dist/result_arena.h"
#include "dist/router.h"
#include "numerics/rng.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "runtime/engine.h"

namespace {

using namespace eigenmaps;

#ifndef EIGENMAPS_WORKER_BIN
#define EIGENMAPS_WORKER_BIN ""
#endif

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

  numerics::Vector frame(std::uint64_t stream, std::uint64_t seq) const {
    numerics::Rng rng(stream * 7919 + seq);
    numerics::Vector f(sensors.size());
    for (double& v : f) v = 40.0 + rng.normal();
    return f;
  }
};

// ---- protocol ------------------------------------------------------------

TEST(DistProtocol, HeaderRoundTripRejectsCorruption) {
  dist::WireHeader header;
  header.type = static_cast<std::uint16_t>(dist::MessageType::kResult);
  header.payload_bytes = 1234;
  std::uint8_t bytes[dist::WireHeader::kBytes];
  dist::encode_header(header, bytes);
  const dist::WireHeader back = dist::decode_header(bytes);
  EXPECT_EQ(back.type, header.type);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);

  std::uint8_t bad_magic[dist::WireHeader::kBytes];
  std::memcpy(bad_magic, bytes, sizeof(bytes));
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(dist::decode_header(bad_magic), dist::ProtocolError);

  std::uint8_t bad_version[dist::WireHeader::kBytes];
  dist::WireHeader skew = header;
  skew.version = dist::kProtocolVersion + 1;
  dist::encode_header(skew, bad_version);
  EXPECT_THROW(dist::decode_header(bad_version), dist::ProtocolError);

  dist::WireHeader absurd = header;
  absurd.payload_bytes = dist::kMaxPayloadBytes + 1;
  std::uint8_t bad_size[dist::WireHeader::kBytes];
  dist::encode_header(absurd, bad_size);
  EXPECT_THROW(dist::decode_header(bad_size), dist::ProtocolError);
}

TEST(DistProtocol, SubmitFrameRoundTripAndTruncationThrows) {
  const Fixture fx;
  const numerics::Vector readings = fx.frame(3, 17);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {1, 5});
  std::vector<std::uint8_t> payload;
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload);

  dist::SubmitFrameMsg msg;
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_EQ(msg.stream, 9u);
  EXPECT_EQ(msg.seq, 41u);
  EXPECT_EQ(msg.model, 7u);
  EXPECT_FALSE(msg.rebase);  // default flag round-trips as false
  EXPECT_EQ(msg.mask, mask);
  ASSERT_EQ(msg.readings.size(), readings.size());
  EXPECT_EQ(std::memcmp(msg.readings.data(), readings.data(),
                        readings.size() * sizeof(double)),
            0);

  // Truncation anywhere must throw, never misparse.
  for (std::size_t cut : {std::size_t{0}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(dist::decode_submit_frame(payload.data(), cut, msg),
                 dist::ProtocolError);
  }
  // Trailing garbage is equally loud.
  payload.push_back(0);
  EXPECT_THROW(dist::decode_submit_frame(payload.data(), payload.size(), msg),
               dist::ProtocolError);

  // The rebase anchor (set on the first frame after a stream reassignment)
  // survives the round trip.
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload,
      /*rebase=*/true);
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_TRUE(msg.rebase);
  EXPECT_FALSE(msg.traced);  // v4 trace context defaults off
  EXPECT_EQ(msg.origin_ns, 0u);

  // The v4 trace context (traced flag + router-side origin timestamp, the
  // cross-process stitch) survives the round trip.
  dist::encode_submit_frame(
      9, 41, 7, mask,
      numerics::ConstVectorView(readings.data(), readings.size()), payload,
      /*rebase=*/false, /*traced=*/true, /*origin_ns=*/987654321012345ull);
  dist::decode_submit_frame(payload.data(), payload.size(), msg);
  EXPECT_TRUE(msg.traced);
  EXPECT_EQ(msg.origin_ns, 987654321012345ull);
}

TEST(DistProtocol, OverflowingLengthFieldsThrowInsteadOfAllocating) {
  // A corrupt count near 2^61 makes count * sizeof(double) wrap to a tiny
  // number; the reader must reject it as a ProtocolError (contained as a
  // shard failure), never pass the bounds check and blow up in resize.
  auto put_u64 = [](std::uint8_t* out, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  std::uint8_t wire[16] = {};

  for (const std::uint64_t count :
       {std::uint64_t{1} << 61, (std::uint64_t{1} << 61) + 1,
        ~std::uint64_t{0}, std::uint64_t{3}}) {
    put_u64(wire, count);  // claims `count` doubles, provides 8 bytes
    dist::WireReader reader(wire, sizeof(wire));
    numerics::Vector out;
    EXPECT_THROW(reader.doubles(out), dist::ProtocolError) << count;
  }

  // Same wrap in the bitmask width: (width + 7) / 8 overflows to 0 bytes.
  for (const std::uint64_t width :
       {~std::uint64_t{0}, ~std::uint64_t{0} - 6, std::uint64_t{1} << 61,
        std::uint64_t{65}}) {
    put_u64(wire, width);  // claims `width` mask bits, provides 8 bytes
    dist::WireReader reader(wire, sizeof(wire));
    EXPECT_THROW(reader.bitmask(), dist::ProtocolError) << width;
  }
}

TEST(DistProtocol, ResultDescriptorDecodeIsTotal) {
  // A v5 result is a descriptor into the shard's result arena. Every
  // payload either decodes to rows the arena really holds or throws
  // ProtocolError (the shard-failure path) — never a read past the
  // mapping's end or a SIGBUS past the file's.
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);
  const numerics::Matrix maps(3, 5, 42.0);  // 120 bytes: 128 with padding
  const std::optional<std::uint64_t> offset = ring.place(maps);
  ASSERT_TRUE(offset.has_value());
  const std::uint64_t ring_bytes = dist::ResultRing::kRingSlots * 128;

  std::vector<std::uint8_t> payload;
  dist::encode_result(9, 41, maps, payload, *offset);
  EXPECT_EQ(payload.size() + dist::WireHeader::kBytes, 56u);
  const dist::ResultMsg msg =
      dist::decode_result(payload.data(), payload.size());
  EXPECT_EQ(msg.stream, 9u);
  EXPECT_EQ(msg.first_seq, 41u);
  EXPECT_EQ(msg.rows, 3u);
  EXPECT_EQ(msg.cols, 5u);
  EXPECT_EQ(msg.offset, *offset);
  const numerics::ConstMatrixView view = arena->view(msg);
  ASSERT_EQ(view.rows(), 3u);
  ASSERT_EQ(view.cols(), 5u);
  EXPECT_EQ(view(2, 4), 42.0);

  for (std::size_t cut : {std::size_t{0}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(dist::decode_result(payload.data(), cut),
                 dist::ProtocolError);
  }
  payload.push_back(0);
  EXPECT_THROW(dist::decode_result(payload.data(), payload.size()),
               dist::ProtocolError);

  const auto rejected = [&](std::uint64_t off, std::uint64_t rows,
                            std::uint64_t cols) {
    dist::ResultMsg bad = msg;
    bad.offset = off;
    bad.rows = rows;
    bad.cols = cols;
    EXPECT_THROW(arena->view(bad), dist::ProtocolError)
        << "offset " << off << " rows " << rows << " cols " << cols;
  };
  rejected(ring_bytes + 64, 1, 1);         // offset past the arena
  rejected(ring_bytes - 64, 3, 5);         // rows past the arena
  rejected(~std::uint64_t{0} - 63, 1, 1);  // offset + size wraps
  rejected(8, 3, 5);                       // misaligned offset
  rejected(0, 0, 5);                       // zero rows
  rejected(0, 3, 0);                       // zero columns
  // rows * cols * 8 wraps to a small number for these; the check must
  // divide, never multiply (as for the other length fields above).
  rejected(0, std::uint64_t{1} << 61, 1);
  rejected(0, (std::uint64_t{1} << 61) + 1, 1);
  rejected(0, std::uint64_t{1} << 32, std::uint64_t{1} << 29);
  rejected(0, ~std::uint64_t{0}, ~std::uint64_t{0});
  // The valid descriptor still resolves after all that.
  EXPECT_EQ(arena->view(msg)(0, 0), 42.0);
}

TEST(DistProtocol, RegisterModelRoundTripRebuildsBitIdenticalModel) {
  const Fixture fx;
  std::vector<std::uint8_t> payload;
  dist::encode_register_model(5, *fx.rec.model(), payload);
  const dist::RegisterModelMsg msg =
      dist::decode_register_model(payload.data(), payload.size());
  EXPECT_EQ(msg.model, 5u);
  const auto rebuilt = dist::build_model(msg);

  // The worker-side rebuild recomputes the QR from the same bits, so the
  // reconstruction must be byte-identical to the original model's.
  numerics::Matrix frames(6, fx.sensors.size());
  for (std::size_t f = 0; f < 6; ++f) frames.set_row(f, fx.frame(1, f));
  const numerics::Matrix expect = fx.rec.model()->reconstruct_batch(frames);
  const numerics::Matrix got = rebuilt->reconstruct_batch(frames);
  ASSERT_EQ(got.rows(), expect.rows());
  for (std::size_t f = 0; f < got.rows(); ++f) {
    EXPECT_EQ(std::memcmp(got.row_data(f), expect.row_data(f),
                          got.cols() * sizeof(double)),
              0);
  }
}

TEST(DistProtocol, EngineStatsRoundTrip) {
  runtime::EngineStats stats;
  stats.frames_submitted = 100;
  stats.frames_completed = 96;
  stats.batches_completed = 3;
  stats.total_batch_latency_ns = 123456;
  stats.max_batch_latency_ns = 65432;
  stats.latency.record(2000);
  stats.latency.record(9000000);
  runtime::ModelStats& model = stats.models[4];
  model.frames_completed = 96;
  model.cache_hits = 7;
  model.cache_misses = 2;
  model.hot_swaps_served = 1;
  model.adaptation.drift_events = 5;
  // v4 payload: per-stage histograms and the structured event snapshot.
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    stats.stage_latency[s].record(1000 * (s + 1));
    stats.stage_latency[s].record(900000 * (s + 1));
  }
  obs::Event event;
  event.index = 12;
  event.ts_ns = 777;
  event.a = 3;
  event.b = 2;
  event.shard = 1;
  event.type = obs::EventType::kHotSwapPublished;
  stats.events.push_back(event);

  std::vector<std::uint8_t> payload;
  dist::encode_engine_stats(stats, payload);
  const runtime::EngineStats back =
      dist::decode_engine_stats(payload.data(), payload.size());
  EXPECT_EQ(back.frames_submitted, stats.frames_submitted);
  EXPECT_EQ(back.frames_completed, stats.frames_completed);
  EXPECT_EQ(back.max_batch_latency_ns, stats.max_batch_latency_ns);
  EXPECT_EQ(back.latency.total, stats.latency.total);
  EXPECT_EQ(back.latency.counts, stats.latency.counts);
  for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
    EXPECT_EQ(back.stage_latency[s].total, 2u);
    EXPECT_EQ(back.stage_latency[s].counts, stats.stage_latency[s].counts);
  }
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].index, 12u);
  EXPECT_EQ(back.events[0].ts_ns, 777u);
  EXPECT_EQ(back.events[0].a, 3u);
  EXPECT_EQ(back.events[0].b, 2u);
  EXPECT_EQ(back.events[0].shard, 1u);
  EXPECT_EQ(back.events[0].type, obs::EventType::kHotSwapPublished);
  ASSERT_EQ(back.models.count(4), 1u);
  EXPECT_EQ(back.models.at(4).cache_hits, 7u);
  EXPECT_EQ(back.models.at(4).adaptation.drift_events, 5u);
}

TEST(DistProtocol, TraceReplyRoundTripAndTruncationThrows) {
  std::vector<obs::SpanRecord> spans(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    spans[i].start_ns = 1000 + i;
    spans[i].end_ns = 2000 + i;
    spans[i].stream = 5 + i;
    spans[i].seq = 40 + i;
    spans[i].frames = 8;
    spans[i].shard = static_cast<std::uint16_t>(i);
    spans[i].stage = static_cast<std::uint8_t>(obs::Stage::kSolve);
    spans[i].thread = static_cast<std::uint8_t>(i);
  }
  std::vector<std::uint8_t> payload;
  dist::encode_trace_reply(spans, payload);
  const std::vector<obs::SpanRecord> back =
      dist::decode_trace_reply(payload.data(), payload.size());
  ASSERT_EQ(back.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(back[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(back[i].end_ns, spans[i].end_ns);
    EXPECT_EQ(back[i].stream, spans[i].stream);
    EXPECT_EQ(back[i].seq, spans[i].seq);
    EXPECT_EQ(back[i].frames, spans[i].frames);
    EXPECT_EQ(back[i].shard, spans[i].shard);
    EXPECT_EQ(back[i].stage, spans[i].stage);
    EXPECT_EQ(back[i].thread, spans[i].thread);
  }

  // Truncation and a count larger than the payload could hold both throw.
  for (std::size_t cut : {std::size_t{4}, payload.size() / 2,
                          payload.size() - 1}) {
    EXPECT_THROW(dist::decode_trace_reply(payload.data(), cut),
                 dist::ProtocolError);
  }
  std::vector<std::uint8_t> lying(payload);
  lying[0] = 0xff;  // count claims 255+ spans, payload holds 3
  EXPECT_THROW(dist::decode_trace_reply(lying.data(), lying.size()),
               dist::ProtocolError);
}

// ---- replay log ----------------------------------------------------------

TEST(DistReplayLog, AppendAckPendingOrder) {
  dist::ReplayLog log(16);
  const numerics::Vector readings{1.0, 2.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    ASSERT_TRUE(log.acquire_slot());
    log.append(7, seq, 1, core::SensorBitmask(), view);
  }
  ASSERT_TRUE(log.acquire_slot());
  log.append(8, 0, 1, core::SensorBitmask(), view);
  EXPECT_EQ(log.size(), 5u);

  log.ack_before(7, 2);  // frames 0,1 acked
  EXPECT_EQ(log.size(), 3u);
  const auto pending = log.pending(7);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].seq, 2u);
  EXPECT_EQ(pending[1].seq, 3u);
  EXPECT_EQ(pending[0].readings, readings);

  log.ack_before(7, 100);
  EXPECT_EQ(log.pending(7).size(), 0u);
  EXPECT_EQ(log.pending_streams(), std::vector<std::uint64_t>{8});
}

TEST(DistReplayLog, ContainsDistinguishesInFlightFromAcked) {
  dist::ReplayLog log(8);
  const numerics::Vector readings{1.0, 2.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  for (std::uint64_t seq = 0; seq < 3; ++seq) {
    ASSERT_TRUE(log.acquire_slot());
    ASSERT_TRUE(log.append(5, seq, 1, core::SensorBitmask(), view));
  }
  EXPECT_TRUE(log.contains(5, 0));
  EXPECT_TRUE(log.contains(5, 2));
  EXPECT_FALSE(log.contains(5, 3));   // never appended
  EXPECT_FALSE(log.contains(6, 0));   // unknown stream

  log.ack_before(5, 2);
  EXPECT_FALSE(log.contains(5, 0));   // acked: no longer in flight
  EXPECT_FALSE(log.contains(5, 1));
  EXPECT_TRUE(log.contains(5, 2));
}

TEST(DistReplayLog, AppendAfterFailReturnsFalseAndLogsNothing) {
  dist::ReplayLog log(4);
  const numerics::Vector readings{1.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  ASSERT_TRUE(log.acquire_slot());
  ASSERT_TRUE(log.append(1, 0, 0, core::SensorBitmask(), view));

  // Reserve a slot, then poison the log before the append lands — exactly
  // the shape of a producer racing a total-cluster failure. The append
  // must report the failure instead of logging a frame no one will serve.
  ASSERT_TRUE(log.acquire_slot());
  log.fail();
  EXPECT_FALSE(log.append(1, 1, 0, core::SensorBitmask(), view));
  EXPECT_EQ(log.size(), 1u);  // the poisoned append logged nothing
  EXPECT_FALSE(log.acquire_slot());  // and the log stays poisoned
}

TEST(DistReplayLog, BoundBlocksProducersUntilAckOrFail) {
  dist::ReplayLog log(2);
  const numerics::Vector readings{1.0};
  const numerics::ConstVectorView view(readings.data(), readings.size());
  ASSERT_TRUE(log.acquire_slot());
  log.append(1, 0, 0, core::SensorBitmask(), view);
  ASSERT_TRUE(log.acquire_slot());
  log.append(1, 1, 0, core::SensorBitmask(), view);

  std::atomic<int> state{0};
  std::thread producer([&] {
    state = 1;
    const bool ok = log.acquire_slot();  // blocks: log is full
    state = ok ? 2 : 3;
    if (ok) log.append(1, 2, 0, core::SensorBitmask(), view);
  });
  while (state < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(state, 1);  // still blocked at the bound

  log.ack_before(1, 1);  // frees one slot
  producer.join();
  EXPECT_EQ(state, 2);
  EXPECT_EQ(log.size(), 2u);

  std::thread blocked([&] { EXPECT_FALSE(log.acquire_slot()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  log.fail();
  blocked.join();
  EXPECT_TRUE(log.wait_idle() == false || log.size() == 0);
}

// ---- end-to-end router ---------------------------------------------------

/// Collects delivered rows keyed by (stream, seq), asserting in-order,
/// exactly-once delivery as rows arrive.
struct Collector {
  std::mutex mutex;
  std::map<std::uint64_t, std::uint64_t> next_seq;  // per-stream expectation
  std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> rows;
  bool order_violated = false;

  dist::ShardRouter::ResultCallback callback() {
    return [this](std::uint64_t stream, std::uint64_t first_seq,
                  numerics::ConstMatrixView maps) {
      std::lock_guard<std::mutex> lock(mutex);
      auto& expected = next_seq[stream];
      if (first_seq != expected) order_violated = true;
      for (std::size_t r = 0; r < maps.rows(); ++r) {
        numerics::Vector row(maps.row_data(r), maps.row_data(r) + maps.cols());
        const bool fresh =
            rows[stream].emplace(first_seq + r, std::move(row)).second;
        if (!fresh) order_violated = true;  // duplicate delivery
      }
      expected = first_seq + maps.rows();
    };
  }
};

/// Single-process golden: the same frames through one in-process engine
/// with the same batch size; per-stream results keyed by seq.
std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> golden_run(
    const Fixture& fx, std::size_t batch,
    const std::vector<std::pair<std::uint64_t, core::SensorBitmask>>& streams,
    std::size_t frames_per_stream) {
  std::map<std::uint64_t, std::map<std::uint64_t, numerics::Vector>> out;
  std::mutex mutex;
  runtime::ModelRegistry registry;
  registry.register_model(1, fx.rec.model());
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = batch;
  runtime::ReconstructionEngine engine(
      registry, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t r = 0; r < maps.rows(); ++r) {
          out[stream][first_seq + r] = numerics::Vector(
              maps.row_data(r), maps.row_data(r) + maps.cols());
        }
      });
  for (std::size_t f = 0; f < frames_per_stream; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      engine.push_frame(stream,
                        numerics::ConstVectorView(frame.data(), frame.size()),
                        1, mask);
    }
  }
  engine.drain();
  return out;
}

dist::RouterOptions test_router_options(std::size_t shards,
                                        std::size_t batch) {
  dist::RouterOptions options;
  options.shard_count = shards;
  options.worker_binary = EIGENMAPS_WORKER_BIN;
  options.worker_threads = 1;
  options.batch_size = batch;
  options.heartbeat_interval_ms = 20;
  options.heartbeat_timeout_ms = 5000;  // SIGKILL is caught via EOF, not HB
  // Tests opt into self-healing explicitly; pure-failover tests must not
  // have a respawn racing their post-kill assertions.
  options.respawn_max_attempts = 0;
  return options;
}

/// Sets an environment variable for the lifetime of the scope (worker
/// processes inherit the environment at fork, so these must wrap the
/// router's construction).
struct ScopedEnv {
  std::string name;
  ScopedEnv(const char* n, const std::string& value) : name(n) {
    ::setenv(n, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

/// Polls `done` every 10ms until it returns true or `timeout` elapses.
bool wait_until(const std::function<bool()>& done,
                std::chrono::milliseconds timeout =
                    std::chrono::seconds(15)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

void push_wave(
    dist::ShardRouter& router, const Fixture& fx,
    const std::vector<std::pair<std::uint64_t, core::SensorBitmask>>& streams,
    std::size_t first_frame, std::size_t last_frame) {
  for (std::size_t f = first_frame; f < last_frame; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
}

/// First live shard that has actually accepted frames (a meaningful chaos
/// victim); falls back to any live shard other than `skip`.
std::size_t pick_loaded_shard(dist::ShardRouter& router,
                              std::size_t skip = SIZE_MAX) {
  const dist::ClusterStats stats = router.stats();
  for (const auto& shard : stats.shards) {
    if (shard.shard == skip) continue;
    if (shard.alive && shard.engine.frames_submitted > 0) return shard.shard;
  }
  for (const auto& shard : stats.shards) {
    if (shard.shard != skip && shard.alive) return shard.shard;
  }
  return 0;
}

void expect_byte_identical(
    const std::map<std::uint64_t,
                   std::map<std::uint64_t, numerics::Vector>>& got,
    const std::map<std::uint64_t,
                   std::map<std::uint64_t, numerics::Vector>>& golden) {
  ASSERT_EQ(got.size(), golden.size());
  for (const auto& [stream, rows] : golden) {
    ASSERT_EQ(got.count(stream), 1u) << "stream " << stream << " missing";
    const auto& got_rows = got.at(stream);
    ASSERT_EQ(got_rows.size(), rows.size()) << "stream " << stream;
    for (const auto& [seq, row] : rows) {
      ASSERT_EQ(got_rows.count(seq), 1u)
          << "stream " << stream << " seq " << seq << " dropped";
      const numerics::Vector& got_row = got_rows.at(seq);
      ASSERT_EQ(got_row.size(), row.size());
      EXPECT_EQ(std::memcmp(got_row.data(), row.data(),
                            row.size() * sizeof(double)),
                0)
          << "stream " << stream << " seq " << seq << " differs";
    }
  }
}

TEST(DistRouter, TwoShardsMatchSingleProcessGoldenByteForByte) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFrames = 40;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 5; ++s) {
    core::SensorBitmask mask;  // streams 0/1/2 full, 3/4 degraded
    if (s >= 3) {
      mask = core::SensorBitmask::except(fx.sensors.size(),
                                         {s % fx.sensors.size()});
    }
    streams.emplace_back(s, mask);
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(2, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(stats.router.frames_routed, streams.size() * kFrames);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
  EXPECT_EQ(stats.router.shard_failures, 0u);
  EXPECT_EQ(stats.aggregate.frames_completed, streams.size() * kFrames);
  EXPECT_GT(stats.aggregate.latency.total, 0u);
  // Both shards carried traffic (5 streams over 2 shards, 16 vnodes each).
  std::size_t loaded = 0;
  for (const auto& shard : stats.shards) {
    if (shard.engine.frames_completed > 0) ++loaded;
  }
  EXPECT_GE(loaded, 1u);
}

/// Restores the process-global tracer to the off state when a traced test
/// scope ends (and clears whatever its rings still hold).
struct ScopedTracing {
  ScopedTracing() {
    obs::drain_spans();
    obs::set_tracing(true);
  }
  ~ScopedTracing() {
    obs::set_tracing(false);
    obs::drain_spans();
  }
};

TEST(DistRouter, TracedRunStitchesSpansAcrossRouterAndShards) {
  // The cross-process acceptance story (DESIGN.md §15): with tracing on,
  // a frame pushed through the 2-shard router yields route + ack spans
  // from the router process and ingest → queue-wait → solve → expand →
  // deliver spans from whichever worker served it, all stitched by
  // (stream, global seq) — gap-free over every pushed frame and ordered
  // by the shared monotonic clock.
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::uint64_t kFrames = 32;
  constexpr std::uint64_t kStreams = 3;
  ScopedTracing tracing;

  std::vector<obs::SpanRecord> spans;
  Collector collector;
  {
    dist::ShardRouter router(test_router_options(2, kBatch),
                             collector.callback());
    router.register_model(1, fx.rec.model());
    for (std::uint64_t f = 0; f < kFrames; ++f) {
      for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
        const numerics::Vector frame = fx.frame(stream, f);
        router.push_frame(
            stream, numerics::ConstVectorView(frame.data(), frame.size()),
            1);
      }
    }
    router.drain();
    spans = router.drain_trace();
  }

  // Interval helper: the [seq, seq + frames) spans of one (stream, stage)
  // must tile [0, kFrames) without a gap.
  const auto coverage = [&](std::uint64_t stream, obs::Stage stage,
                            bool router_side) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const obs::SpanRecord& span : spans) {
      if (span.stream != stream ||
          span.stage != static_cast<std::uint8_t>(stage)) {
        continue;
      }
      EXPECT_GE(span.end_ns, span.start_ns);
      // Router-side spans carry the router pseudo-shard; engine-side spans
      // carry the worker shard that actually served the frame.
      if (router_side) {
        EXPECT_EQ(span.shard, obs::kRouterShard);
      } else {
        EXPECT_NE(span.shard, obs::kRouterShard);
        EXPECT_LT(span.shard, 2u);
      }
      iv.emplace_back(span.seq, span.seq + span.frames);
    }
    ASSERT_FALSE(iv.empty())
        << "stream " << stream << " has no " << obs::stage_name(stage)
        << " spans";
    std::sort(iv.begin(), iv.end());
    std::uint64_t next = 0;
    for (const auto& [begin, end] : iv) {
      EXPECT_LE(begin, next)
          << "stream " << stream << " " << obs::stage_name(stage)
          << ": gap before seq " << begin;
      next = std::max(next, end);
    }
    EXPECT_EQ(next, kFrames)
        << "stream " << stream << " " << obs::stage_name(stage);
  };
  for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
    coverage(stream, obs::Stage::kRoute, true);
    coverage(stream, obs::Stage::kAck, true);
    coverage(stream, obs::Stage::kIngest, false);
    coverage(stream, obs::Stage::kQueueWait, false);
    coverage(stream, obs::Stage::kSolve, false);
    coverage(stream, obs::Stage::kExpand, false);
    coverage(stream, obs::Stage::kDeliver, false);
  }

  // Per-stream lifecycle order on the first frame, across the process
  // boundary: CLOCK_MONOTONIC is machine-wide, so the worker-side chain
  // must start no earlier than the router's route span, advance through
  // the engine stages in order, and finish inside the router's ack.
  for (std::uint64_t stream = 0; stream < kStreams; ++stream) {
    const auto first_span = [&](obs::Stage stage) {
      const obs::SpanRecord* found = nullptr;
      for (const obs::SpanRecord& span : spans) {
        if (span.stream != stream || span.seq != 0 ||
            span.stage != static_cast<std::uint8_t>(stage)) {
          continue;
        }
        if (found == nullptr || span.start_ns < found->start_ns) {
          found = &span;
        }
      }
      EXPECT_NE(found, nullptr);
      return found;
    };
    const obs::SpanRecord* route = first_span(obs::Stage::kRoute);
    const obs::SpanRecord* ingest = first_span(obs::Stage::kIngest);
    const obs::SpanRecord* queue = first_span(obs::Stage::kQueueWait);
    const obs::SpanRecord* solve = first_span(obs::Stage::kSolve);
    const obs::SpanRecord* expand = first_span(obs::Stage::kExpand);
    const obs::SpanRecord* deliver = first_span(obs::Stage::kDeliver);
    const obs::SpanRecord* ack = first_span(obs::Stage::kAck);
    ASSERT_TRUE(route && ingest && queue && solve && expand && deliver &&
                ack);
    // The ingest span starts at the router's push timestamp (the origin
    // rides the wire), so the cross-process hop is inside it.
    EXPECT_EQ(ingest->start_ns, route->start_ns);
    EXPECT_LE(ingest->start_ns, queue->start_ns);
    EXPECT_LE(queue->start_ns, solve->start_ns);
    EXPECT_LE(solve->start_ns, expand->start_ns);
    EXPECT_LE(expand->start_ns, deliver->start_ns);
    EXPECT_LE(deliver->start_ns, ack->end_ns);
    // Solve and expand happened on the worker that owns the stream.
    EXPECT_EQ(solve->shard, expand->shard);
  }

  // The same spans render as loadable Chrome trace JSON, one process per
  // shard plus the router.
  const std::string path =
      testing::TempDir() + "/dist_traced_run_trace.json";
  std::remove(path.c_str());
  obs::append_chrome_trace(path, spans);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string text;
  char chunk[4096];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
    text.append(chunk, n);
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(text.substr(0, 2), "[\n");
  for (const char* name : {"\"ingest\"", "\"queue_wait\"", "\"solve\"",
                           "\"expand\"", "\"deliver\"", "\"route\"",
                           "\"ack\""}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
  EXPECT_NE(text.find("\"args\":{\"name\":\"router\"}"), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"name\":\"shard "), std::string::npos);

  // Untraced control: with tracing off, the same run records nothing.
  obs::set_tracing(false);
  {
    Collector quiet;
    dist::ShardRouter router(test_router_options(2, kBatch),
                             quiet.callback());
    router.register_model(1, fx.rec.model());
    const numerics::Vector frame = fx.frame(9, 0);
    for (std::uint64_t f = 0; f < kBatch; ++f) {
      router.push_frame(
          9, numerics::ConstVectorView(frame.data(), frame.size()), 1);
    }
    router.drain();
    EXPECT_TRUE(router.drain_trace().empty());
  }
}

TEST(DistRouter, ProducerSideValidationFailsFast) {
  const Fixture fx;
  Collector collector;
  dist::ShardRouter router(test_router_options(2, 8), collector.callback());
  const numerics::Vector frame = fx.frame(0, 0);
  const numerics::ConstVectorView view(frame.data(), frame.size());

  // Unknown model: rejected before anything crosses the wire.
  EXPECT_THROW(router.push_frame(0, view, 99), std::invalid_argument);

  router.register_model(1, fx.rec.model());
  // Wrong frame width.
  EXPECT_THROW(router.push_frame(0, numerics::ConstVectorView(frame.data(),
                                                              frame.size() -
                                                                  1),
                                 1),
               std::invalid_argument);
  // Infeasible mask (fewer active sensors than the model order).
  core::SensorBitmask mask(fx.sensors.size(), false);
  for (std::size_t i = 0; i < 3; ++i) mask.set(i, true);
  EXPECT_THROW(router.push_frame(0, view, 1, mask), std::invalid_argument);

  // The cluster still serves after the rejects.
  router.push_frame(0, view, 1);
  router.drain();
  std::lock_guard<std::mutex> lock(collector.mutex);
  EXPECT_EQ(collector.rows[0].size(), 1u);
}

TEST(DistRouter, InvalidOptionsRejectedLoudlyAtConstruction) {
  Collector collector;
  const auto expect_rejected = [&](dist::RouterOptions options) {
    EXPECT_THROW(dist::ShardRouter(std::move(options), collector.callback()),
                 std::invalid_argument);
  };
  auto base = [] { return test_router_options(2, 8); };

  {
    auto o = base();
    o.shard_count = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.worker_binary.clear();
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.replay_capacity = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.heartbeat_interval_ms = 0;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.heartbeat_timeout_ms = -1;
    expect_rejected(std::move(o));
  }
  {
    auto o = base();
    o.connect_timeout_ms = 0;
    expect_rejected(std::move(o));
  }
  {
    // Respawn enabled with a non-positive backoff would spin-respawn.
    auto o = base();
    o.respawn_max_attempts = 2;
    o.respawn_backoff_ms = 0;
    expect_rejected(std::move(o));
  }
}

TEST(DistRouter, ChaosKillOneShardRespawnsAndLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kWave = 36;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    core::SensorBitmask mask;
    if (s % 3 == 2) {
      mask = core::SensorBitmask::except(fx.sensors.size(),
                                         {s % fx.sensors.size()});
    }
    streams.emplace_back(s, mask);
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 3;  // self-healing on
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Wave 1: open-loop load; a third of the way in, SIGKILL a shard that is
  // actually carrying streams, while frames for it are still in flight.
  std::size_t victim = 0;
  for (std::size_t f = 0; f < kWave; ++f) {
    if (f == kWave / 3) {
      victim = pick_loaded_shard(router);
      router.kill_shard(victim);
    }
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  // Self-healing: the supervisor respawns the victim, re-teaches it the
  // model, and re-inserts it into the ring. Wait on the monotonic respawn
  // counter — alive_count alone could read 3 before the death is noticed.
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 1 &&
           router.alive_count() == 3;
  })) << "victim never rejoined";

  // Wave 2 lands on the restored ring — the rejoined shard carries its
  // migrated-back streams again.
  push_wave(router, fx, streams, kWave, 2 * kWave);
  router.drain();

  // Zero dropped, duplicated, or out-of-order frames across kill AND
  // rejoin, byte-compared against the single-process golden run.
  const auto golden = golden_run(fx, kBatch, streams, 2 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 3u);
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 1u);
  EXPECT_EQ(stats.router.respawns_abandoned, 0u);
  EXPECT_GE(stats.router.streams_rehashed, 1u);
  EXPECT_GE(stats.router.streams_migrated_back, 1u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 2 * kWave);
  // The rejoined shard is live and served wave-2 traffic (its pre-kill
  // streams hash back to it on the restored ring).
  bool victim_back = false;
  for (const auto& shard : stats.shards) {
    if (shard.shard == victim) {
      victim_back = shard.alive && shard.engine.frames_submitted > 0;
    }
  }
  EXPECT_TRUE(victim_back);
}

TEST(DistRouter, ChaosDoubleFailureBackToBackLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kFrames = 36;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 10; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(4, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());

  // Kill two loaded shards back-to-back mid-traffic: the second failure
  // lands while the first one's rehash/replay may still be in flight, so
  // streams can hop victim-1 -> victim-2 -> survivor.
  for (std::size_t f = 0; f < kFrames; ++f) {
    if (f == kFrames / 3) {
      const std::size_t first = pick_loaded_shard(router);
      router.kill_shard(first);
      const std::size_t second = pick_loaded_shard(router, first);
      router.kill_shard(second);
    }
    for (const auto& [stream, mask] : streams) {
      const numerics::Vector frame = fx.frame(stream, f);
      router.push_frame(
          stream, numerics::ConstVectorView(frame.data(), frame.size()), 1,
          mask);
    }
  }
  router.drain();

  // An idle victim's EOF can lag the drain; wait for both deaths to be
  // booked before asserting on the counters.
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.shard_failures >= 2;
  })) << "second failure never noticed";

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.shard_failures, 2u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, ChaosKillRespawnKillAgainLosesNothing) {
  const Fixture fx;
  constexpr std::size_t kBatch = 8;
  constexpr std::size_t kWave = 12;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Wave 1, then kill a loaded shard; its streams fail over.
  push_wave(router, fx, streams, 0, kWave);
  const std::size_t victim = pick_loaded_shard(router);
  router.kill_shard(victim);
  // Wave 2 rides through failover and (eventually) migrate-back. Wait on
  // the monotonic respawn counter, not alive_count — the latter still
  // reads 3 until the death is even noticed.
  push_wave(router, fx, streams, kWave, 2 * kWave);
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 1 &&
           router.alive_count() == 3;
  })) << "first rejoin never happened";

  // Kill the SAME slot again — its second life. The streams that just
  // migrated back now fail over a second time, exercising the rebase
  // re-anchor on a survivor that has already served them once.
  router.kill_shard(victim);
  push_wave(router, fx, streams, 2 * kWave, 3 * kWave);
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 2 &&
           router.alive_count() == 3;
  })) << "second rejoin never happened";
  push_wave(router, fx, streams, 3 * kWave, 4 * kWave);
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, 4 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 3u);
  EXPECT_EQ(stats.router.shard_failures, 2u);
  EXPECT_EQ(stats.router.workers_respawned, 2u);
  EXPECT_EQ(stats.router.respawns_abandoned, 0u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 4 * kWave);
}

TEST(DistRouter, SingleShardFullOutageParksFramesUntilRespawn) {
  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kWave = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 4; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(1, kBatch);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());

  // Route every stream once, then take down the only shard: a full
  // outage with a respawn pending.
  push_wave(router, fx, streams, 0, kWave);
  router.kill_shard(0);

  // Frames of already-routed streams are accepted during the outage —
  // they park in the replay log and replay once the worker rejoins.
  push_wave(router, fx, streams, kWave, 2 * kWave);

  // drain() must ride through the outage: wait for the rejoin, replay,
  // and only return once everything is delivered.
  router.drain();

  const auto golden = golden_run(fx, kBatch, streams, 2 * kWave);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 1u);
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 1u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * 2 * kWave);
}

TEST(DistRouter, WorkerErrorOnRoutedFrameEscalatesToFailover) {
  // A worker that reports kWorkerError for an in-flight frame must be
  // treated as failed: before this fix the router only logged the error,
  // leaking the frame's replay slot — delivery was no longer exactly-once
  // and drain() hung forever on the never-acked frame. drain() returning
  // here IS the regression pin.
  ScopedEnv inject("EIGENMAPS_DIST_INJECT_ERROR_SHARD", "0");
  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kFrames = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 12; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::ShardRouter router(test_router_options(3, kBatch),
                           collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, kFrames);
  router.drain();  // would hang without the escalation fix

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_GE(stats.router.worker_errors, 1u);  // the injection fired
  EXPECT_EQ(stats.router.shard_failures, 1u);
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

TEST(DistRouter, RespawnGivesUpAfterMaxAttempts) {
  // Flap detection: a worker that dies right after its hello on every
  // respawn must not be restarted forever. The die-file knob makes each
  // respawned life exit immediately; the initial lives come up fine
  // because the file does not exist yet.
  const std::string die_file =
      "/tmp/eigenmaps_die_" + std::to_string(::getpid());
  std::remove(die_file.c_str());
  ScopedEnv env("EIGENMAPS_DIST_DIE_FILE", die_file);

  const Fixture fx;
  constexpr std::size_t kBatch = 4;
  constexpr std::size_t kFrames = 8;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 8; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }

  Collector collector;
  dist::RouterOptions options = test_router_options(3, kBatch);
  options.respawn_max_attempts = 2;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, kFrames / 2);

  // Arm the flap and kill a shard: every respawned life now exits right
  // after its hello, so the supervisor must burn its attempts and give up.
  FILE* flag = std::fopen(die_file.c_str(), "w");
  ASSERT_NE(flag, nullptr);
  std::fclose(flag);
  router.kill_shard(pick_loaded_shard(router));

  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.respawns_abandoned >= 1;
  })) << "supervisor never gave up";

  // The slot stays abandoned and the cluster keeps serving on survivors.
  push_wave(router, fx, streams, kFrames / 2, kFrames);
  router.drain();
  std::remove(die_file.c_str());

  const auto golden = golden_run(fx, kBatch, streams, kFrames);
  {
    std::lock_guard<std::mutex> lock(collector.mutex);
    EXPECT_FALSE(collector.order_violated);
    expect_byte_identical(collector.rows, golden);
  }

  const dist::ClusterStats stats = router.stats();
  EXPECT_EQ(router.alive_count(), 2u);
  EXPECT_EQ(stats.router.respawns_abandoned, 1u);
  EXPECT_EQ(stats.router.workers_respawned, 0u);
  EXPECT_EQ(stats.router.results_delivered, streams.size() * kFrames);
}

/// Result-arena fds a process holds open (a memfd's link target carries
/// the name it was created with).
std::size_t arena_fds(pid_t pid) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/fd")) {
    std::error_code error;
    const std::string target =
        std::filesystem::read_symlink(entry.path(), error).string();
    if (target.find("memfd:eigenmaps-results") != std::string::npos) ++count;
  }
  return count;
}

TEST(DistRouter, EachWorkerLifeHoldsOnlyItsOwnResultArena) {
  // Every arena fd is close-on-exec except the child's own, so a worker
  // holds exactly one arena — never a sibling's. The router holds one per
  // worker life and drops a dead life's arena once its reader exits, so a
  // respawn replaces it rather than leaking it.
  const Fixture fx;
  std::vector<std::pair<std::uint64_t, core::SensorBitmask>> streams;
  for (std::uint64_t s = 0; s < 6; ++s) {
    streams.emplace_back(s, core::SensorBitmask());
  }
  const std::size_t before = arena_fds(::getpid());
  Collector collector;
  dist::RouterOptions options = test_router_options(3, 8);
  options.respawn_max_attempts = 3;
  options.respawn_backoff_ms = 10;
  dist::ShardRouter router(std::move(options), collector.callback());
  router.register_model(1, fx.rec.model());
  push_wave(router, fx, streams, 0, 16);
  router.drain();
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(arena_fds(router.shard_pid(s)), 1u) << "shard " << s;
  }
  EXPECT_EQ(arena_fds(::getpid()), before + 3);

  router.kill_shard(1);
  ASSERT_TRUE(wait_until([&] {
    return router.stats().router.workers_respawned >= 1 &&
           router.alive_count() == 3;
  })) << "shard 1 never rejoined";
  push_wave(router, fx, streams, 16, 32);
  router.drain();
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(arena_fds(router.shard_pid(s)), 1u) << "shard " << s;
  }
  EXPECT_EQ(arena_fds(::getpid()), before + 3);

  const auto golden = golden_run(fx, 8, streams, 32);
  std::lock_guard<std::mutex> lock(collector.mutex);
  EXPECT_FALSE(collector.order_violated);
  expect_byte_identical(collector.rows, golden);
}

/// A process's state letter from /proc ('Z' once it has exited but not yet
/// been reaped).
char process_state(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(stat, text);
  const std::size_t paren = text.rfind(')');
  return paren != std::string::npos && paren + 2 < text.size()
             ? text[paren + 2]
             : '?';
}

TEST(DistRouter, WorkerBlockedOnAFullRingExitsWithoutASigkill) {
  // The router's reader sits in a slow result callback, so nothing is
  // released: the worker's ring fills and its engine blocks in the result
  // callback. Tearing the router down must still let the worker exit on
  // its own — it closes the ring once the connection goes — instead of
  // waiting for the destructor's SIGKILL.
  const Fixture fx;
  // Teardown must not wait on a trace pull the stuck reader cannot answer.
  const bool was_tracing = obs::tracing_enabled();
  obs::set_tracing(false);
  std::mutex mutex;
  std::condition_variable released;
  bool unblock = false;  // guarded by mutex
  std::atomic<int> results{0};
  auto router = std::make_unique<dist::ShardRouter>(
      test_router_options(1, 4),
      [&](std::uint64_t, std::uint64_t, numerics::ConstMatrixView) {
        ++results;
        std::unique_lock<std::mutex> lock(mutex);
        released.wait(lock, [&] { return unblock; });
      });
  router->register_model(1, fx.rec.model());
  const pid_t worker = router->shard_pid(0);
  // Eight batches: the first is stuck in the callback, the next three
  // fill the ring's four slots, and the fifth blocks the worker's engine.
  push_wave(*router, fx, {{0, core::SensorBitmask()}}, 0, 32);
  EXPECT_TRUE(wait_until([&] { return results.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread teardown([&] { router.reset(); });
  const bool exited = wait_until([&] { return process_state(worker) == 'Z'; },
                                 std::chrono::seconds(10));
  {
    std::lock_guard<std::mutex> lock(mutex);
    unblock = true;
  }
  released.notify_all();
  teardown.join();
  obs::set_tracing(was_tracing);
  EXPECT_TRUE(exited) << "worker still blocked on its full ring";
  // At most the four results the ring held reached the router: the worker
  // gave up on the rest rather than overwrite unreleased slots.
  EXPECT_LE(results.load(), 4);
}

TEST(DistRouter, HotSwapBroadcastReachesEveryShard) {
  const Fixture fx;
  Collector collector;
  dist::ShardRouter router(test_router_options(2, 4), collector.callback());
  const std::uint64_t v1 = router.register_model(1, fx.rec.model());

  // A different model under the same id: double the mean map.
  numerics::Vector shifted_mean(fx.basis.cell_count(), 80.0);
  core::Reconstructor swapped(fx.basis, 8, fx.sensors, shifted_mean);
  const std::uint64_t v2 = router.register_model(1, swapped.model());
  EXPECT_GT(v2, v1);

  // Every stream, whatever shard it hashes to, now serves the new model.
  for (std::uint64_t s = 0; s < 4; ++s) {
    const numerics::Vector frame = fx.frame(s, 0);
    router.push_frame(s, numerics::ConstVectorView(frame.data(),
                                                   frame.size()),
                      1);
  }
  router.drain();

  const numerics::Vector frame0 = fx.frame(0, 0);
  numerics::Matrix one(1, frame0.size());
  one.set_row(0, frame0);
  const numerics::Matrix expect = swapped.model()->reconstruct_batch(one);
  std::lock_guard<std::mutex> lock(collector.mutex);
  for (std::uint64_t s = 0; s < 4; ++s) {
    ASSERT_EQ(collector.rows[s].size(), 1u);
  }
  const numerics::Vector& got = collector.rows[0][0];
  EXPECT_EQ(std::memcmp(got.data(), expect.row_data(0),
                        got.size() * sizeof(double)),
            0);
}

}  // namespace
