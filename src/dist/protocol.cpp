#include "dist/protocol.h"

#include <cstring>

#include "core/basis.h"

namespace eigenmaps::dist {

namespace {

void put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t get_u16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

}  // namespace

void encode_header(const WireHeader& header, std::uint8_t* out) {
  put_u32(out, header.magic);
  put_u16(out + 4, header.version);
  put_u16(out + 6, header.type);
  put_u64(out + 8, header.payload_bytes);
}

WireHeader decode_header(const std::uint8_t* data) {
  WireHeader h;
  h.magic = get_u32(data);
  h.version = get_u16(data + 4);
  h.type = get_u16(data + 6);
  h.payload_bytes = get_u64(data + 8);
  if (h.magic != kWireMagic) {
    throw ProtocolError("dist: bad frame magic (desynchronised stream?)");
  }
  if (h.version != kProtocolVersion) {
    throw ProtocolError("dist: protocol version mismatch (peer speaks v" +
                        std::to_string(h.version) + ", this build v" +
                        std::to_string(kProtocolVersion) + ")");
  }
  if (h.payload_bytes > kMaxPayloadBytes) {
    throw ProtocolError("dist: absurd payload length (corrupt header)");
  }
  return h;
}

// ---- WireWriter ----------------------------------------------------------

void WireWriter::u16(std::uint16_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + 2);
  put_u16(out_.data() + at, v);
}

void WireWriter::u32(std::uint32_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + 4);
  put_u32(out_.data() + at, v);
}

void WireWriter::u64(std::uint64_t v) {
  const std::size_t at = out_.size();
  out_.resize(at + 8);
  put_u64(out_.data() + at, v);
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void WireWriter::doubles(const double* data, std::size_t count) {
  u64(count);
  const std::size_t at = out_.size();
  out_.resize(at + count * sizeof(double));
  std::memcpy(out_.data() + at, data, count * sizeof(double));
}

void WireWriter::str(const std::string& s) {
  u64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void WireWriter::bitmask(const core::SensorBitmask& mask) {
  u64(mask.size());
  std::uint8_t byte = 0;
  for (std::size_t s = 0; s < mask.size(); ++s) {
    if (mask.active(s)) byte |= static_cast<std::uint8_t>(1u << (s % 8));
    if (s % 8 == 7 || s + 1 == mask.size()) {
      out_.push_back(byte);
      byte = 0;
    }
  }
}

// ---- WireReader ----------------------------------------------------------

void WireReader::need(std::size_t bytes) const {
  if (size_ - pos_ < bytes) {
    throw ProtocolError("dist: truncated payload");
  }
}

std::uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

std::uint16_t WireReader::u16() {
  need(2);
  const std::uint16_t v = get_u16(data_ + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_ + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_ + pos_);
  pos_ += 8;
  return v;
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void WireReader::doubles(numerics::Vector& out) {
  const std::uint64_t count = u64();
  // Divide, never multiply: count * sizeof(double) wraps for wire-supplied
  // counts near 2^61, which would slip a huge resize past the bounds check.
  if (count > remaining() / sizeof(double)) {
    throw ProtocolError("dist: truncated payload");
  }
  out.resize(count);
  std::memcpy(out.data(), data_ + pos_, count * sizeof(double));
  pos_ += count * sizeof(double);
}

std::string WireReader::str() {
  const std::uint64_t count = u64();
  need(count);
  std::string s(reinterpret_cast<const char*>(data_ + pos_), count);
  pos_ += count;
  return s;
}

core::SensorBitmask WireReader::bitmask() {
  const std::uint64_t width = u64();
  if (width == 0) return core::SensorBitmask();
  // Checked before (width + 7) / 8, which wraps for widths near 2^64 and
  // would both defeat the bounds check and drive a huge mask allocation.
  // remaining() <= kMaxPayloadBytes, so the multiply cannot overflow.
  if (width > remaining() * 8) {
    throw ProtocolError("dist: truncated payload");
  }
  core::SensorBitmask mask(width, false);
  for (std::size_t s = 0; s < width; ++s) {
    const std::uint8_t byte = data_[pos_ + s / 8];
    if (byte & (1u << (s % 8))) mask.set(s, true);
  }
  pos_ += (width + 7) / 8;
  return mask;
}

void WireReader::expect_end() const {
  if (pos_ != size_) {
    throw ProtocolError("dist: trailing bytes after payload");
  }
}

// ---- typed messages ------------------------------------------------------

void encode_hello(const HelloMsg& msg, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u32(msg.shard);
}

HelloMsg decode_hello(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  HelloMsg msg;
  msg.shard = r.u32();
  r.expect_end();
  return msg;
}

void encode_register_model(runtime::ModelId id,
                           const core::ReconstructionModel& model,
                           std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(id);
  w.u64(model.order());
  w.u64(model.sensors().size());
  for (const std::size_t cell : model.sensors()) w.u64(cell);
  w.doubles(model.mean_map().data(), model.mean_map().size());
  const numerics::Matrix subspace = model.subspace();
  w.u64(subspace.rows());
  w.u64(subspace.cols());
  w.doubles(subspace.row_data(0), subspace.rows() * subspace.cols());
  const core::ExpansionOptions& expansion = model.expansion_options();
  w.u8(static_cast<std::uint8_t>(expansion.backend));
  w.f64(expansion.fp32_error_budget);
}

RegisterModelMsg decode_register_model(const std::uint8_t* data,
                                       std::size_t size) {
  WireReader r(data, size);
  RegisterModelMsg msg;
  msg.model = r.u64();
  msg.order = r.u64();
  const std::uint64_t sensor_count = r.u64();
  // Bounded by the bytes present before anything is reserved: a wire count
  // would otherwise size the allocation.
  if (sensor_count > r.remaining() / sizeof(std::uint64_t)) {
    throw ProtocolError("dist: truncated payload");
  }
  msg.sensors.reserve(sensor_count);
  for (std::uint64_t s = 0; s < sensor_count; ++s) {
    msg.sensors.push_back(static_cast<std::size_t>(r.u64()));
  }
  r.doubles(msg.mean_map);
  const std::uint64_t rows = r.u64();
  const std::uint64_t cols = r.u64();
  numerics::Vector flat;
  r.doubles(flat);
  if (rows != msg.mean_map.size() || cols != msg.order) {
    throw ProtocolError("dist: subspace shape inconsistent with model");
  }
  // Divide, never multiply: rows * cols wraps for a wire-supplied order
  // near 2^64 / rows, which would pass a short payload off as a huge
  // matrix (Matrix's own storage check wraps the same way).
  if (rows == 0 ? !flat.empty()
                : (flat.size() % rows != 0 || flat.size() / rows != cols)) {
    throw ProtocolError("dist: subspace size != rows * cols");
  }
  msg.subspace = numerics::Matrix(rows, cols, std::move(flat));
  const std::uint8_t backend = r.u8();
  if (backend != static_cast<std::uint8_t>(core::ExpansionBackend::kDense64) &&
      backend != static_cast<std::uint8_t>(core::ExpansionBackend::kFp32)) {
    throw ProtocolError("dist: unknown expansion backend " +
                        std::to_string(backend));
  }
  msg.expansion.backend = static_cast<core::ExpansionBackend>(backend);
  msg.expansion.fp32_error_budget = r.f64();
  // The range the ReconstructionModel constructor enforces, checked here
  // so wire bytes fail as a ProtocolError; !(x >= 0) also rejects NaN.
  if (!(msg.expansion.fp32_error_budget >= 0.0 &&
        msg.expansion.fp32_error_budget <= 1.0)) {
    throw ProtocolError("dist: fp32 error budget outside [0, 1]");
  }
  r.expect_end();
  return msg;
}

std::shared_ptr<const core::ReconstructionModel> build_model(
    const RegisterModelMsg& msg) {
  // The basis is copied into the model during construction, so the
  // temporary MatrixBasis can die with this frame.
  const core::MatrixBasis basis{numerics::Matrix(msg.subspace)};
  return std::make_shared<const core::ReconstructionModel>(
      basis, msg.order, msg.sensors, msg.mean_map, msg.expansion);
}

void encode_model_ack(const ModelAckMsg& msg, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.model);
  w.u64(msg.version);
  w.u8(msg.ok ? 1 : 0);
  w.str(msg.error);
}

ModelAckMsg decode_model_ack(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  ModelAckMsg msg;
  msg.model = r.u64();
  msg.version = r.u64();
  msg.ok = r.u8() != 0;
  msg.error = r.str();
  r.expect_end();
  return msg;
}

void encode_retire_model(const RetireModelMsg& msg,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.model);
}

RetireModelMsg decode_retire_model(const std::uint8_t* data,
                                   std::size_t size) {
  WireReader r(data, size);
  RetireModelMsg msg;
  msg.model = r.u64();
  r.expect_end();
  return msg;
}

void encode_submit_frame(std::uint64_t stream, std::uint64_t seq,
                         runtime::ModelId model,
                         const core::SensorBitmask& mask,
                         numerics::ConstVectorView readings,
                         std::vector<std::uint8_t>& out, bool rebase,
                         bool traced, std::uint64_t origin_ns) {
  WireWriter w(out);
  w.u64(stream);
  w.u64(seq);
  w.u64(model);
  w.u8(rebase ? 1 : 0);
  w.u8(traced ? 1 : 0);
  w.u64(origin_ns);
  w.bitmask(mask);
  w.doubles(readings.data(), readings.size());
}

void decode_submit_frame(const std::uint8_t* data, std::size_t size,
                         SubmitFrameMsg& msg) {
  WireReader r(data, size);
  msg.stream = r.u64();
  msg.seq = r.u64();
  msg.model = r.u64();
  msg.rebase = r.u8() != 0;
  msg.traced = r.u8() != 0;
  msg.origin_ns = r.u64();
  msg.mask = r.bitmask();
  r.doubles(msg.readings);
  r.expect_end();
}

void encode_flush_stream(const FlushStreamMsg& msg,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.stream);
}

FlushStreamMsg decode_flush_stream(const std::uint8_t* data,
                                   std::size_t size) {
  WireReader r(data, size);
  FlushStreamMsg msg;
  msg.stream = r.u64();
  r.expect_end();
  return msg;
}

void encode_result(std::uint64_t stream, std::uint64_t first_seq,
                   numerics::ConstMatrixView maps,
                   std::vector<std::uint8_t>& out, std::uint64_t offset) {
  WireWriter w(out);
  w.u64(stream);
  w.u64(first_seq);
  w.u64(maps.rows());
  w.u64(maps.cols());
  w.u64(offset);
}

ResultMsg decode_result(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  ResultMsg msg;
  msg.stream = r.u64();
  msg.first_seq = r.u64();
  msg.rows = r.u64();
  msg.cols = r.u64();
  msg.offset = r.u64();
  r.expect_end();
  return msg;
}

void encode_heartbeat(const HeartbeatMsg& msg,
                      std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.tick);
}

HeartbeatMsg decode_heartbeat(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  HeartbeatMsg msg;
  msg.tick = r.u64();
  r.expect_end();
  return msg;
}

void encode_drain(const DrainMsg& msg, std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.token);
}

DrainMsg decode_drain(const std::uint8_t* data, std::size_t size) {
  WireReader r(data, size);
  DrainMsg msg;
  msg.token = r.u64();
  r.expect_end();
  return msg;
}

void encode_drain_done(const DrainMsg& msg, std::vector<std::uint8_t>& out) {
  encode_drain(msg, out);
}

DrainMsg decode_drain_done(const std::uint8_t* data, std::size_t size) {
  return decode_drain(data, size);
}

void encode_worker_error(const WorkerErrorMsg& msg,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(msg.stream);
  w.u64(msg.seq);
  w.str(msg.text);
}

WorkerErrorMsg decode_worker_error(const std::uint8_t* data,
                                   std::size_t size) {
  WireReader r(data, size);
  WorkerErrorMsg msg;
  msg.stream = r.u64();
  msg.seq = r.u64();
  msg.text = r.str();
  r.expect_end();
  return msg;
}

void encode_engine_stats(const runtime::EngineStats& stats,
                         std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(stats.frames_submitted);
  w.u64(stats.frames_completed);
  w.u64(stats.batches_completed);
  w.u64(stats.total_batch_latency_ns);
  w.u64(stats.max_batch_latency_ns);
  w.u32(static_cast<std::uint32_t>(runtime::LatencyHistogram::kBuckets));
  w.u64(stats.latency.total);
  for (const std::uint64_t count : stats.latency.counts) w.u64(count);
  // v4: per-stage histograms (same bucket layout, count checked above) and
  // the worker's structured event-ring snapshot.
  w.u32(static_cast<std::uint32_t>(obs::kEngineStageCount));
  for (const runtime::LatencyHistogram& h : stats.stage_latency) {
    w.u64(h.total);
    for (const std::uint64_t count : h.counts) w.u64(count);
  }
  w.u32(static_cast<std::uint32_t>(stats.events.size()));
  for (const obs::Event& e : stats.events) {
    w.u64(e.index);
    w.u64(e.ts_ns);
    w.u64(e.a);
    w.u64(e.b);
    w.u16(e.shard);
    w.u8(static_cast<std::uint8_t>(e.type));
  }
  w.u32(static_cast<std::uint32_t>(stats.models.size()));
  for (const auto& [id, m] : stats.models) {
    w.u64(id);
    w.u64(m.frames_completed);
    w.u64(m.batches_completed);
    w.u64(m.cache_hits);
    w.u64(m.cache_misses);
    w.u64(m.cache_full_mask_batches);
    w.u64(m.factor_refactors);
    w.u64(m.steady_state_allocations);
    w.u64(m.hot_swaps_served);
    w.u64(m.adaptation.drift_events);
    w.u64(m.adaptation.retrains_completed);
    w.u64(m.adaptation.retrains_failed);
    w.u64(m.adaptation.swaps_published);
    w.u32(m.expansion_backend);
    w.u64(m.dense_expansion_bytes);
    w.u64(m.fp32_expansion_bytes);
    w.u64(m.factor_cache_bytes);
    w.f64(m.fp32_measured_error);
  }
}

runtime::EngineStats decode_engine_stats(const std::uint8_t* data,
                                         std::size_t size) {
  WireReader r(data, size);
  runtime::EngineStats stats;
  stats.frames_submitted = r.u64();
  stats.frames_completed = r.u64();
  stats.batches_completed = r.u64();
  stats.total_batch_latency_ns = r.u64();
  stats.max_batch_latency_ns = r.u64();
  const std::uint32_t buckets = r.u32();
  if (buckets != runtime::LatencyHistogram::kBuckets) {
    throw ProtocolError("dist: latency histogram bucket-count mismatch");
  }
  stats.latency.total = r.u64();
  for (std::uint64_t& count : stats.latency.counts) count = r.u64();
  const std::uint32_t stages = r.u32();
  if (stages != obs::kEngineStageCount) {
    throw ProtocolError("dist: stage histogram count mismatch");
  }
  for (runtime::LatencyHistogram& h : stats.stage_latency) {
    h.total = r.u64();
    for (std::uint64_t& count : h.counts) count = r.u64();
  }
  const std::uint32_t events = r.u32();
  // Bounded by the ring capacity at the sender; a wire count past it is a
  // corrupt frame, not a bigger ring.
  if (events > obs::kEventRingCapacity) {
    throw ProtocolError("dist: event count exceeds the ring capacity");
  }
  stats.events.reserve(events);
  for (std::uint32_t i = 0; i < events; ++i) {
    obs::Event e;
    e.index = r.u64();
    e.ts_ns = r.u64();
    e.a = r.u64();
    e.b = r.u64();
    e.shard = r.u16();
    e.type = static_cast<obs::EventType>(r.u8());
    stats.events.push_back(e);
  }
  const std::uint32_t models = r.u32();
  for (std::uint32_t i = 0; i < models; ++i) {
    const runtime::ModelId id = r.u64();
    runtime::ModelStats& m = stats.models[id];
    m.frames_completed = r.u64();
    m.batches_completed = r.u64();
    m.cache_hits = r.u64();
    m.cache_misses = r.u64();
    m.cache_full_mask_batches = r.u64();
    m.factor_refactors = r.u64();
    m.steady_state_allocations = r.u64();
    m.hot_swaps_served = r.u64();
    m.adaptation.drift_events = r.u64();
    m.adaptation.retrains_completed = r.u64();
    m.adaptation.retrains_failed = r.u64();
    m.adaptation.swaps_published = r.u64();
    m.expansion_backend = r.u32();
    m.dense_expansion_bytes = r.u64();
    m.fp32_expansion_bytes = r.u64();
    m.factor_cache_bytes = r.u64();
    m.fp32_measured_error = r.f64();
  }
  r.expect_end();
  return stats;
}

void encode_trace_reply(const std::vector<obs::SpanRecord>& spans,
                        std::vector<std::uint8_t>& out) {
  WireWriter w(out);
  w.u64(spans.size());
  for (const obs::SpanRecord& s : spans) {
    w.u64(s.start_ns);
    w.u64(s.end_ns);
    w.u64(s.stream);
    w.u64(s.seq);
    w.u32(s.frames);
    w.u16(s.shard);
    w.u8(s.stage);
    w.u8(s.thread);
  }
}

std::vector<obs::SpanRecord> decode_trace_reply(const std::uint8_t* data,
                                                std::size_t size) {
  WireReader r(data, size);
  const std::uint64_t count = r.u64();
  // 40 wire bytes per span; divide, never multiply (overflow-proof bound).
  if (count > r.remaining() / 40) {
    throw ProtocolError("dist: truncated payload");
  }
  std::vector<obs::SpanRecord> spans;
  spans.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    obs::SpanRecord s;
    s.start_ns = r.u64();
    s.end_ns = r.u64();
    s.stream = r.u64();
    s.seq = r.u64();
    s.frames = r.u32();
    s.shard = r.u16();
    s.stage = r.u8();
    s.thread = r.u8();
    spans.push_back(s);
  }
  r.expect_end();
  return spans;
}

}  // namespace eigenmaps::dist
