// The wire protocol between the shard router and its engine workers: a
// compact, versioned binary frame format over a local byte stream
// (DESIGN.md §12).
//
// Every message is one frame: a fixed 16-byte header (magic, protocol
// version, message type, payload length) followed by the payload. All
// integers are little-endian fixed-width, doubles are their IEEE-754 bit
// patterns — the transport is a local socket between processes of one
// build on one machine, so no cross-endian translation is attempted, but
// the magic + version pair still rejects a mismatched peer loudly instead
// of desynchronising. Payloads are encoded/decoded by WireWriter /
// WireReader, which bounds-check every read and throw ProtocolError on
// truncation or trailing garbage — a corrupt frame must never turn into a
// silent misparse.
#ifndef EIGENMAPS_DIST_PROTOCOL_H
#define EIGENMAPS_DIST_PROTOCOL_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factor_cache.h"
#include "core/model.h"
#include "numerics/matrix.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace eigenmaps::dist {

/// Malformed wire data: bad magic, wrong protocol version, truncated or
/// oversized payload, unknown message type. Always a bug or a version
/// skew, never a normal peer death (that is TransportError / kClosed).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kWireMagic = 0x454D5031;  // "EMP1"
// v2: submit rebase flag; v3: log-linear latency histogram + per-model
// expansion-backend memory accounting in the stats payload; v4: per-frame
// trace context (traced flag + origin timestamp) on kSubmitFrame, the
// kTracePull/kTraceReply span-collection pair, and per-stage latency
// histograms + structured events in the stats payload (DESIGN.md §15); v5:
// kResult carries a descriptor into the shard's shared-memory result arena
// instead of the maps themselves (DESIGN.md §12).
inline constexpr std::uint16_t kProtocolVersion = 5;
/// Sanity ceiling on one payload; a length past it is a corrupt header.
/// Also the address space each side reserves for a shard's result arena.
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;
/// Result offsets in the arena ring are multiples of this (a cache line).
inline constexpr std::uint64_t kResultAlign = 64;

enum class MessageType : std::uint16_t {
  kHello = 1,          // worker -> router: shard id, right after connect
  kRegisterModel = 2,  // router -> worker: full serialized model
  kRetireModel = 3,    // router -> worker: drop a model id
  kModelAck = 4,       // worker -> router: registration applied (or failed)
  kSubmitFrame = 5,    // router -> worker: one stream frame
  kFlushStream = 6,    // router -> worker: cut the stream's partial batch
  kResult = 7,         // worker -> router: a completed batch's arena slot
  kStatsPull = 8,      // router -> worker: request an EngineStats snapshot
  kStatsReply = 9,     // worker -> router: the snapshot
  kHeartbeat = 10,     // worker -> router: liveness tick
  kDrain = 11,         // router -> worker: flush everything, finish, reply
  kDrainDone = 12,     // worker -> router: drain token completed
  kShutdown = 13,      // router -> worker: exit cleanly
  kWorkerError = 14,   // worker -> router: a per-frame serving error
  kTracePull = 15,     // router -> worker: drain your span rings
  kTraceReply = 16,    // worker -> router: the drained spans
};

struct WireHeader {
  static constexpr std::size_t kBytes = 16;
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint64_t payload_bytes = 0;
};

/// Serializes `header` into exactly WireHeader::kBytes at `out`.
void encode_header(const WireHeader& header, std::uint8_t* out);

/// Parses and validates a header; throws ProtocolError on bad magic,
/// version skew, or an absurd payload length.
WireHeader decode_header(const std::uint8_t* data);

/// Append-only payload builder over a caller-owned byte vector (cleared on
/// construction so buffers can be reused across messages).
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {
    out_.clear();
  }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  /// Count-prefixed (u64) list of doubles.
  void doubles(const double* data, std::size_t count);
  /// Count-prefixed (u64) UTF-8 bytes.
  void str(const std::string& s);
  /// Sensor bitmask: u64 width (0 = "all sensors"), then packed bits.
  void bitmask(const core::SensorBitmask& mask);

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked payload reader; every overrun throws ProtocolError.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  /// Reads a count-prefixed double list into `out` (resized to fit).
  void doubles(numerics::Vector& out);
  std::string str();
  core::SensorBitmask bitmask();

  std::size_t remaining() const { return size_ - pos_; }
  /// Throws ProtocolError unless the payload was consumed exactly.
  void expect_end() const;

 private:
  void need(std::size_t bytes) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---- typed messages ------------------------------------------------------
// encode_* build the payload into `out` (reused buffers welcome); decode_*
// parse one and throw ProtocolError on any mismatch.

struct HelloMsg {
  std::uint32_t shard = 0;
};
void encode_hello(const HelloMsg& msg, std::vector<std::uint8_t>& out);
HelloMsg decode_hello(const std::uint8_t* data, std::size_t size);

/// A full model crossing the wire: enough to rebuild the immutable
/// ReconstructionModel on the worker (the QR factor and the transposed
/// subspace are recomputed there — they are derived state, and shipping
/// them would double the payload to save one factorization per swap).
struct RegisterModelMsg {
  runtime::ModelId model = 0;
  std::uint64_t order = 0;
  core::SensorLocations sensors;
  numerics::Vector mean_map;
  numerics::Matrix subspace;  // cell_count x order, orthonormal columns
};
void encode_register_model(runtime::ModelId id,
                           const core::ReconstructionModel& model,
                           std::vector<std::uint8_t>& out);
RegisterModelMsg decode_register_model(const std::uint8_t* data,
                                       std::size_t size);
/// Rebuilds the immutable model from a decoded message (MatrixBasis
/// bridge). Throws std::invalid_argument exactly as direct construction
/// would (rank-deficient sampled basis, order past sensor count).
std::shared_ptr<const core::ReconstructionModel> build_model(
    const RegisterModelMsg& msg);

struct ModelAckMsg {
  runtime::ModelId model = 0;
  std::uint64_t version = 0;
  bool ok = false;
  std::string error;
};
void encode_model_ack(const ModelAckMsg& msg, std::vector<std::uint8_t>& out);
ModelAckMsg decode_model_ack(const std::uint8_t* data, std::size_t size);

struct RetireModelMsg {
  runtime::ModelId model = 0;
};
void encode_retire_model(const RetireModelMsg& msg,
                         std::vector<std::uint8_t>& out);
RetireModelMsg decode_retire_model(const std::uint8_t* data,
                                   std::size_t size);

/// One frame of one stream. `seq` is the router-assigned global sequence
/// number — the exactly-once bookkeeping travels with the frame, so a
/// worker can drop replay duplicates by inspection. `rebase` marks the
/// first frame a stream's (new) owner hears after a reassignment: the
/// worker re-anchors its global<->engine-local mapping at this seq instead
/// of treating the jump as a sequence gap — a shard can legitimately see a
/// stream leave (migrate back to a respawned worker) and return later
/// (that worker dies again) with seqs it never served.
/// `traced` + `origin_ns` carry the frame's trace context across the
/// process hop (v4): when set, the worker records this frame's engine
/// spans under the router's global seq, and the ingest span starts at
/// `origin_ns` (the router-side push timestamp on the shared
/// CLOCK_MONOTONIC), so the stitched trace covers the wire hop too.
struct SubmitFrameMsg {
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  runtime::ModelId model = 0;
  bool rebase = false;
  bool traced = false;
  std::uint64_t origin_ns = 0;
  core::SensorBitmask mask;
  numerics::Vector readings;
};
void encode_submit_frame(std::uint64_t stream, std::uint64_t seq,
                         runtime::ModelId model,
                         const core::SensorBitmask& mask,
                         numerics::ConstVectorView readings,
                         std::vector<std::uint8_t>& out, bool rebase = false,
                         bool traced = false, std::uint64_t origin_ns = 0);
/// Decodes into `msg`, reusing its buffers (hot path).
void decode_submit_frame(const std::uint8_t* data, std::size_t size,
                         SubmitFrameMsg& msg);

struct FlushStreamMsg {
  std::uint64_t stream = 0;
};
void encode_flush_stream(const FlushStreamMsg& msg,
                         std::vector<std::uint8_t>& out);
FlushStreamMsg decode_flush_stream(const std::uint8_t* data,
                                   std::size_t size);

/// One completed batch, as a descriptor: its `rows` x `cols` maps sit
/// row-major at `offset` in the shard's result arena ring (result_arena.h).
/// `first_seq` is the global sequence of row 0; rows are consecutive frames
/// of `stream`. Decoding checks only the field layout; the arena checks the
/// shape and bounds before anything reads the rows.
struct ResultMsg {
  std::uint64_t stream = 0;
  std::uint64_t first_seq = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t offset = 0;
};
/// Encodes the descriptor of `maps` (already copied to `offset`): only the
/// shape of `maps` goes on the wire.
void encode_result(std::uint64_t stream, std::uint64_t first_seq,
                   numerics::ConstMatrixView maps,
                   std::vector<std::uint8_t>& out, std::uint64_t offset = 0);
ResultMsg decode_result(const std::uint8_t* data, std::size_t size);

struct HeartbeatMsg {
  std::uint64_t tick = 0;
};
void encode_heartbeat(const HeartbeatMsg& msg,
                      std::vector<std::uint8_t>& out);
HeartbeatMsg decode_heartbeat(const std::uint8_t* data, std::size_t size);

struct DrainMsg {
  std::uint64_t token = 0;
};
void encode_drain(const DrainMsg& msg, std::vector<std::uint8_t>& out);
DrainMsg decode_drain(const std::uint8_t* data, std::size_t size);
void encode_drain_done(const DrainMsg& msg, std::vector<std::uint8_t>& out);
DrainMsg decode_drain_done(const std::uint8_t* data, std::size_t size);

struct WorkerErrorMsg {
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::string text;
};
void encode_worker_error(const WorkerErrorMsg& msg,
                         std::vector<std::uint8_t>& out);
WorkerErrorMsg decode_worker_error(const std::uint8_t* data,
                                   std::size_t size);

/// EngineStats snapshot (kStatsReply payload), histograms (aggregate and
/// per-stage) and the worker's structured events included — the router
/// merges these into ClusterStats.
void encode_engine_stats(const runtime::EngineStats& stats,
                         std::vector<std::uint8_t>& out);
runtime::EngineStats decode_engine_stats(const std::uint8_t* data,
                                         std::size_t size);

/// Drained span records (kTraceReply payload; kTracePull has an empty
/// payload). The router pulls these after a traced run and merges them
/// with its own spans for the Chrome trace dump.
void encode_trace_reply(const std::vector<obs::SpanRecord>& spans,
                        std::vector<std::uint8_t>& out);
std::vector<obs::SpanRecord> decode_trace_reply(const std::uint8_t* data,
                                                std::size_t size);

}  // namespace eigenmaps::dist

#endif  // EIGENMAPS_DIST_PROTOCOL_H
