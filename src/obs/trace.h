// Frame-lifecycle tracer (DESIGN.md §15): fixed-size spans recorded into
// preallocated per-thread ring buffers, cheap enough to leave compiled in
// — a single relaxed atomic load gates every record site when tracing is
// off, and a warmed traced frame never touches the heap. Spans carry
// (stream, global seq), so one frame's ingest → queue-wait → solve →
// expand → deliver chain stitches across the router and worker processes
// that each recorded part of it: CLOCK_MONOTONIC is machine-wide, and the
// wire protocol (v4) forwards the trace flag and origin timestamp.
#ifndef EIGENMAPS_OBS_TRACE_H
#define EIGENMAPS_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eigenmaps::obs {

/// The stages a frame moves through. The first kEngineStageCount are
/// engine-side (one LatencyHistogram each in EngineStats); the rest are
/// router-side.
enum class Stage : std::uint8_t {
  kIngest = 0,  // producer/router origin -> frame resident in a pending batch
  kQueueWait,   // batch cut + enqueued -> dequeued by a worker
  kSolve,       // masked/full QR coefficient solve
  kExpand,      // subspace expansion (dense64 / fp32 backend)
  kDeliver,     // re-sequencing + result callback
  kRoute,       // router push_frame -> frame on the owner shard's wire
  kReplay,      // un-acked frames replayed to a new owner after a failure
  kAck,         // router result handling -> client callback + replay-log ack
};
constexpr std::size_t kStageCount = 8;
constexpr std::size_t kEngineStageCount = 5;  // kIngest..kDeliver
const char* stage_name(Stage stage);

/// `shard` value for spans and events recorded outside any worker process
/// (the router, or a single-process engine).
constexpr std::uint16_t kRouterShard = 0xffff;

/// One recorded span: 48 bytes, POD, fixed size — a ring slot. `seq` is
/// the *global* sequence number of the first frame the span covers (the
/// stitch key with `stream`); batch-level spans set frames > 1 and cover
/// [seq, seq + frames).
struct SpanRecord {
  std::uint64_t start_ns = 0;  // CLOCK_MONOTONIC, comparable across processes
  std::uint64_t end_ns = 0;
  std::uint64_t stream = 0;
  std::uint64_t seq = 0;
  std::uint32_t frames = 0;
  std::uint16_t shard = kRouterShard;
  std::uint8_t stage = 0;
  std::uint8_t thread = 0;  // ring id within the process (chrome tid)
};

/// steady_clock now, as nanoseconds since the clock epoch (boot on Linux).
std::uint64_t monotonic_ns();

// ---- enablement --------------------------------------------------------

/// True when span recording is on: EIGENMAPS_TRACE_OUT was set at first
/// use, or set_tracing(true) ran (bench/tests), or a traced frame arrived
/// over the wire (shard workers). One relaxed load; safe on any thread.
bool tracing_enabled();
void set_tracing(bool on);

/// The shard id stamped on this process's spans and events: workers call
/// this once at startup; everything else defaults to kRouterShard.
void set_process_shard(std::uint16_t shard);
std::uint16_t process_shard();

/// EIGENMAPS_TRACE_OUT (nullptr when unset) and EIGENMAPS_TRACE_RING
/// (spans per thread ring, default 16384) — both parsed once, the ring
/// size fail-loud through support/env.
const char* trace_out_path();
std::size_t trace_ring_capacity();

// ---- recording ---------------------------------------------------------

/// Preallocates this thread's span ring if it does not exist yet. Worker
/// pools call it at thread start so the warmed serving path never mints a
/// ring mid-frame; record_span() also falls back to it lazily.
void ensure_thread_ring();

/// Records one span into the calling thread's ring (lock-free, no heap
/// once the ring exists). No-op when tracing is disabled.
void record_span(Stage stage, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint64_t stream, std::uint64_t seq, std::uint32_t frames);

/// Drains every ring in the process: spans recorded since the last drain,
/// oldest-lap spans silently dropped when a ring wrapped. Thread-safe
/// against concurrent recording (a record racing the drain is picked up by
/// the next one).
std::vector<SpanRecord> drain_spans();

// ---- per-batch stage attribution --------------------------------------

/// Stack scratch an engine worker points the thread at for the duration of
/// one batch: the solve/expand instrumentation inside core adds its stage
/// durations here (for the per-stage histograms) and, when `traced`,
/// mirrors them into the span ring under the batch's identity.
struct BatchContext {
  bool traced = false;
  std::uint64_t stream = 0;
  std::uint64_t first_seq = 0;  // global
  std::uint32_t frames = 0;
  std::uint64_t stage_ns[kEngineStageCount] = {0, 0, 0, 0, 0};
};
void set_batch_context(BatchContext* context);
BatchContext* batch_context();

/// RAII stage timer used at the solve/expand call sites in core: free when
/// no BatchContext is set (two branches, no clock read), two clock reads
/// plus an add (and a ring write when traced) when one is.
class ScopedStageSpan {
 public:
  explicit ScopedStageSpan(Stage stage);
  ~ScopedStageSpan();
  ScopedStageSpan(const ScopedStageSpan&) = delete;
  ScopedStageSpan& operator=(const ScopedStageSpan&) = delete;

 private:
  BatchContext* context_;
  std::uint64_t start_ns_ = 0;
  Stage stage_;
};

// ---- cross-process trace context ---------------------------------------

/// Per-frame context a shard worker sets before ReconstructionEngine::
/// push_frame, carrying what came over the wire: whether the frame is
/// traced, the router-side origin timestamp (the ingest span starts there,
/// so it covers the wire hop), and the offset from the engine's local
/// per-stream seq to the router's global one (the stitch key).
struct FrameContext {
  bool active = false;  // false: local producer, origin = push time, base 0
  bool traced = false;
  std::uint64_t origin_ns = 0;
  std::uint64_t seq_base = 0;
};
void set_frame_context(const FrameContext& context);
void clear_frame_context();
const FrameContext& frame_context();

// ---- Chrome trace_event export ----------------------------------------

/// Appends `spans` to `path` in Chrome trace_event JSON array format
/// (loadable in chrome://tracing and Perfetto; the unterminated-array form
/// is deliberate — it lets several processes/dump points append to one
/// file). pid is the shard (kRouterShard renders as the "router" process),
/// tid the recording ring. Throws std::runtime_error when the file cannot
/// be opened.
void append_chrome_trace(const std::string& path,
                         const std::vector<SpanRecord>& spans);

/// append_chrome_trace to EIGENMAPS_TRACE_OUT; no-op when the variable is
/// unset or `spans` is empty. Engine and router destructors call this.
void append_chrome_trace_if_configured(const std::vector<SpanRecord>& spans);

}  // namespace eigenmaps::obs

#endif  // EIGENMAPS_OBS_TRACE_H
