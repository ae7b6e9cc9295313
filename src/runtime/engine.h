// Streaming batched reconstruction: many sensor-reading frames per second,
// many registered models, one blocked GEMM per batch, dropout-tolerant via
// the per-model mask-keyed factor cache — with a zero-allocation steady
// state: pooled frame/output buffers sized for full batches, per-worker
// workspaces reserved for full batches, and a ring work queue mean a
// warmed engine serves frames without touching the heap (DESIGN.md §10).
#ifndef EIGENMAPS_RUNTIME_ENGINE_H
#define EIGENMAPS_RUNTIME_ENGINE_H

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/factor_cache.h"
#include "core/reconstructor.h"
#include "core/workspace.h"
#include "obs/event_log.h"
#include "obs/trace.h"
#include "runtime/registry.h"
#include "runtime/work_queue.h"

namespace eigenmaps::runtime {

/// Counters an adaptation layer (online::AdaptationController) maintains
/// per model; EngineStats overlays them so one stats() call tells the
/// whole closed-loop story (DESIGN.md §11).
struct AdaptationCounters {
  std::uint64_t drift_events = 0;
  std::uint64_t retrains_completed = 0;
  std::uint64_t retrains_failed = 0;
  std::uint64_t swaps_published = 0;
};

/// Tap on completed batches — the hook the online adaptation subsystem
/// hangs off the serving path. on_batch runs on a worker thread after the
/// reconstruction and before delivery, with the batch's readings and maps
/// as short-lived views; implementations must be cheap, must copy what
/// they keep, and must not call back into the engine. Batches arrive in
/// worker-completion order (delivery re-sequences per stream, this tap
/// does not). counters() feeds the EngineStats overlay and must be
/// thread-safe against on_batch.
class BatchObserver {
 public:
  virtual ~BatchObserver() = default;
  virtual void on_batch(std::uint64_t model, std::uint64_t version,
                        std::uint64_t stream,
                        const core::ReconstructionModel& served,
                        const core::SensorBitmask& mask,
                        numerics::ConstMatrixView frames,
                        numerics::ConstMatrixView maps) = 0;
  virtual AdaptationCounters counters(std::uint64_t model) const = 0;
};

struct EngineOptions {
  /// Worker threads running the batched solves. 0 resolves from the
  /// EIGENMAPS_THREADS environment variable, else hardware concurrency.
  std::size_t worker_count = 0;
  /// Frames accumulated per stream before a batch job is cut. Batches this
  /// size amortise the QR solve and subspace GEMM (DESIGN.md §8). Must be
  /// positive (the constructor throws std::invalid_argument otherwise).
  std::size_t batch_size = 32;
  /// Bound on how long a stream's batch waits for more frames while every
  /// worker is busy: the push that appends a frame and finds the batch's
  /// first frame at least this old cuts it, the arriving frame included
  /// (DESIGN.md §8). A push that finds a worker idle cuts at once, whatever
  /// the age. A frame of an active stream then waits at most this plus the
  /// gap to its stream's next frame; a stream that stops still needs
  /// flush() or drain(). Zero cuts on every push. Must not be negative (the
  /// constructor throws std::invalid_argument otherwise).
  std::chrono::nanoseconds max_batch_delay = std::chrono::milliseconds(1);
  /// Bound on queued batch jobs; producers block past it (back-pressure).
  /// Must be positive (the constructor throws std::invalid_argument
  /// otherwise — a zero-capacity queue could never cut a batch loose).
  std::size_t queue_capacity = 64;
  /// Optional batch tap (non-owning; must outlive the engine). The online
  /// adaptation controller registers itself here.
  BatchObserver* observer = nullptr;
};

/// Recycles double buffers (the engine keeps one pool for frame batches
/// in and one for reconstructed maps out). acquire() resizes a free buffer
/// whose capacity fits — no allocation — and only mints a new one
/// (reporting it, for the steady-state counters) when none does.
class BufferPool {
 public:
  /// A buffer with size() == doubles. Sets `minted` when it had to heap-
  /// allocate (pool miss or capacity shortfall).
  numerics::Vector acquire(std::size_t doubles, bool& minted);
  void release(numerics::Vector buffer);

 private:
  std::mutex mutex_;
  std::vector<numerics::Vector> free_;
};

/// Per-model monotonic counters inside EngineStats. The cache_* and
/// factor_* fields are sampled from the FactorCache of the model's
/// *currently registered* version; a hot swap starts them afresh.
struct ModelStats {
  std::uint64_t frames_completed = 0;
  std::uint64_t batches_completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_full_mask_batches = 0;
  /// Kept only so the frozen serving ledger (perfbench/serve.cpp) still
  /// compiles; always 0, never on the wire.
  static constexpr std::uint64_t factor_downdates = 0;
  std::uint64_t factor_refactors = 0;
  /// Heap allocations the serving path made for this model's frames and
  /// batches: buffer-pool misses (ingest and output) plus per-worker
  /// workspace growths. Warm-up pays a handful; a warmed engine holds
  /// this flat — the zero-allocation steady-state invariant, pinned by
  /// the allocation-counter regression test.
  std::uint64_t steady_state_allocations = 0;
  /// Hot swaps this engine has *served through*: batches completed under a
  /// different registered version than the previous batch of the same
  /// model. Counted by the engine itself, so it reflects swaps that
  /// actually reached traffic, not merely registry writes.
  std::uint64_t hot_swaps_served = 0;
  /// Closed-loop adaptation counters, overlaid from the registered
  /// BatchObserver (online::AdaptationController) when one is attached;
  /// zero otherwise.
  AdaptationCounters adaptation;

  // -- expansion-backend identity and memory accounting (DESIGN.md §14) --
  // Gauges, not counters: sampled from the currently registered version at
  // stats() time, so a hot swap re-reads them from the replacement model.
  /// core::ExpansionBackend of the registered model (0 dense64, 2 fp32).
  std::uint32_t expansion_backend = 0;
  /// Resident bytes of the fp64 V_k^T (k x N doubles) the model holds on
  /// every backend. Always filled.
  std::uint64_t dense_expansion_bytes = 0;
  /// Kept only so the frozen serving ledger (perfbench/serve.cpp) still
  /// compiles; always 0, never on the wire.
  static constexpr std::uint64_t sparse_expansion_bytes = 0;
  /// fp32 operator + bias bytes, held on top of the fp64 V_k^T; nonzero
  /// only for the fp32 backend.
  std::uint64_t fp32_expansion_bytes = 0;
  /// Resident bytes of the model's FactorCache: every cached per-mask
  /// factor.
  std::uint64_t factor_cache_bytes = 0;
  /// fp32: expansion error measured against the fp64 operator at model
  /// construction (what the registry's publish gate enforced).
  double fp32_measured_error = 0.0;
};

/// Log-linear batch-latency histogram: each power-of-two octave above
/// kFirstBucketNs is split into kSubBuckets equal-width sub-buckets
/// (bucket 0 holds everything below the first octave), covering ~1 us to
/// ~20 hours. The old doubling-width buckets quantised p50/p99 to a full
/// octave — a latency regression had to double before the percentile
/// moved; sub-bucketing plus interpolated readout bounds the relative
/// quantisation error by 1/kSubBuckets instead. Fixed storage (no heap)
/// so recording stays inside the zero-allocation steady state; mergeable
/// by bucket addition, which is how the shard router aggregates latency
/// across worker processes.
struct LatencyHistogram {
  static constexpr std::size_t kSubBuckets = 16;  // per octave
  static constexpr std::size_t kOctaves = 36;     // 2^36 * 1 us ~ 20 h
  static constexpr std::size_t kBuckets = 1 + kOctaves * kSubBuckets;
  static constexpr std::uint64_t kFirstBucketNs = 1024;  // ~1 us

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t total = 0;

  /// Which bucket `ns` lands in. Latencies past the top octave clamp into
  /// its last sub-bucket.
  static std::size_t bucket_for(std::uint64_t ns) {
    if (ns < kFirstBucketNs) return 0;
    std::size_t octave = 0;
    std::uint64_t v = ns / kFirstBucketNs;
    while (v > 1 && octave + 1 < kOctaves) {
      v >>= 1;
      ++octave;
    }
    const std::uint64_t base = kFirstBucketNs << octave;
    std::size_t sub =
        static_cast<std::size_t>((ns - base) / (base / kSubBuckets));
    if (sub >= kSubBuckets) sub = kSubBuckets - 1;  // clamped top octave
    return 1 + octave * kSubBuckets + sub;
  }

  /// Inclusive lower edge of `bucket` (the exclusive upper edge is the
  /// lower edge of bucket + 1; passing kBuckets yields the top edge).
  static std::uint64_t bucket_lower_ns(std::size_t bucket) {
    if (bucket == 0) return 0;
    const std::size_t i = bucket - 1;
    const std::uint64_t octave_base = kFirstBucketNs << (i / kSubBuckets);
    return octave_base + (i % kSubBuckets) * (octave_base / kSubBuckets);
  }

  void record(std::uint64_t ns) {
    ++counts[bucket_for(ns)];
    ++total;
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
    total += other.total;
  }

  /// q-quantile (q in [0, 1]) with linear interpolation inside the hit
  /// bucket; 0 when nothing was recorded. Worst case it misreads a
  /// latency by one sub-bucket width (1/kSubBuckets relative), not one
  /// octave like the pre-interpolation readout.
  std::uint64_t quantile_ns(double q) const {
    if (total == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(total - 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts[i] == 0) continue;
      const double first = static_cast<double>(seen);
      seen += counts[i];
      if (static_cast<double>(seen) > target) {
        const std::uint64_t lower = bucket_lower_ns(i);
        const std::uint64_t upper = bucket_lower_ns(i + 1);
        double frac = (target - first) / static_cast<double>(counts[i]);
        if (frac < 0.0) frac = 0.0;
        if (frac > 1.0) frac = 1.0;
        return lower + static_cast<std::uint64_t>(
                           frac * static_cast<double>(upper - lower));
      }
    }
    return bucket_lower_ns(kBuckets);
  }
};

/// Monotonic per-engine counters; read with ReconstructionEngine::stats().
struct EngineStats {
  std::uint64_t frames_submitted = 0;
  std::uint64_t frames_completed = 0;
  std::uint64_t batches_completed = 0;
  /// Sum / max of per-batch latency (enqueue to reconstruction done), ns.
  std::uint64_t total_batch_latency_ns = 0;
  std::uint64_t max_batch_latency_ns = 0;
  /// Per-batch latency distribution (p50/p99 via quantile_ns).
  LatencyHistogram latency;
  /// Per-stage latency distributions, indexed by obs::Stage (engine
  /// stages only), one sample per batch: ingest = batch assembly (the
  /// batch's open time to its enqueue), queue-wait, solve, expand,
  /// deliver. Recorded whether or not tracing is on. Merged across shards
  /// by bucket addition exactly like `latency` (DESIGN.md §15).
  std::array<LatencyHistogram, obs::kEngineStageCount> stage_latency{};
  /// Snapshot of this process's structured event ring (hot-swaps, drift
  /// alarms, retrains, shard lifecycle — obs/event_log.h), taken at
  /// stats() time. De-duplicable by (shard, index).
  std::vector<obs::Event> events;
  /// Every model this engine has completed batches for.
  std::map<ModelId, ModelStats> models;
};

/// Drives batches of sensor frames across a worker pool over a bounded
/// queue. push_frame(stream, frame, model, mask) is the one front door:
/// frames accumulate per stream into batches, cut when full, when a worker
/// is idle, or when 1 ms old (EngineOptions::batch_size, max_batch_delay),
/// so a frame waits for company only while every worker is busy; completed
/// batches are handed to the result callback exactly once and in
/// submission order per stream, even when workers finish them out of
/// order. Frames land in pooled batch buffers and results in pooled output
/// buffers, so a warmed stream ingests and delivers without heap
/// allocations.
///
/// Each frame carries a model id resolved against the ModelRegistry and an
/// optional active-sensor mask (empty = all sensors alive); a stream that
/// switches model or mask cuts its pending batch first, so every batch is
/// homogeneous. Mask feasibility (Theorem 1 rank guard, conditioning
/// ceiling) is validated eagerly at the producer call — infeasible masks
/// throw std::invalid_argument there, never inside a worker. Models can be
/// registered or hot-swapped while streams are live: each batch binds the
/// version current when its first frame arrived, and in-flight batches
/// keep theirs.
///
/// The result callback runs on worker threads and must not call back into
/// the engine. The maps view it receives is only valid for the duration of
/// the callback — the engine recycles the buffer afterwards; copy
/// (e.g. numerics::Matrix(maps)) to keep the data. Thread-safe for many
/// concurrent producers.
class ReconstructionEngine {
 public:
  /// The model id push_frame uses when none is given; the
  /// single-reconstructor convenience constructor registers its model here.
  static constexpr ModelId kDefaultModel = 0;

  /// stream id, sequence number of the first frame in the batch, maps
  /// (one reconstructed row per frame, same order as pushed; valid only
  /// during the callback).
  using ResultCallback =
      std::function<void(std::uint64_t stream, std::uint64_t first_seq,
                         numerics::ConstMatrixView maps)>;

  /// Serves every model in `registry` (which must outlive the engine).
  ReconstructionEngine(ModelRegistry& registry, EngineOptions options = {},
                       ResultCallback on_result = nullptr);

  /// Single-model convenience: owns a private registry with
  /// `reconstructor`'s model under kDefaultModel. The reconstructor's
  /// model is shared, so `reconstructor` itself only needs to outlive
  /// this call.
  ReconstructionEngine(const core::Reconstructor& reconstructor,
                       EngineOptions options = {},
                       ResultCallback on_result = nullptr);
  ~ReconstructionEngine();

  ReconstructionEngine(const ReconstructionEngine&) = delete;
  ReconstructionEngine& operator=(const ReconstructionEngine&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// The registry this engine serves from (the private one for the
  /// single-reconstructor constructor) — register/hot-swap models here.
  ModelRegistry& registry() { return *registry_; }

  /// Appends one frame to `stream`'s pending batch, cutting a job when the
  /// batch is full, when a worker is blocked waiting for work, or when the
  /// batch is 1 ms old (batch_size, max_batch_delay), and whenever the
  /// stream's model/mask binding changes. Returns the frame's sequence
  /// number in the stream: 0 for the stream's first frame, then one more
  /// per push for the life of the engine — flush() and drain() never
  /// restart it.
  std::uint64_t push_frame(
      std::uint64_t stream, numerics::ConstVectorView frame,
      ModelId model = kDefaultModel,
      const core::SensorBitmask& mask = core::SensorBitmask());

  /// Cuts a (possibly short) batch from `stream`'s pending frames: the
  /// end-of-stream call, since only a later push cuts a pending batch.
  void flush(std::uint64_t stream);

  /// Flushes every stream and blocks until all queued work is delivered.
  void drain();

  EngineStats stats() const;

  /// EIGENMAPS_THREADS when set, else hardware concurrency (min 1).
  static std::size_t default_worker_count();

 private:
  struct Job;
  struct StreamState;

  ReconstructionEngine(std::unique_ptr<ModelRegistry> owned_registry,
                       ModelRegistry* registry, EngineOptions options,
                       ResultCallback on_result);

  /// Resolves `model` and validates `mask` against it (warming the factor
  /// cache); throws std::invalid_argument when either is unusable.
  std::shared_ptr<const RegisteredModel> bind(
      ModelId model, const core::SensorBitmask& mask) const;

  StreamState& stream_state(std::uint64_t stream);
  /// Registry swap listener: pre-warms the swapped-in version's factor
  /// cache for every mask a live stream of that model is bound to, so the
  /// first post-swap batch does not pay the factor build inside a worker.
  void on_registry_swap(const RegisteredModel& entry);
  void enqueue(Job job);
  void worker_loop();
  void run_job(Job& job, core::Workspace& workspace);
  void deliver(std::uint64_t stream, std::uint64_t first_seq,
               numerics::Vector maps, std::size_t frames, std::size_t width);
  void count_serving_allocations(ModelId model, std::uint64_t count);

  std::unique_ptr<ModelRegistry> owned_registry_;  // single-model ctor only
  ModelRegistry* registry_;
  /// Subscription token of on_registry_swap. The destructor unsubscribes
  /// FIRST — before draining or joining — because unsubscribe() blocks
  /// until any in-flight swap callback has left the engine; only then is
  /// tearing the engine down safe against a racing hot-swap.
  std::uint64_t swap_token_ = 0;
  const EngineOptions options_;
  const ResultCallback on_result_;

  // Separate pools, so an ingest request never takes a map buffer.
  BufferPool ingest_pool_;
  BufferPool map_pool_;
  std::unique_ptr<BoundedWorkQueue<Job>> queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex streams_mutex_;
  // Entries are never erased while the engine lives, so the reference
  // stream_state() hands out stays valid without holding streams_mutex_.
  std::map<std::uint64_t, std::unique_ptr<StreamState>> streams_;

  // Hot-path counters are atomics so push_frame never takes a global lock.
  std::atomic<std::uint64_t> frames_submitted_{0};
  std::atomic<std::uint64_t> frames_completed_{0};

  mutable std::mutex stats_mutex_;
  EngineStats stats_;  // batch/latency/model counters (guarded by stats_mutex_)
  // Newest registered version each model has completed a batch under, for
  // the hot_swaps_served counter (guarded by stats_mutex_).
  std::map<ModelId, std::uint64_t> last_served_version_;
  std::size_t jobs_in_flight_ = 0;
  std::condition_variable idle_;
};

}  // namespace eigenmaps::runtime

#endif  // EIGENMAPS_RUNTIME_ENGINE_H
