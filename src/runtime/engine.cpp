#include "runtime/engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "numerics/blas.h"
#include "numerics/isa.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace eigenmaps::runtime {

namespace {

using Clock = std::chrono::steady_clock;

// An empty mask and an explicit all-active mask mean the same thing: no
// dropout. Canonicalising to the empty form keeps the two spellings from
// comparing unequal in the stream binding (which would cut a batch on
// every alternation) and routes both through the cache's full-sensor
// bypass. Wrong-width masks still fail: bind() checks at batch
// boundaries, and push_frame re-checks mid-batch.
const core::SensorBitmask kNoDropout;

const core::SensorBitmask& canonical_mask(const core::SensorBitmask& mask) {
  return (mask.size() != 0 && mask.all_active()) ? kNoDropout : mask;
}

}  // namespace

struct ReconstructionEngine::Job {
  // The batch's frames, row-major in a pooled batch_size x width buffer
  // (only the first frame_count rows are meaningful; short batches leave
  // the tail of the buffer untouched).
  numerics::Vector frames;
  std::size_t frame_count = 0;
  std::size_t width = 0;
  Clock::time_point enqueued_at;
  // Model binding: the registered version current when the batch started,
  // and the active-sensor mask its frames were produced under.
  std::shared_ptr<const RegisteredModel> entry;
  core::SensorBitmask mask;
  // The stream the batch was cut from and its first frame's sequence number.
  std::uint64_t stream = 0;
  std::uint64_t first_seq = 0;
  // When the batch's first frame was pushed (obs::monotonic_ns); the
  // ingest-assembly histogram samples enqueue minus this.
  std::uint64_t opened_ns = 0;
  // Trace identity of the batch (DESIGN.md §15): whether its frames are
  // traced, and the local->global sequence offset that stitches spans
  // across processes.
  bool traced = false;
  std::uint64_t seq_base = 0;
};

struct ReconstructionEngine::StreamState {
  // Ingestion side: frames filling a pooled batch buffer
  // (batch_size x width doubles; pending_frames rows are valid).
  std::mutex ingest_mutex;
  numerics::Vector pending;
  std::size_t pending_frames = 0;
  std::size_t width = 0;
  std::uint64_t next_seq = 0;        // seq of the next pushed frame
  std::uint64_t batch_first_seq = 0; // seq of the pending batch's first frame
  // Binding of the pending batch: model id + mask chosen when its first
  // frame arrived, with the registry entry resolved at that moment (so a
  // hot swap affects the next batch, not this one).
  ModelId model = kDefaultModel;
  core::SensorBitmask mask;
  std::shared_ptr<const RegisteredModel> entry;
  // Open time and trace identity of the pending batch, set by its first
  // frame (every batch's first frame takes the rebind branch) and moved
  // into the job at cut(). The age cut compares pushes against the open
  // time.
  std::uint64_t batch_opened_ns = 0;
  bool batch_traced = false;
  std::uint64_t batch_seq_base = 0;

  // Delivery side: completed batches held until their turn, sorted by
  // first_seq in a small vector whose capacity is reused (at most
  // queue_capacity batches can be in flight, typically far fewer).
  std::mutex deliver_mutex;
  std::uint64_t next_deliver_seq = 0;
  struct Ready {
    std::uint64_t first_seq = 0;
    numerics::Vector maps;  // pooled, batch_size x width; frames rows valid
    std::size_t frames = 0;
    std::size_t width = 0;
  };
  std::vector<Ready> ready;

  /// Moves the pending frames (buffer and all) into a job. Call under
  /// ingest_mutex with pending_frames > 0.
  Job cut(std::uint64_t stream_id) {
    Job job;
    job.frames = std::move(pending);
    job.frame_count = pending_frames;
    job.width = width;
    job.entry = entry;
    job.mask = mask;
    job.stream = stream_id;
    job.first_seq = batch_first_seq;
    job.opened_ns = batch_opened_ns;
    job.traced = batch_traced;
    job.seq_base = batch_seq_base;
    pending_frames = 0;
    batch_first_seq = next_seq;
    return job;
  }
};

// ---- BufferPool --------------------------------------------------------

numerics::Vector BufferPool::acquire(std::size_t doubles, bool& minted) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Smallest free buffer whose capacity fits, so mixed batch and map
    // sizes don't burn large buffers on small asks.
    std::size_t best = free_.size();
    for (std::size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].capacity() < doubles) continue;
      if (best == free_.size() ||
          free_[i].capacity() < free_[best].capacity()) {
        best = i;
      }
    }
    if (best != free_.size()) {
      numerics::Vector buffer = std::move(free_[best]);
      free_[best] = std::move(free_.back());
      free_.pop_back();
      buffer.resize(doubles);  // within capacity: no allocation
      minted = false;
      return buffer;
    }
  }
  minted = true;
  return numerics::Vector(doubles);
}

void BufferPool::release(numerics::Vector buffer) {
  if (buffer.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(buffer));
}

// ---- ReconstructionEngine ----------------------------------------------

std::size_t ReconstructionEngine::default_worker_count() {
  // Same knob as the dense kernels: EIGENMAPS_THREADS, else the hardware.
  return numerics::blas_threads();
}

ReconstructionEngine::ReconstructionEngine(ModelRegistry& registry,
                                           EngineOptions options,
                                           ResultCallback on_result)
    : ReconstructionEngine(nullptr, &registry, std::move(options),
                           std::move(on_result)) {}

ReconstructionEngine::ReconstructionEngine(
    const core::Reconstructor& reconstructor, EngineOptions options,
    ResultCallback on_result)
    : ReconstructionEngine(
          [&reconstructor] {
            auto registry = std::make_unique<ModelRegistry>();
            registry->register_model(kDefaultModel, reconstructor.model());
            return registry;
          }(),
          nullptr, std::move(options), std::move(on_result)) {}

ReconstructionEngine::ReconstructionEngine(
    std::unique_ptr<ModelRegistry> owned_registry, ModelRegistry* registry,
    EngineOptions options, ResultCallback on_result)
    : owned_registry_(std::move(owned_registry)),
      registry_(owned_registry_ ? owned_registry_.get() : registry),
      options_(options),
      on_result_(std::move(on_result)) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("ReconstructionEngine: batch_size must be > 0");
  }
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument(
        "ReconstructionEngine: queue_capacity must be > 0");
  }
  if (options_.max_batch_delay.count() < 0) {
    throw std::invalid_argument(
        "ReconstructionEngine: max_batch_delay must be >= 0");
  }
  // Log the dispatched kernel tier once per process: the serving numbers
  // below depend on it, and a container that silently loses AVX support
  // should be visible in the first lines of the log (DESIGN.md §13).
  static const bool logged_isa = [] {
    obs::log(obs::LogLevel::kInfo, "engine", "kernel isa %s",
             numerics::isa_name());
    return true;
  }();
  (void)logged_isa;
  queue_ = std::make_unique<BoundedWorkQueue<Job>>(options_.queue_capacity);
  std::size_t workers = options_.worker_count;
  if (workers == 0) workers = default_worker_count();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  swap_token_ = registry_->subscribe(
      [this](const RegisteredModel& entry) { on_registry_swap(entry); });
}

ReconstructionEngine::~ReconstructionEngine() {
  // Unsubscribe before anything else dies: unsubscribe() blocks until any
  // in-flight swap callback has returned and guarantees none will start,
  // so a hot-swap racing this destructor can never reach into an engine
  // that is mid-teardown (pinned by RegistrySwapWhileEngineDying).
  registry_->unsubscribe(swap_token_);
  drain();
  queue_->close();
  for (std::thread& worker : workers_) worker.join();
  // Flush this process's spans to EIGENMAPS_TRACE_OUT (appending — the
  // drain watermark means spans dump exactly once even with several
  // engines or a router in the process). Shard workers skip this: the
  // router unsets the variable in its children and pulls their spans over
  // the wire instead.
  obs::append_chrome_trace_if_configured(obs::drain_spans());
}

void ReconstructionEngine::on_registry_swap(const RegisteredModel& entry) {
  // Snapshot the live bindings first, then validate outside every engine
  // lock: factor builds are expensive and validate() takes the cache's own
  // lock.
  std::vector<core::SensorBitmask> masks;
  {
    std::lock_guard<std::mutex> streams_lock(streams_mutex_);
    for (const auto& [id, state] : streams_) {
      std::lock_guard<std::mutex> ingest(state->ingest_mutex);
      if (state->model != entry.id) continue;
      if (state->mask.size() == 0) continue;  // full-sensor path, no factor
      masks.push_back(state->mask);
    }
  }
  for (const core::SensorBitmask& mask : masks) {
    try {
      entry.cache->validate(mask);
    } catch (const std::invalid_argument&) {
      // The mask is infeasible under the swapped-in model; the producer
      // sees the same throw at its next batch boundary, which is where the
      // error belongs.
    }
  }
}

std::shared_ptr<const RegisteredModel> ReconstructionEngine::bind(
    ModelId model, const core::SensorBitmask& mask) const {
  std::shared_ptr<const RegisteredModel> entry = registry_->resolve(model);
  if (!entry) {
    throw std::invalid_argument("ReconstructionEngine: unknown model id");
  }
  if (mask.size() != 0) {
    if (mask.size() != entry->model->sensor_count()) {
      // Checked before the all-active shortcut below: a wrong-width mask
      // must fail here on the producer, never inside a worker.
      throw std::invalid_argument(
          "ReconstructionEngine: mask width != model sensor count");
    }
    if (!mask.all_active()) {
      // Fail infeasible masks here too (rank guard, conditioning ceiling)
      // and warm the factor cache for the workers in one stroke; validate()
      // does not count as a serving-side cache hit.
      entry->cache->validate(mask);
    }
  }
  return entry;
}

ReconstructionEngine::StreamState& ReconstructionEngine::stream_state(
    std::uint64_t stream) {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  std::unique_ptr<StreamState>& slot = streams_[stream];
  if (!slot) slot = std::make_unique<StreamState>();
  return *slot;
}

void ReconstructionEngine::count_serving_allocations(ModelId model,
                                                     std::uint64_t count) {
  if (count == 0) return;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.models[model].steady_state_allocations += count;
}

void ReconstructionEngine::enqueue(Job job) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++jobs_in_flight_;
  }
  job.enqueued_at = Clock::now();
  if (!queue_->push(std::move(job))) {
    // Closed engine: only reachable from a producer racing the destructor,
    // which the ownership contract forbids; account the job as gone.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      --jobs_in_flight_;
    }
    idle_.notify_all();
  }
}

std::uint64_t ReconstructionEngine::push_frame(std::uint64_t stream,
                                               numerics::ConstVectorView frame,
                                               ModelId model,
                                               const core::SensorBitmask& mask) {
  // Up to two jobs can come loose in one push: the old pending batch when
  // the (model, mask) binding changes, plus this frame's batch when it is
  // cut (full, a worker idle, or old enough).
  Job cut_jobs[2];
  std::size_t cut_count = 0;
  std::uint64_t seq = 0;
  // Bindings store and compare the canonical form; the raw mask still
  // goes through bind() so wrong-width masks fail at a batch boundary.
  const core::SensorBitmask& canon = canonical_mask(mask);
  // Trace identity of this frame (DESIGN.md §15). When tracing is off the
  // hot path pays exactly one relaxed load; when on, a shard worker's
  // FrameContext supplies the wire-carried origin/seq mapping, and a local
  // producer traces from here with identity mapping (origin 0 stands for
  // this push's own clock reading).
  bool frame_traced = false;
  std::uint64_t frame_origin_ns = 0;
  std::uint64_t frame_seq_base = 0;
  if (obs::tracing_enabled()) {
    const obs::FrameContext& context = obs::frame_context();
    frame_traced = context.active ? context.traced : true;
    frame_origin_ns = context.active ? context.origin_ns : 0;
    frame_seq_base = context.active ? context.seq_base : 0;
  }
  {
    StreamState& state = stream_state(stream);
    std::lock_guard<std::mutex> lock(state.ingest_mutex);
    // The push's one clock read, taken under the lock so it is never
    // earlier than the open time of the batch it appends to: it stamps a
    // batch this frame opens, drives the age cut and ends the traced
    // ingest span.
    const std::uint64_t push_ns = obs::monotonic_ns();
    const bool rebind = state.pending_frames == 0 ||
                        state.model != model || state.mask != canon;
    if (rebind) {
      // A new batch starts under a fresh binding: resolve the registry's
      // *current* version and validate mask and frame eagerly — throws
      // surface here, on the producer, before any state is disturbed.
      std::shared_ptr<const RegisteredModel> entry = bind(model, mask);
      if (frame.size() != entry->model->sensor_count()) {
        throw std::invalid_argument(
            "ReconstructionEngine::push_frame: frame size != model sensor "
            "count");
      }
      if (state.pending_frames > 0) {
        // Binding changed mid-batch: cut what is pending under the old
        // binding so every job stays homogeneous.
        cut_jobs[cut_count++] = state.cut(stream);
      }
      state.entry = std::move(entry);
      state.model = model;
      state.mask = canon;
      state.width = state.entry->model->sensor_count();
      state.batch_first_seq = state.next_seq;
      // Every batch's first frame lands here, so the open time and trace
      // identity are always this frame's (the latter cleanly false when
      // tracing is off).
      state.batch_opened_ns = push_ns;
      state.batch_traced = frame_traced;
      state.batch_seq_base = frame_seq_base;
      // A fresh batch needs a buffer — `pending` is always empty here (it
      // left with the previous cut(), including the mid-batch cut above).
      // Pool recycling makes this allocation-free once the engine is warm.
      bool minted = false;
      state.pending =
          ingest_pool_.acquire(options_.batch_size * state.width, minted);
      if (minted) count_serving_allocations(model, 1);
    } else {
      if (frame.size() != state.entry->model->sensor_count()) {
        throw std::invalid_argument(
            "ReconstructionEngine::push_frame: frame size != model sensor "
            "count");
      }
      if (mask.size() != 0 &&
          mask.size() != state.entry->model->sensor_count()) {
        // A wrong-width all-active mask canonicalises to "no dropout" and
        // so compares equal to the live binding; it is still malformed and
        // must fail mid-batch exactly as it does at a batch boundary.
        throw std::invalid_argument(
            "ReconstructionEngine::push_frame: mask width != model sensor "
            "count");
      }
    }
    // Submission is counted at ingestion, not at batch-cut time, so
    // `submitted - completed` reflects the true backlog mid-batch.
    frames_submitted_.fetch_add(1, std::memory_order_relaxed);
    seq = state.next_seq++;
    double* dst = state.pending.data() + state.pending_frames * state.width;
    for (std::size_t s = 0; s < state.width; ++s) dst[s] = frame[s];
    ++state.pending_frames;
    if (frame_traced) {
      // Per-frame ingest span, origin -> resident in the pending batch:
      // for dist traffic the origin is the router's push, so this span is
      // the cross-process hop the stitched view hangs together on. The
      // entry timestamp doubles as the span end — the only clock read on
      // the push path, which is what keeps a ~3.5 µs/frame engine inside
      // the <=2% overhead budget; the sub-µs spent copying into the batch
      // is not worth a second read.
      obs::record_span(obs::Stage::kIngest,
                       frame_origin_ns != 0 ? frame_origin_ns : push_ns,
                       push_ns, stream, frame_seq_base + seq, 1);
    }
    // Cut when full, when a worker is idle, or when this push finds the
    // batch max_batch_delay old (DESIGN.md §8): a frame waits for company
    // only while every worker is busy. The check follows the append, so a
    // cut batch leaves with its newest frame and never idles after it. The
    // deadline form cannot wrap an unsigned age.
    const auto max_delay_ns =
        static_cast<std::uint64_t>(options_.max_batch_delay.count());
    if (state.pending_frames >= options_.batch_size ||
        queue_->has_idle_consumer() ||
        push_ns >= state.batch_opened_ns + max_delay_ns) {
      cut_jobs[cut_count++] = state.cut(stream);
    }
  }
  // Enqueue outside the ingest lock: a full queue blocks this producer but
  // not the other producers of the stream; delivery order is restored from
  // sequence numbers.
  for (std::size_t j = 0; j < cut_count; ++j) enqueue(std::move(cut_jobs[j]));
  return seq;
}

void ReconstructionEngine::flush(std::uint64_t stream) {
  StreamState& state = stream_state(stream);
  Job job;
  bool cut = false;
  {
    std::lock_guard<std::mutex> lock(state.ingest_mutex);
    if (state.pending_frames > 0) {
      job = state.cut(stream);
      cut = true;
    }
  }
  if (cut) enqueue(std::move(job));
}

void ReconstructionEngine::drain() {
  std::vector<std::uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(streams_mutex_);
    ids.reserve(streams_.size());
    for (const auto& entry : streams_) ids.push_back(entry.first);
  }
  for (const std::uint64_t id : ids) flush(id);
  std::unique_lock<std::mutex> lock(stats_mutex_);
  idle_.wait(lock, [this] { return jobs_in_flight_ == 0; });
}

EngineStats ReconstructionEngine::stats() const {
  EngineStats out;
  // One consistent snapshot: the per-model gauges are resolved and read
  // under the SAME stats_mutex_ hold that copies the counters. The overlay
  // used to run after the lock was dropped, so a concurrent hot-swap could
  // pair the new version's gauges (fresh cache counters, a different
  // backend's byte fields) with counters copied before the swap — a skew
  // the swap-under-stats stress test now pins. Lock order here is
  // stats_mutex_ -> registry/cache/observer mutexes; no path takes them in
  // the other nesting (workers release the cache lock before touching
  // stats_mutex_, and registry listeners never enter stats()).
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out = stats_;
  out.frames_submitted = frames_submitted_.load(std::memory_order_relaxed);
  out.frames_completed = frames_completed_.load(std::memory_order_relaxed);
  out.events = obs::event_snapshot();
  // Overlay the factor-cache counters of each model's currently registered
  // version (a hot swap restarts them with its fresh cache), and the
  // adaptation counters of the attached observer (if any).
  for (auto& [id, model_stats] : out.models) {
    if (const std::shared_ptr<const RegisteredModel> entry =
            registry_->resolve(id)) {
      const core::FactorCacheStats cache = entry->cache->stats();
      model_stats.cache_hits = cache.hits;
      model_stats.cache_misses = cache.misses;
      model_stats.cache_full_mask_batches = cache.full_mask_batches;
      model_stats.factor_refactors = cache.refactors;
      // Backend identity and memory gauges, read off the same registered
      // version the counters came from.
      const core::ReconstructionModel& model = *entry->model;
      model_stats.expansion_backend =
          static_cast<std::uint32_t>(model.expansion_backend());
      model_stats.dense_expansion_bytes = model.dense_expansion_bytes();
      if (model.expansion_backend() == core::ExpansionBackend::kFp32) {
        model_stats.fp32_expansion_bytes = model.expansion_bytes();
      }
      model_stats.factor_cache_bytes = entry->cache->resident_bytes();
      model_stats.fp32_measured_error = model.fp32_measured_error();
    }
    if (options_.observer != nullptr) {
      model_stats.adaptation = options_.observer->counters(id);
    }
  }
  return out;
}

void ReconstructionEngine::worker_loop() {
  // Workers parallelise across batches; pin the kernels under them to one
  // thread so BLAS threading cannot nest and oversubscribe the machine.
  numerics::set_blas_threads_this_thread(1);
  // Preallocate this worker's span ring up front (engine construction is
  // the warm-up boundary the zero-allocation invariant is pinned against).
  if (obs::tracing_enabled()) obs::ensure_thread_ring();
  // One warmed scratch arena per worker. run_job reserves a full batch for
  // every batch, so once the worker has served each model its capacity
  // covers every batch length and begin() never allocates.
  core::Workspace workspace;
  while (std::optional<Job> job = queue_->pop()) {
    run_job(*job, workspace);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      --jobs_in_flight_;
    }
    idle_.notify_all();
  }
}

void ReconstructionEngine::run_job(Job& job, core::Workspace& workspace) {
  const std::size_t cells = job.entry->model->cell_count();
  const numerics::ConstMatrixView frames(job.frames.data(), job.frame_count,
                                         job.width, job.width);
  const std::uint64_t growths_before = workspace.growths();
  std::uint64_t minted_buffers = 0;

  // Per-batch stage attribution (DESIGN.md §15): the solve/expand timers
  // inside core write their durations here; the span ring additionally
  // gets the batch's spans when its frames are traced. Lives on this
  // stack frame — nothing on this path allocates for tracing.
  obs::BatchContext ctx;
  ctx.traced = job.traced && obs::tracing_enabled();
  ctx.stream = job.stream;
  ctx.first_seq = job.seq_base + job.first_seq;
  ctx.frames = static_cast<std::uint32_t>(job.frame_count);
  const auto enqueued_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          job.enqueued_at.time_since_epoch())
          .count());
  const std::uint64_t dequeued_ns = obs::monotonic_ns();
  if (ctx.traced) {
    obs::record_span(obs::Stage::kQueueWait, enqueued_ns, dequeued_ns,
                     ctx.stream, ctx.first_seq, ctx.frames);
  }
  obs::set_batch_context(&ctx);

  // The result comes out of the map pool and goes back once delivered.
  // Every buffer and the workspace are sized for a full batch, whatever
  // this batch's length (DESIGN.md §10): idle and age cuts make batch
  // lengths vary, and a pool or workspace warmed on short batches must not
  // mint when a full one arrives.
  bool minted = false;
  numerics::Vector maps =
      map_pool_.acquire(options_.batch_size * cells, minted);
  if (minted) ++minted_buffers;
  numerics::MatrixView out(maps.data(), job.frame_count, cells, cells);
  workspace.begin(job.entry->model->workspace_doubles(options_.batch_size));
  job.entry->cache->reconstruct_batch_into(frames, job.mask, out, workspace);
  obs::set_batch_context(nullptr);

  const auto latency = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           job.enqueued_at)
          .count());
  frames_completed_.fetch_add(job.frame_count, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.batches_completed;
    stats_.total_batch_latency_ns += latency;
    if (latency > stats_.max_batch_latency_ns) {
      stats_.max_batch_latency_ns = latency;
    }
    stats_.latency.record(latency);
    // Per-stage histograms, one sample per batch: ingest = batch assembly
    // (open to enqueue), queue-wait, solve, expand. deliver is recorded
    // after the handoff below.
    stats_.stage_latency[static_cast<std::size_t>(obs::Stage::kIngest)]
        .record(enqueued_ns >= job.opened_ns ? enqueued_ns - job.opened_ns
                                             : 0);
    stats_.stage_latency[static_cast<std::size_t>(obs::Stage::kQueueWait)]
        .record(dequeued_ns >= enqueued_ns ? dequeued_ns - enqueued_ns : 0);
    stats_.stage_latency[static_cast<std::size_t>(obs::Stage::kSolve)].record(
        ctx.stage_ns[static_cast<std::size_t>(obs::Stage::kSolve)]);
    stats_.stage_latency[static_cast<std::size_t>(obs::Stage::kExpand)]
        .record(ctx.stage_ns[static_cast<std::size_t>(obs::Stage::kExpand)]);
    ModelStats& model_stats = stats_.models[job.entry->id];
    model_stats.frames_completed += job.frame_count;
    ++model_stats.batches_completed;
    // Workspace growths + pool misses. Flat once warm.
    model_stats.steady_state_allocations +=
        minted_buffers + (workspace.growths() - growths_before);
    // A batch completing under a NEWER registered version than any seen
    // before means a hot swap just reached traffic. Strictly monotone on
    // purpose: with concurrent workers, old-version batches finish
    // interleaved with new-version ones, and counting every flip would
    // report one swap many times.
    std::uint64_t& newest = last_served_version_[job.entry->id];
    if (job.entry->version > newest) {
      if (newest != 0) ++model_stats.hot_swaps_served;
      newest = job.entry->version;
    }
  }
  if (options_.observer != nullptr) {
    // Outside the stats lock; the views die with this call.
    options_.observer->on_batch(job.entry->id, job.entry->version, job.stream,
                                *job.entry->model, job.mask, frames, out);
  }
  // Input goes back to the pool before delivery, which may wait on the
  // stream's deliver lock: producers cutting their next batches meanwhile
  // find the buffer home.
  ingest_pool_.release(std::move(job.frames));
  const std::uint64_t deliver_start_ns = obs::monotonic_ns();
  deliver(job.stream, job.first_seq, std::move(maps), job.frame_count, cells);
  const std::uint64_t deliver_end_ns = obs::monotonic_ns();
  if (ctx.traced) {
    obs::record_span(obs::Stage::kDeliver, deliver_start_ns, deliver_end_ns,
                     ctx.stream, ctx.first_seq, ctx.frames);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.stage_latency[static_cast<std::size_t>(obs::Stage::kDeliver)]
      .record(deliver_end_ns - deliver_start_ns);
}

void ReconstructionEngine::deliver(std::uint64_t stream,
                                   std::uint64_t first_seq,
                                   numerics::Vector maps, std::size_t frames,
                                   std::size_t width) {
  StreamState& state = stream_state(stream);
  // The lock is held across the callback so per-stream delivery order is
  // the sequence order even when another worker completes the next batch
  // mid-callback. Callbacks must therefore not call back into the engine.
  std::lock_guard<std::mutex> lock(state.deliver_mutex);
  auto pos = state.ready.begin();
  while (pos != state.ready.end() && pos->first_seq < first_seq) ++pos;
  StreamState::Ready incoming;
  incoming.first_seq = first_seq;
  incoming.maps = std::move(maps);
  incoming.frames = frames;
  incoming.width = width;
  state.ready.insert(pos, std::move(incoming));
  while (!state.ready.empty() &&
         state.ready.front().first_seq == state.next_deliver_seq) {
    StreamState::Ready batch = std::move(state.ready.front());
    state.ready.erase(state.ready.begin());
    state.next_deliver_seq = batch.first_seq + batch.frames;
    if (on_result_) {
      on_result_(stream, batch.first_seq,
                 numerics::ConstMatrixView(batch.maps.data(), batch.frames,
                                           batch.width, batch.width));
    }
    map_pool_.release(std::move(batch.maps));
  }
}

}  // namespace eigenmaps::runtime
