#include "dist/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/result_arena.h"
#include "obs/event_log.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace eigenmaps::dist {

namespace {

/// splitmix64: cheap, well-mixed 64-bit hash for ring placement. Stream
/// ids and vnode indices are often small consecutive integers; the mixer
/// spreads them uniformly around the ring.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

using Clock = std::chrono::steady_clock;

}  // namespace

/// Per-stream routing state. Two independent mutexes split the ingest and
/// delivery sides so neither can block the other: a producer blocked in a
/// socket send (ingest) must never stop a reader from delivering results
/// and acking the replay log (delivery) — that ack flow is what un-wedges
/// the producer.
struct ShardRouter::StreamRoute {
  /// Serializes seq assignment + replay append + send, so frames of one
  /// stream hit the wire in seq order. The failure handler takes it while
  /// replaying for the same reason. Capacity waits happen BEFORE this lock
  /// (ReplayLog::acquire_slot) — see replay_log.h.
  std::mutex ingest;
  std::uint64_t next_seq = 0;  // guarded by ingest

  /// Serializes result delivery + ack.
  std::mutex delivery;
  std::uint64_t next_result_seq = 0;  // guarded by delivery

  std::uint32_t owner = 0;  // guarded by state_mutex_

  /// Guarded by state_mutex_. Set (atomically with the owner reassignment)
  /// when the stream is rehashed to a survivor or migrated back to a
  /// rejoined shard, cleared by the replay once it holds `ingest` and is
  /// about to resend. While set, send_frame_to_owner suppresses the wire
  /// send — the frame is already in the replay log, and letting a racing
  /// producer reach the new owner first would anchor the worker's stream
  /// at the wrong base seq, making it drop the subsequently replayed older
  /// frames as duplicates.
  bool replaying = false;

  /// Guarded by ingest. Set when the stream was reassigned with nothing
  /// pending to replay: the next frame that actually reaches the wire must
  /// carry the rebase flag so the (possibly returning) owner re-anchors
  /// its seq mapping instead of reporting a gap.
  bool rebase_next = false;
};

struct ShardRouter::Shard {
  std::uint32_t index = 0;
  pid_t pid = -1;  // guarded by state_mutex_ (a respawn rewrites it)
  /// Guarded by state_mutex_: senders snapshot the shared_ptr under the
  /// lock, then send outside it — a respawn can swap in a fresh connection
  /// while an old snapshot is still mid-send on the dead one.
  std::shared_ptr<MessageConnection> conn;
  /// Guarded by state_mutex_: the result arena of a spawned life whose
  /// reader has not started yet; the reader takes it over.
  std::unique_ptr<ResultArena> arena;
  std::thread reader;

  // Guarded by state_mutex_:
  bool alive = false;
  Clock::time_point last_heard;
  runtime::EngineStats last_stats;
  std::uint64_t stats_generation = 0;
  std::uint64_t drain_done_token = 0;
  std::vector<obs::SpanRecord> last_trace;
  std::uint64_t trace_generation = 0;

  // Self-healing bookkeeping, guarded by state_mutex_:
  std::size_t respawn_attempts = 0;  // consecutive failed lives (flaps)
  bool respawn_pending = false;      // armed, waiting for backoff expiry
  bool respawn_inflight = false;     // an attempt is running right now
  bool respawn_abandoned = false;    // gave up on this slot
  Clock::time_point respawn_at{};    // when the pending attempt may start
  Clock::time_point rejoined_at{};   // last successful rejoin (flap reset)
};

RouterOptions ShardRouter::validate(RouterOptions options) {
  // Every rejection happens here, before any fork/exec or socket work, so
  // a misconfigured router fails with the reason instead of a downstream
  // symptom (a ReplayLog throw, a worker that exits on bad argv, a
  // heartbeat monitor that declares everything dead instantly).
  if (options.shard_count == 0) {
    throw std::invalid_argument("ShardRouter: shard_count must be positive");
  }
  if (options.worker_binary.empty()) {
    throw std::invalid_argument("ShardRouter: worker_binary is required");
  }
  if (options.replay_capacity == 0) {
    throw std::invalid_argument(
        "ShardRouter: replay_capacity must be positive (a zero bound could "
        "never admit a frame)");
  }
  if (options.heartbeat_interval_ms <= 0) {
    throw std::invalid_argument(
        "ShardRouter: heartbeat_interval_ms must be positive");
  }
  if (options.heartbeat_timeout_ms <= 0) {
    throw std::invalid_argument(
        "ShardRouter: heartbeat_timeout_ms must be positive");
  }
  if (options.connect_timeout_ms <= 0) {
    throw std::invalid_argument(
        "ShardRouter: connect_timeout_ms must be positive");
  }
  if (options.respawn_max_attempts > 0 && options.respawn_backoff_ms <= 0) {
    throw std::invalid_argument(
        "ShardRouter: respawn_backoff_ms must be positive when respawn is "
        "enabled");
  }
  return options;
}

ShardRouter::ShardRouter(RouterOptions options, ResultCallback on_result)
    : options_(validate(std::move(options))),
      on_result_(std::move(on_result)),
      replay_(options_.replay_capacity) {
  socket_path_ = options_.socket_dir + "/eigenmaps-router-" +
                 std::to_string(::getpid()) + "-" +
                 std::to_string(reinterpret_cast<std::uintptr_t>(this)) +
                 ".sock";
  listener_ = std::make_unique<UnixListener>(socket_path_);

  try {
    shards_.reserve(options_.shard_count);
    for (std::size_t i = 0; i < options_.shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_[i]->index = static_cast<std::uint32_t>(i);
      spawn_worker(i);
    }

    // Hello handshake: workers connect in any order and identify
    // themselves.
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
    std::size_t connected = 0;
    while (connected < options_.shard_count) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) {
        throw TransportError("ShardRouter: workers failed to connect in time");
      }
      Socket sock = listener_->accept(static_cast<int>(left.count()));
      if (!sock.valid()) continue;
      auto conn = std::make_shared<MessageConnection>(std::move(sock));
      MessageType type;
      std::vector<std::uint8_t> payload;
      if (conn->recv(type, payload) != RecvStatus::kOk ||
          type != MessageType::kHello) {
        throw TransportError("ShardRouter: bad hello from worker");
      }
      const HelloMsg hello = decode_hello(payload.data(), payload.size());
      if (hello.shard >= shards_.size() || shards_[hello.shard]->conn) {
        throw TransportError(
            "ShardRouter: duplicate or out-of-range shard id");
      }
      Shard& shard = *shards_[hello.shard];
      shard.conn = std::move(conn);
      shard.alive = true;
      shard.last_heard = Clock::now();
      ++connected;
    }
  } catch (...) {
    // The destructor will not run for a throwing constructor: reap every
    // child already spawned so a failed startup leaks no processes.
    for (auto& shard : shards_) {
      if (shard->pid <= 0) continue;
      ::kill(shard->pid, SIGKILL);
      int status = 0;
      ::waitpid(shard->pid, &status, 0);
    }
    throw;
  }
  // The listener stays open for the router's whole life: a respawned
  // worker re-connects through the same socket path.

  rebuild_ring();
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->reader = std::thread(
        [this, s, conn = s->conn, arena = std::move(s->arena)]() mutable {
          reader_loop(s->index, conn, std::move(arena));
        });
  }
  monitor_ = std::thread([this] { monitor_loop(); });
  if (options_.respawn_max_attempts > 0) {
    respawner_ = std::thread([this] { respawn_loop(); });
  }
}

ShardRouter::~ShardRouter() {
  // Final trace collection, while the workers are still up to answer the
  // kTracePull round. Best-effort: a failure here must not stop teardown.
  if (obs::tracing_enabled() && obs::trace_out_path() != nullptr) {
    try {
      obs::append_chrome_trace_if_configured(drain_trace());
    } catch (const std::exception& error) {
      obs::log(obs::LogLevel::kWarn, "router",
               "final trace collection failed: %s", error.what());
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    shutting_down_ = true;
  }
  state_cv_.notify_all();
  replay_.fail();  // release any producer blocked on back-pressure
  // Wake a respawn attempt blocked in accept(); the fd stays owned, so an
  // in-flight accept cannot race a reused descriptor.
  if (listener_) listener_->close();

  std::vector<std::uint8_t> payload;
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      conn = shard->conn;
    }
    if (!conn) continue;
    WireWriter writer(payload);  // empty shutdown payload
    conn->send(MessageType::kShutdown, payload);
    // Also wakes a respawn attempt blocked in a teach-phase recv on this
    // connection (it was installed in shard->conn before the first recv).
    conn->shutdown();
  }
  if (monitor_.joinable()) monitor_.join();
  // The respawner starts reader threads, so it must be gone before the
  // readers are joined.
  if (respawner_.joinable()) respawner_.join();
  for (auto& shard : shards_) {
    if (shard->reader.joinable()) shard->reader.join();
  }
  for (auto& shard : shards_) {
    if (shard->pid <= 0) continue;
    // Give the worker a moment to exit cleanly, then make sure.
    int status = 0;
    for (int i = 0; i < 200; ++i) {
      const pid_t done = ::waitpid(shard->pid, &status, WNOHANG);
      if (done == shard->pid || done < 0) {
        shard->pid = -1;
        break;
      }
      ::usleep(5000);
    }
    if (shard->pid > 0) {
      ::kill(shard->pid, SIGKILL);
      ::waitpid(shard->pid, &status, 0);
    }
  }
}

void ShardRouter::spawn_worker(std::size_t shard) {
  std::unique_ptr<ResultArena> arena = ResultArena::create();
  const std::string arena_arg = std::to_string(arena->fd());
  const std::string shard_arg = std::to_string(shard);
  const std::string threads_arg = std::to_string(options_.worker_threads);
  const std::string batch_arg = std::to_string(options_.batch_size);
  const std::string heartbeat_arg =
      std::to_string(options_.heartbeat_interval_ms);
  const pid_t pid = ::fork();
  if (pid < 0) throw TransportError("ShardRouter: fork failed");
  if (pid == 0) {
    // Child: become the worker. The trace file belongs to the router —
    // worker spans travel back over kTracePull instead, so the variable
    // must not leak into the worker or its engine destructor would append
    // a duplicate copy of every span.
    ::unsetenv("EIGENMAPS_TRACE_OUT");
    // Every arena fd is close-on-exec; only this life's own survives the
    // exec, so no worker can see a sibling shard's results.
    ::fcntl(arena->fd(), F_SETFD, 0);
    // execv only returns on failure.
    const char* argv[] = {options_.worker_binary.c_str(),
                          socket_path_.c_str(),
                          shard_arg.c_str(),
                          threads_arg.c_str(),
                          batch_arg.c_str(),
                          heartbeat_arg.c_str(),
                          arena_arg.c_str(),
                          nullptr};
    ::execv(options_.worker_binary.c_str(), const_cast<char* const*>(argv));
    std::perror("eigenmaps_shard_worker exec");
    ::_exit(127);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  shards_[shard]->pid = pid;
  shards_[shard]->arena = std::move(arena);
}

void ShardRouter::rebuild_ring() {
  ring_.clear();
  for (const auto& shard : shards_) {
    if (!shard->alive) continue;
    for (std::size_t v = 0; v < options_.virtual_nodes; ++v) {
      const std::uint64_t point =
          mix64((static_cast<std::uint64_t>(shard->index) << 32) | v);
      ring_[point] = shard->index;
    }
  }
}

std::uint32_t ShardRouter::ring_lookup(std::uint64_t stream) const {
  if (ring_.empty()) {
    throw std::runtime_error("ShardRouter: no live shards");
  }
  auto it = ring_.lower_bound(mix64(stream));
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->second;
}

std::shared_ptr<ShardRouter::StreamRoute> ShardRouter::route_for(
    std::uint64_t stream) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (shutting_down_) {
    throw std::runtime_error("ShardRouter: shutting down");
  }
  auto it = routes_.find(stream);
  if (it != routes_.end()) return it->second;
  auto route = std::make_shared<StreamRoute>();
  route->owner = ring_lookup(stream);
  routes_[stream] = route;
  return route;
}

std::uint64_t ShardRouter::register_model(
    runtime::ModelId id,
    std::shared_ptr<const core::ReconstructionModel> model) {
  if (!model) {
    throw std::invalid_argument("ShardRouter::register_model: null model");
  }
  // Serialize against a shard rejoin: the respawn supervisor teaches the
  // mirror's model set to the returning worker under this same mutex, so
  // it can never miss a model registered concurrently (nor double-apply a
  // retire) between its snapshot and the instant it becomes routable.
  std::lock_guard<std::mutex> teach(teach_mutex_);
  std::vector<std::uint8_t> payload;
  encode_register_model(id, *model, payload);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    acks_[id].clear();
  }
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shard->alive) conn = shard->conn;
    }
    if (conn) conn->send(MessageType::kRegisterModel, payload);
  }
  // Wait until every shard still alive has acked (a shard dying mid-wait
  // un-blocks us: the predicate only counts the living).
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [&] {
    if (shutting_down_) return true;
    const auto& acked = acks_[id];
    for (const auto& shard : shards_) {
      if (shard->alive && acked.find(shard->index) == acked.end()) {
        return false;
      }
    }
    return true;
  });
  if (shutting_down_) {
    throw std::runtime_error("ShardRouter: shutting down");
  }
  bool any_alive = false;
  for (const auto& [shard, ack] : acks_[id]) {
    if (!ack.ok) {
      const std::string error = ack.error;
      acks_.erase(id);
      throw std::runtime_error("ShardRouter::register_model: shard " +
                               std::to_string(shard) + " rejected model: " +
                               error);
    }
    any_alive = true;
  }
  acks_.erase(id);
  if (!any_alive) {
    throw std::runtime_error("ShardRouter: no live shards");
  }
  lock.unlock();
  // Publish to the mirror only now: push_frame validation cannot admit a
  // frame for a model some live shard has not applied yet. The mirror's
  // version is the canonical one — a respawned worker's registry restarts
  // its version counter, so worker-reported versions are not monotonic
  // across a shard's lives while the mirror's always are.
  return mirror_.register_model(id, std::move(model));
}

void ShardRouter::retire_model(runtime::ModelId id) {
  std::lock_guard<std::mutex> teach(teach_mutex_);
  mirror_.unregister_model(id);
  std::vector<std::uint8_t> payload;
  RetireModelMsg msg;
  msg.model = id;
  encode_retire_model(msg, payload);
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shard->alive) conn = shard->conn;
    }
    if (conn) conn->send(MessageType::kRetireModel, payload);
  }
}

bool ShardRouter::send_frame_to_owner(const StreamRoute& route,
                                      std::uint64_t stream, std::uint64_t seq,
                                      runtime::ModelId model,
                                      const core::SensorBitmask& mask,
                                      numerics::ConstVectorView readings,
                                      bool rebase,
                                      std::vector<std::uint8_t>& scratch,
                                      bool traced, std::uint64_t origin_ns) {
  std::shared_ptr<MessageConnection> conn;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    // A reassigned stream is quiesced until its replay runs: sending now
    // would let this frame reach the new owner ahead of the un-acked older
    // frames. The replay (which drains the log in seq order, this frame
    // included) delivers it instead.
    if (route.replaying) return false;
    const Shard& owner = *shards_[route.owner];
    if (owner.alive) conn = owner.conn;
  }
  if (!conn) return false;  // owner just died: its handler replays
  encode_submit_frame(stream, seq, model, mask, readings, scratch, rebase,
                      traced, origin_ns);
  // A kClosed here is equally fine — the frame is already in the replay
  // log, and the dead shard's failure handling will resend it.
  conn->send(MessageType::kSubmitFrame, scratch);
  return true;
}

std::uint64_t ShardRouter::push_frame(std::uint64_t stream,
                                      numerics::ConstVectorView readings,
                                      runtime::ModelId model,
                                      const core::SensorBitmask& mask) {
  // Producer-side validation against the mirror: same eager contract as
  // ReconstructionEngine::push_frame, with no network round-trip.
  const auto entry = mirror_.resolve(model);
  if (!entry) {
    throw std::invalid_argument("ShardRouter::push_frame: unknown model " +
                                std::to_string(model));
  }
  if (readings.size() != entry->model->sensor_count()) {
    throw std::invalid_argument(
        "ShardRouter::push_frame: frame width does not match the model");
  }
  entry->cache->validate(mask);  // throws for infeasible masks

  const auto route = route_for(stream);
  if (!replay_.acquire_slot()) {
    throw std::runtime_error("ShardRouter: shutting down");
  }
  // Trace context: the origin timestamp anchors the worker-side ingest
  // span at the router's push instant (one CLOCK_MONOTONIC across the
  // host), so the stitched trace covers the wire hop.
  const bool traced = obs::tracing_enabled();
  const std::uint64_t origin_ns = traced ? obs::monotonic_ns() : 0;
  thread_local std::vector<std::uint8_t> scratch;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> ingest(route->ingest);
    seq = route->next_seq++;
    if (!replay_.append(stream, seq, model, mask, readings)) {
      // The log was poisoned after the capacity wait (shutdown, or every
      // shard dead with no respawn coming): the reservation is released
      // and the frame was not logged, so fail the push loudly instead of
      // pretending the frame is in flight.
      throw std::runtime_error("ShardRouter: shutting down");
    }
    const bool rebase = route->rebase_next;
    if (send_frame_to_owner(*route, stream, seq, model, mask, readings,
                            rebase, scratch, traced, origin_ns) &&
        rebase) {
      route->rebase_next = false;  // the anchor actually reached the wire
    }
  }
  if (traced) {
    obs::record_span(obs::Stage::kRoute, origin_ns, obs::monotonic_ns(),
                     stream, seq, 1);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.frames_routed;
  }
  return seq;
}

void ShardRouter::flush(std::uint64_t stream) {
  std::shared_ptr<StreamRoute> route;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const auto it = routes_.find(stream);
    if (it == routes_.end()) return;
    route = it->second;
  }
  std::vector<std::uint8_t> payload;
  FlushStreamMsg msg;
  msg.stream = stream;
  encode_flush_stream(msg, payload);
  // Under the ingest lock so the flush lands after every sent frame.
  std::lock_guard<std::mutex> ingest(route->ingest);
  std::shared_ptr<MessageConnection> conn;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const Shard& owner = *shards_[route->owner];
    if (owner.alive) conn = owner.conn;
  }
  if (conn) conn->send(MessageType::kFlushStream, payload);
}

void ShardRouter::drain() {
  // Each round: ask every live shard to drain (its engine flushes partial
  // batches and delivers everything), wait for the done tokens, then check
  // the replay log. Results precede the done token on each socket, so an
  // acked token means that shard's results were all delivered. A shard
  // failure mid-round leaves its un-acked frames in the log — the failure
  // handler replays them to survivors and the next round covers them.
  for (;;) {
    std::uint64_t token;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      token = ++drain_token_;
    }
    std::vector<std::uint8_t> payload;
    DrainMsg msg;
    msg.token = token;
    encode_drain(msg, payload);
    bool any_alive = false;
    for (auto& shard : shards_) {
      std::shared_ptr<MessageConnection> conn;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        if (shard->alive) conn = shard->conn;
      }
      if (!conn) continue;
      any_alive = true;
      conn->send(MessageType::kDrain, payload);
    }
    if (!any_alive) {
      // Full outage. If a respawn is still queued or running, the parked
      // un-acked frames are only waiting for capacity to come back — wait
      // for a shard to rejoin (or the last respawn to be abandoned, at
      // which point nothing can ever deliver them) and re-drain.
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (!respawn_possible_locked()) return;
      state_cv_.wait(lock, [&] {
        if (shutting_down_) return true;
        for (const auto& shard : shards_) {
          if (shard->alive) return true;
        }
        return !respawn_possible_locked();
      });
      if (shutting_down_) return;
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      state_cv_.wait(lock, [&] {
        if (shutting_down_) return true;
        for (const auto& shard : shards_) {
          if (shard->alive && shard->drain_done_token < token) return false;
        }
        return true;
      });
      if (shutting_down_) return;
    }
    if (replay_.size() == 0) return;
  }
}

ClusterStats ShardRouter::stats() {
  std::uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    generation = ++stats_generation_;
  }
  std::vector<std::uint8_t> payload;  // kStatsPull carries no payload
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shard->alive) conn = shard->conn;
    }
    if (conn) conn->send(MessageType::kStatsPull, payload);
  }
  ClusterStats out;
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [&] {
    if (shutting_down_) return true;
    for (const auto& shard : shards_) {
      if (shard->alive && shard->stats_generation < generation) return false;
    }
    return true;
  });
  out.router = counters_;
  for (const auto& shard : shards_) {
    ShardSnapshot snapshot;
    snapshot.shard = shard->index;
    snapshot.alive = shard->alive;
    if (shard->alive) {
      snapshot.engine = shard->last_stats;
      merge_engine_stats(out.aggregate, shard->last_stats);
    }
    out.shards.push_back(std::move(snapshot));
  }
  // The router process's own structured events (shard lifecycle, replay
  // windows, mirror hot-swaps) join the workers' ring snapshots; (shard,
  // index) keeps the merged list de-duplicable.
  const std::vector<obs::Event> local = obs::event_snapshot();
  out.aggregate.events.insert(out.aggregate.events.end(), local.begin(),
                              local.end());
  return out;
}

std::vector<obs::SpanRecord> ShardRouter::drain_trace() {
  std::uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    generation = ++trace_generation_;
  }
  std::vector<std::uint8_t> payload;  // kTracePull carries no payload
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shard->alive) conn = shard->conn;
    }
    if (conn) conn->send(MessageType::kTracePull, payload);
  }
  // The router's own rings drain while the workers prepare their replies.
  std::vector<obs::SpanRecord> spans = obs::drain_spans();
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait(lock, [&] {
    if (shutting_down_) return true;
    for (const auto& shard : shards_) {
      if (shard->alive && shard->trace_generation < generation) return false;
    }
    return true;
  });
  for (const auto& shard : shards_) {
    if (shard->trace_generation == generation) {
      spans.insert(spans.end(), shard->last_trace.begin(),
                   shard->last_trace.end());
      shard->last_trace.clear();
    }
  }
  return spans;
}

std::size_t ShardRouter::shard_count() const { return shards_.size(); }

std::size_t ShardRouter::alive_count() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  std::size_t alive = 0;
  for (const auto& shard : shards_) {
    if (shard->alive) ++alive;
  }
  return alive;
}

pid_t ShardRouter::shard_pid(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return shards_.at(shard)->pid;
}

void ShardRouter::kill_shard(std::size_t shard) {
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    pid = shards_.at(shard)->pid;
  }
  if (pid > 0) ::kill(pid, SIGKILL);
}

void ShardRouter::handle_result(std::size_t shard, const ResultMsg& msg,
                                numerics::ConstMatrixView maps) {
  const bool traced = obs::tracing_enabled();
  const std::uint64_t ack_start_ns = traced ? obs::monotonic_ns() : 0;
  std::shared_ptr<StreamRoute> route;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    const auto it = routes_.find(msg.stream);
    if (it == routes_.end()) return;  // never routed: nothing to deliver
    route = it->second;
    if (route->owner != static_cast<std::uint32_t>(shard)) {
      // A shard that lost the stream raced its own death; the new owner
      // recomputes these frames from the replay log.
      counters_.stale_results_dropped += msg.rows;
      return;
    }
  }
  std::uint64_t delivered = 0;
  std::uint64_t stale = 0;
  {
    std::lock_guard<std::mutex> delivery(route->delivery);
    const std::uint64_t next = route->next_result_seq;
    const std::uint64_t end = msg.first_seq + msg.rows;
    if (end <= next) {
      stale = msg.rows;  // fully re-delivered by a replay race
    } else {
      const std::uint64_t skip =
          next > msg.first_seq ? next - msg.first_seq : 0;
      stale = skip;
      delivered = msg.rows - skip;
      if (on_result_) {
        on_result_(msg.stream, msg.first_seq + skip,
                   maps.rows_view(static_cast<std::size_t>(skip),
                                  static_cast<std::size_t>(delivered)));
      }
      route->next_result_seq = end;
      replay_.ack_before(msg.stream, end);
    }
  }
  if (traced && delivered > 0) {
    // The ack span covers result handling through client callback and
    // replay-log ack, under the seq of the first frame actually delivered.
    obs::record_span(obs::Stage::kAck, ack_start_ns, obs::monotonic_ns(),
                     msg.stream, msg.first_seq + (msg.rows - delivered),
                     static_cast<std::uint32_t>(delivered));
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  counters_.results_delivered += delivered;
  counters_.stale_results_dropped += stale;
}

void ShardRouter::reader_loop(std::size_t shard_index,
                              std::shared_ptr<MessageConnection> conn,
                              std::unique_ptr<ResultArena> arena) {
  Shard& shard = *shards_[shard_index];
  MessageType type;
  std::vector<std::uint8_t> payload;
  bool escalate = false;
  for (;;) {
    if (escalate) break;
    try {
      if (conn->recv(type, payload) != RecvStatus::kOk) break;
    } catch (const std::exception& error) {
      obs::log(obs::LogLevel::kWarn, "router",
               "shard %zu receive error: %s", shard_index, error.what());
      break;
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      shard.last_heard = Clock::now();  // any traffic counts as liveness
    }
    try {
      switch (type) {
        case MessageType::kResult: {
          // Validated before any routing decision, so a bad descriptor
          // downs the shard even when its stream is stale. The region is
          // released once handled — delivered, stale, or never routed.
          const ResultMsg result =
              decode_result(payload.data(), payload.size());
          handle_result(shard_index, result, arena->view(result));
          arena->release();
          break;
        }
        case MessageType::kHeartbeat: {
          decode_heartbeat(payload.data(), payload.size());
          std::lock_guard<std::mutex> lock(state_mutex_);
          ++counters_.heartbeats_seen;
          break;
        }
        case MessageType::kModelAck: {
          ModelAckMsg ack = decode_model_ack(payload.data(), payload.size());
          std::lock_guard<std::mutex> lock(state_mutex_);
          acks_[ack.model][shard.index] = std::move(ack);
          state_cv_.notify_all();
          break;
        }
        case MessageType::kStatsReply: {
          runtime::EngineStats stats =
              decode_engine_stats(payload.data(), payload.size());
          std::lock_guard<std::mutex> lock(state_mutex_);
          shard.last_stats = std::move(stats);
          shard.stats_generation = stats_generation_;
          state_cv_.notify_all();
          break;
        }
        case MessageType::kDrainDone: {
          const DrainMsg done =
              decode_drain_done(payload.data(), payload.size());
          std::lock_guard<std::mutex> lock(state_mutex_);
          shard.drain_done_token = done.token;
          state_cv_.notify_all();
          break;
        }
        case MessageType::kTraceReply: {
          std::vector<obs::SpanRecord> spans =
              decode_trace_reply(payload.data(), payload.size());
          std::lock_guard<std::mutex> lock(state_mutex_);
          shard.last_trace = std::move(spans);
          shard.trace_generation = trace_generation_;
          state_cv_.notify_all();
          break;
        }
        case MessageType::kWorkerError: {
          const WorkerErrorMsg error =
              decode_worker_error(payload.data(), payload.size());
          obs::log(obs::LogLevel::kError, "router",
                   "shard %zu error on stream %llu seq %llu: %s",
                   shard_index,
                   static_cast<unsigned long long>(error.stream),
                   static_cast<unsigned long long>(error.seq),
                   error.text.c_str());
          {
            std::lock_guard<std::mutex> lock(state_mutex_);
            ++counters_.worker_errors;
          }
          // An error on a frame still in the replay log means the shard
          // will never deliver it: left alone, the frame's slot leaks,
          // back-pressure capacity shrinks by one forever, and drain()
          // (which loops until the log empties) hangs. Escalate to the
          // single shard-failure path — down the shard, rehash, replay —
          // so the frame is re-served by another worker. An error on an
          // already-acked seq carries no delivery debt and stays a log
          // line.
          if (replay_.contains(error.stream, error.seq)) escalate = true;
          break;
        }
        default:
          obs::log(obs::LogLevel::kWarn, "router",
                   "shard %zu sent unexpected message type %u", shard_index,
                   static_cast<unsigned>(type));
          break;
      }
    } catch (const std::exception& error) {
      // ProtocolError (corrupt payload) or any other decode failure: the
      // peer is untrustworthy but the router is not — down this one shard
      // (streams rehash, frames replay) instead of letting the exception
      // unwind through the reader thread and terminate the process.
      obs::log(obs::LogLevel::kError, "router",
               "shard %zu decode error: %s", shard_index, error.what());
      break;
    }
  }
  handle_shard_failure(shard_index);
}

void ShardRouter::handle_shard_failure(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<std::pair<std::uint64_t, std::shared_ptr<StreamRoute>>>
      rehashed;
  bool all_dead = false;
  std::shared_ptr<MessageConnection> conn;
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutting_down_ || !shard.alive) return;
    shard.alive = false;
    ++counters_.shard_failures;
    obs::emit_event(obs::EventType::kShardDeath, shard.index);
    rebuild_ring();
    all_dead = ring_.empty();
    if (!all_dead) {
      for (auto& [stream, route] : routes_) {
        if (route->owner != shard.index) continue;
        route->owner = ring_lookup(stream);
        // Quiesce the stream in the same critical section that exposes the
        // new owner: producers that win the race from here on log their
        // frames but do not send, so the replay below is the only writer
        // the new owner hears from until the stream is fully caught up.
        route->replaying = true;
        rehashed.emplace_back(stream, route);
      }
      counters_.streams_rehashed += rehashed.size();
    }
    conn = shard.conn;
    // Take the pid out of the slot before reaping: a respawn will give it
    // a fresh pid, and a stale one must never be signalled again (the
    // kernel may have reused it for a different shard's worker by then).
    pid = shard.pid;
    shard.pid = -1;
    // Arm the self-healing supervisor for this slot (no-op when respawn
    // is disabled or the slot's flap streak hit the cap).
    schedule_respawn_locked(shard);
    if (all_dead && !respawn_possible_locked()) {
      // No capacity left and none coming back: poison the log so blocked
      // producers fail instead of hanging. With a respawn pending the
      // parked frames stay valid — they replay once a worker rejoins.
      replay_.fail();
    }
    // Waiters (register_model, drain, stats) re-evaluate their live sets.
    state_cv_.notify_all();
  }
  conn->shutdown();
  if (pid > 0) {
    ::kill(pid, SIGKILL);  // no-op if already gone
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  if (all_dead) return;  // nothing to replay onto (yet)
  replay_streams(rehashed);
}

void ShardRouter::replay_streams(
    const std::vector<std::pair<std::uint64_t, std::shared_ptr<StreamRoute>>>&
        reassigned) {
  // Replay each reassigned stream's un-acked frames, in seq order, to its
  // new owner. The ingest lock serializes against live producers of the
  // same stream, and the replaying flag kept producers that raced the
  // reassignment off the wire — their frames are in the log and go out
  // here, in order. The flag is cleared while the ingest lock is held: no
  // producer can append between the clear and the pending() snapshot, so
  // the first frame the new owner sees is the stream's true replay base,
  // and every later producer send resumes in seq order behind it. That
  // first frame carries the rebase flag: the owner may have served this
  // stream in an earlier life (or before a migrate-back round trip) and
  // must re-anchor its seq mapping rather than diagnose a gap.
  std::vector<std::uint8_t> scratch;
  std::uint64_t replayed = 0;
  const bool traced = obs::tracing_enabled();
  for (const auto& [stream, route] : reassigned) {
    std::lock_guard<std::mutex> ingest(route->ingest);
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      route->replaying = false;
    }
    const std::vector<ReplayFrame> pending = replay_.pending(stream);
    if (pending.empty()) {
      // Nothing to resend; the next producer frame is the anchor instead.
      route->rebase_next = true;
      continue;
    }
    const std::uint64_t replay_start_ns = traced ? obs::monotonic_ns() : 0;
    bool rebase = true;
    for (const ReplayFrame& frame : pending) {
      if (send_frame_to_owner(
              *route, stream, frame.seq, frame.model, frame.mask,
              numerics::ConstVectorView(frame.readings.data(),
                                        frame.readings.size()),
              rebase, scratch, traced)) {
        rebase = false;  // anchor delivered; the rest follow in order
      }
      // A suppressed send (the new owner died already) is fine: that
      // owner's failure handler re-runs this replay, rebase and all.
    }
    route->rebase_next = false;
    replayed += pending.size();
    if (traced) {
      obs::record_span(obs::Stage::kReplay, replay_start_ns,
                       obs::monotonic_ns(), stream, pending.front().seq,
                       static_cast<std::uint32_t>(pending.size()));
    }
  }
  if (replayed > 0) {
    obs::emit_event(obs::EventType::kReplayWindow, reassigned.size(),
                    replayed);
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    counters_.frames_replayed += replayed;
  }
}

void ShardRouter::monitor_loop() {
  const auto interval = std::chrono::milliseconds(options_.heartbeat_interval_ms);
  const auto timeout = std::chrono::milliseconds(options_.heartbeat_timeout_ms);
  std::unique_lock<std::mutex> lock(state_mutex_);
  while (!shutting_down_) {
    state_cv_.wait_for(lock, interval, [&] { return shutting_down_; });
    if (shutting_down_) break;
    const auto now = Clock::now();
    for (auto& shard : shards_) {
      if (!shard->alive) continue;
      // A respawned worker that stayed up a full heartbeat-timeout window
      // has proven itself stable: reset its flap streak so a much later,
      // unrelated crash gets the full respawn budget again.
      if (shard->respawn_attempts > 0 && !shard->respawn_pending &&
          !shard->respawn_inflight && now - shard->rejoined_at > timeout) {
        shard->respawn_attempts = 0;
      }
      if (now - shard->last_heard <= timeout) continue;
      // Silent too long: force the connection down. The reader wakes with
      // kClosed and runs the one true failure path — the monitor itself
      // never mutates routing state.
      const std::shared_ptr<MessageConnection> conn = shard->conn;
      lock.unlock();
      conn->shutdown();
      lock.lock();
    }
  }
}

void ShardRouter::schedule_respawn_locked(Shard& shard) {
  if (options_.respawn_max_attempts == 0) return;  // self-healing disabled
  if (shard.respawn_attempts >= options_.respawn_max_attempts) {
    // Flap detection: this slot crashed right back after every respawn in
    // the streak. Give up on it — the ring stays rebalanced onto the
    // survivors, exactly as if respawn were disabled.
    if (!shard.respawn_abandoned) {
      shard.respawn_abandoned = true;
      ++counters_.respawns_abandoned;
      obs::emit_event(obs::EventType::kShardRespawnAbandoned, shard.index,
                      shard.respawn_attempts);
      obs::log(obs::LogLevel::kError, "router",
               "giving up on shard %u after %zu failed respawns",
               shard.index, shard.respawn_attempts);
      state_cv_.notify_all();  // drain() may be waiting on this verdict
    }
    return;
  }
  // Exponential backoff over the slot's current flap streak: attempt k
  // (1-based) waits 2^(k-1) * respawn_backoff_ms. The shift is capped only
  // by respawn_max_attempts, which the caller bounds.
  const auto backoff = std::chrono::milliseconds(
      options_.respawn_backoff_ms
      << std::min<std::size_t>(shard.respawn_attempts, 20));
  ++shard.respawn_attempts;
  shard.respawn_at = Clock::now() + backoff;
  shard.respawn_pending = true;
  state_cv_.notify_all();  // wake the supervisor to re-plan its sleep
}

bool ShardRouter::respawn_possible_locked() const {
  for (const auto& shard : shards_) {
    if (shard->respawn_pending || shard->respawn_inflight) return true;
  }
  return false;
}

void ShardRouter::respawn_loop() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  while (!shutting_down_) {
    const auto now = Clock::now();
    Shard* due = nullptr;
    auto earliest = Clock::time_point::max();
    for (auto& shard : shards_) {
      if (!shard->respawn_pending) continue;
      if (shard->respawn_at <= now) {
        due = shard.get();
        break;
      }
      earliest = std::min(earliest, shard->respawn_at);
    }
    if (due != nullptr) {
      due->respawn_pending = false;
      due->respawn_inflight = true;
      lock.unlock();
      attempt_respawn(due->index);
      lock.lock();
      due->respawn_inflight = false;
      state_cv_.notify_all();  // drain() re-checks respawn_possible
      continue;
    }
    // Sleep until the earliest backoff expires or something changes
    // (a new failure arming a respawn, shutdown). Spurious wakeups just
    // re-scan.
    if (earliest == Clock::time_point::max()) {
      state_cv_.wait(lock);
    } else {
      state_cv_.wait_until(lock, earliest);
    }
  }
}

bool ShardRouter::fail_respawn_attempt(Shard& shard) {
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    pid = shard.pid;
    shard.pid = -1;
  }
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  schedule_respawn_locked(shard);
  if (ring_.empty() && !respawn_possible_locked()) {
    // The whole cluster is gone and this was the last hope of capacity:
    // release producers blocked on back-pressure.
    replay_.fail();
  }
  return false;
}

bool ShardRouter::attempt_respawn(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  // The previous life's reader has exited (it ran the failure handler
  // that armed this attempt); reap the thread before starting a new one.
  if (shard.reader.joinable()) shard.reader.join();

  try {
    spawn_worker(shard_index);
  } catch (const TransportError& error) {
    obs::log(obs::LogLevel::kError, "router", "shard %zu respawn failed: %s",
             shard_index, error.what());
    return fail_respawn_attempt(shard);
  }

  // Re-accept on the still-open listener. Short poll slices keep the
  // supervisor responsive to shutdown; listener_->close() in the
  // destructor wakes a blocked accept immediately as well.
  std::shared_ptr<MessageConnection> conn;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options_.connect_timeout_ms);
  while (!conn) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shutting_down_) return false;  // dtor reaps the spawned child
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) break;
    Socket sock = listener_->accept(
        static_cast<int>(std::min<long long>(left.count(), 200)));
    if (!sock.valid()) continue;
    auto candidate = std::make_shared<MessageConnection>(std::move(sock));
    MessageType type;
    std::vector<std::uint8_t> payload;
    try {
      if (candidate->recv(type, payload) != RecvStatus::kOk ||
          type != MessageType::kHello) {
        continue;  // died before hello, or a stray peer: not our worker
      }
      const HelloMsg hello = decode_hello(payload.data(), payload.size());
      if (hello.shard != shard.index) continue;  // stale/stray connection
    } catch (const std::exception&) {
      continue;  // malformed hello: drop the connection, keep waiting
    }
    conn = std::move(candidate);
  }
  if (!conn) {
    obs::log(obs::LogLevel::kError, "router",
             "shard %zu respawn: worker did not reconnect in time",
             shard_index);
    return fail_respawn_attempt(shard);
  }

  // Install the connection before the first teach recv: from here the
  // destructor's broadcast loop can shut it down to unblock us. The shard
  // is still !alive, so no sender routes anything to it yet.
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutting_down_) return false;
    shard.conn = conn;
  }

  // Re-teach, then rejoin, all under the teach mutex: the mirror cannot
  // change between the snapshot taught here and the instant the shard
  // becomes routable, so its model set equals the cluster's exactly.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<StreamRoute>>>
      migrated;
  {
    std::lock_guard<std::mutex> teach(teach_mutex_);
    std::vector<std::uint8_t> payload;
    for (const runtime::ModelId id : mirror_.ids()) {
      const auto entry = mirror_.resolve(id);
      if (!entry) continue;  // unreachable under teach_mutex_; be safe
      encode_register_model(id, *entry->model, payload);
      if (conn->send(MessageType::kRegisterModel, payload) !=
          RecvStatus::kOk) {
        return fail_respawn_attempt(shard);
      }
      // Private handshake: this connection has no reader thread yet, so
      // the ack is awaited right here. Heartbeats interleave; anything
      // else from a shard that owns no streams and serves no frames is a
      // protocol violation.
      for (;;) {
        MessageType type;
        std::vector<std::uint8_t> reply;
        try {
          if (conn->recv(type, reply) != RecvStatus::kOk) {
            return fail_respawn_attempt(shard);
          }
          if (type == MessageType::kHeartbeat) continue;
          if (type != MessageType::kModelAck) {
            return fail_respawn_attempt(shard);
          }
          const ModelAckMsg ack =
              decode_model_ack(reply.data(), reply.size());
          if (!ack.ok || ack.model != id) {
            obs::log(obs::LogLevel::kError, "router",
                     "shard %zu respawn: model %llu re-teach rejected: %s",
                     shard_index, static_cast<unsigned long long>(id),
                     ack.error.c_str());
            return fail_respawn_attempt(shard);
          }
        } catch (const std::exception& error) {
          obs::log(obs::LogLevel::kError, "router",
                   "shard %zu respawn: re-teach failed: %s", shard_index,
                   error.what());
          return fail_respawn_attempt(shard);
        }
        break;
      }
    }

    // Rejoin: flip alive, rebuild the ring, and quiesce every stream the
    // ring now assigns to this shard — atomically, so no producer can
    // reach the fresh worker ahead of its replay. Streams whose route
    // already pointed at this slot (a full outage parked them) are
    // reassigned-in-place for the same quiesce-then-replay treatment: the
    // frames they logged must go to the NEW process, rebase-anchored.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutting_down_) return false;
    shard.alive = true;
    shard.last_heard = Clock::now();
    shard.rejoined_at = shard.last_heard;
    shard.last_stats = runtime::EngineStats{};
    // Join in-flight control rounds as already-answered: this shard held
    // no frames when they started, and drain() re-checks the replay log
    // anyway, so nothing is lost — while a stale low token would deadlock
    // the waiter forever.
    shard.stats_generation = stats_generation_;
    shard.drain_done_token = drain_token_;
    rebuild_ring();
    for (auto& [stream, route] : routes_) {
      if (ring_lookup(stream) != shard.index) continue;
      route->owner = shard.index;
      route->replaying = true;
      migrated.emplace_back(stream, route);
    }
    ++counters_.workers_respawned;
    counters_.streams_migrated_back += migrated.size();
    obs::emit_event(obs::EventType::kShardRespawned, shard.index,
                    shard.respawn_attempts);
    if (!migrated.empty()) {
      obs::emit_event(obs::EventType::kStreamsMigratedBack, shard.index,
                      migrated.size());
    }
    Shard* s = &shard;
    shard.reader = std::thread(
        [this, s, conn, arena = std::move(shard.arena)]() mutable {
          reader_loop(s->index, conn, std::move(arena));
        });
    state_cv_.notify_all();
  }
  obs::log(obs::LogLevel::kInfo, "router",
           "shard %zu respawned and rejoined (%zu streams migrated back)",
           shard_index, migrated.size());
  replay_streams(migrated);
  return true;
}

}  // namespace eigenmaps::dist
