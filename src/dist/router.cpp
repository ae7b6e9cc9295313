#include "dist/router.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
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

/// SIGKILLs a worker (a no-op if it already exited) and reaps it.
void kill_and_reap(pid_t pid) {
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

/// Receives the next message of a starting life other than a heartbeat,
/// and throws TransportError unless it has type `want`.
void expect_message(MessageConnection& conn, MessageType want,
                    std::vector<std::uint8_t>& payload, const char* what) {
  MessageType type;
  do {
    if (conn.recv(type, payload) != RecvStatus::kOk) {
      throw TransportError(std::string("ShardRouter: worker closed or went "
                                       "silent before its ") +
                           what);
    }
  } while (type == MessageType::kHeartbeat);
  if (type != want) {
    throw TransportError(std::string("ShardRouter: worker sent message type ") +
                         std::to_string(static_cast<unsigned>(type)) +
                         " instead of its " + what);
  }
}

}  // namespace

/// Per-stream routing state. Two independent mutexes split the ingest and
/// delivery sides so neither can block the other: a producer blocked in a
/// socket send (ingest) must never stop a slot thread from delivering
/// results and acking the replay log (delivery) — that ack flow is what
/// un-wedges the producer.
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

  // Guarded by state_mutex_:
  pid_t pid = -1;  // the current life's worker; -1 once reaped
  /// Senders snapshot the shared_ptr under the lock, then send outside it
  /// — a respawn can swap in a fresh connection while an old snapshot is
  /// still mid-send on the dead one.
  std::shared_ptr<MessageConnection> conn;
  bool alive = false;
  runtime::EngineStats last_stats;
  std::uint64_t stats_generation = 0;
  std::uint64_t drain_done_token = 0;
  std::vector<obs::SpanRecord> last_trace;
  std::uint64_t trace_generation = 0;

  // Self-healing bookkeeping, guarded by state_mutex_:
  std::size_t respawn_attempts = 0;  // consecutive failed lives (flaps)
  bool respawn_abandoned = false;    // gave up on this slot
  Clock::time_point rejoined_at{};   // when the current life joined

  /// Serves every life of this slot in turn (run_slot).
  std::thread thread;
};

struct ShardRouter::Life {
  std::shared_ptr<MessageConnection> conn;
  std::unique_ptr<ResultArena> arena;
  /// A respawned life's migrate-back replay, sent while the slot thread
  /// serves the life: the fresh worker can only absorb so many frames
  /// before the router must read and release its results.
  std::thread migrate_back;
};

RouterOptions ShardRouter::validate(RouterOptions options) {
  // Every rejection happens here, before any fork/exec or socket work, so
  // a misconfigured router fails with the reason instead of a downstream
  // symptom (a ReplayLog throw, a worker that exits on bad argv, a
  // receive deadline that declares everything dead instantly).
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
  std::vector<Life> lives;
  try {
    shards_.reserve(options_.shard_count);
    for (std::size_t i = 0; i < options_.shard_count; ++i) {
      shards_.push_back(std::make_unique<Shard>());
      shards_[i]->index = static_cast<std::uint32_t>(i);
    }
    // Fork every worker before awaiting any hello, so their startups
    // overlap. No stream is routed yet, so none migrates.
    for (auto& shard : shards_) lives.push_back(start_life(*shard));
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      join_life(*shards_[i], lives[i]);
    }
  } catch (...) {
    // The destructor will not run for a throwing constructor: reap every
    // worker already forked so a failed startup leaks no processes (a
    // failed join_life has reaped its own).
    for (auto& shard : shards_) {
      if (shard->pid > 0) kill_and_reap(shard->pid);
    }
    throw;
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard* shard = shards_[i].get();
    shard->thread =
        std::thread([this, shard, life = std::move(lives[i])]() mutable {
          run_slot(*shard, std::move(life));
        });
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
  state_cv_.notify_all();  // also cuts a slot thread's backoff short
  replay_.fail();  // release any producer blocked on back-pressure

  const std::vector<std::uint8_t> payload;  // empty shutdown payload
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      conn = shard->conn;
    }
    if (!conn) continue;
    conn->send(MessageType::kShutdown, payload);
    // Wakes the slot thread wherever it waits on this socket: serving a
    // life, or a starting life's hello or re-teach.
    conn->shutdown();
  }
  // Each slot thread reaps its own worker on the way out.
  for (auto& shard : shards_) shard->thread.join();
}

ShardRouter::Life ShardRouter::start_life(Shard& shard) {
  Life life;
  life.arena = ResultArena::create();
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
    throw TransportError(std::string("ShardRouter: socketpair: ") +
                         std::strerror(errno));
  }
  Socket worker_end(ends[1]);
  life.conn = std::make_shared<MessageConnection>(Socket(ends[0]));
  life.conn->set_recv_timeout(options_.connect_timeout_ms);
  const std::string socket_arg = std::to_string(worker_end.fd());
  const std::string arena_arg = std::to_string(life.arena->fd());
  const std::string shard_arg = std::to_string(shard.index);
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
    // Every arena and socket fd is close-on-exec; only this life's own
    // two survive the exec, so no worker can see a sibling's results or
    // keep a sibling's socket open past that sibling's death.
    ::fcntl(worker_end.fd(), F_SETFD, 0);
    ::fcntl(life.arena->fd(), F_SETFD, 0);
    // execv only returns on failure.
    const char* argv[] = {options_.worker_binary.c_str(),
                          socket_arg.c_str(),
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
  // The worker's death shows as EOF only once every copy of its end is
  // closed, so the router keeps none.
  worker_end.close();
  std::lock_guard<std::mutex> lock(state_mutex_);
  shard.pid = pid;
  // From here the destructor's shutdown broadcast reaches this life and
  // wakes join_life's waits. The slot is not alive, so nothing routes here.
  shard.conn = life.conn;
  return life;
}

ShardRouter::Reassigned ShardRouter::join_life(Shard& shard, Life& life) {
  Reassigned migrated;
  try {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shutting_down_) throw TransportError("ShardRouter: shutting down");
    }
    std::vector<std::uint8_t> payload;
    expect_message(*life.conn, MessageType::kHello, payload, "hello");
    if (decode_hello(payload.data(), payload.size()).shard != shard.index) {
      throw TransportError("ShardRouter: hello names the wrong shard");
    }
    life.conn->set_recv_timeout(options_.heartbeat_timeout_ms);

    // Re-teach, then rejoin, all under the teach mutex: the mirror cannot
    // change between the snapshot taught here and the instant the shard
    // becomes routable, so its model set equals the cluster's exactly.
    std::lock_guard<std::mutex> teach(teach_mutex_);
    for (const runtime::ModelId id : mirror_.ids()) {
      const auto entry = mirror_.resolve(id);
      if (!entry) continue;  // unreachable under teach_mutex_; be safe
      encode_register_model(id, *entry->model, payload);
      life.conn->send(MessageType::kRegisterModel, payload);
      // Nothing else reads this connection yet, so the ack is awaited
      // right here: a shard that owns no streams has nothing else to say.
      expect_message(*life.conn, MessageType::kModelAck, payload,
                     "model ack");
      const ModelAckMsg ack = decode_model_ack(payload.data(), payload.size());
      if (!ack.ok || ack.model != id) {
        throw TransportError("ShardRouter: model " + std::to_string(id) +
                             " re-teach rejected: " + ack.error);
      }
    }

    // Rejoin: flip alive, rebuild the ring, and quiesce every stream the
    // ring now assigns to this shard — atomically, so no producer can
    // reach the fresh worker ahead of its replay. Streams whose route
    // already pointed at this slot (a full outage parked them) are
    // reassigned-in-place for the same quiesce-then-replay treatment: the
    // frames they logged must go to the NEW process, rebase-anchored.
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutting_down_) throw TransportError("ShardRouter: shutting down");
    shard.alive = true;
    shard.rejoined_at = Clock::now();
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
    state_cv_.notify_all();
  } catch (...) {
    // A life that never joined leaves nothing behind.
    pid_t pid;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      pid = shard.pid;
      shard.pid = -1;
      shard.conn.reset();
    }
    kill_and_reap(pid);
    throw;
  }
  return migrated;
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
  // Serialize against a shard rejoin: a slot thread teaches the mirror's
  // model set to the returning worker under this same mutex, so it can
  // never miss a model registered concurrently (nor double-apply a retire)
  // between its snapshot and the instant it becomes routable.
  std::lock_guard<std::mutex> teach(teach_mutex_);
  std::vector<std::uint8_t> payload;
  encode_register_model(id, *model, payload);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    acks_[id].clear();
  }
  broadcast(MessageType::kRegisterModel, payload);
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
      // Build the message before erasing: `shard` and `ack` live in the
      // map node the erase frees.
      const std::string error = "ShardRouter::register_model: shard " +
                                std::to_string(shard) +
                                " rejected model: " + ack.error;
      acks_.erase(id);
      throw std::runtime_error(error);
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
  broadcast(MessageType::kRetireModel, payload);
}

bool ShardRouter::broadcast(MessageType type,
                            const std::vector<std::uint8_t>& payload) {
  bool any_alive = false;
  for (auto& shard : shards_) {
    std::shared_ptr<MessageConnection> conn;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shard->alive) conn = shard->conn;
    }
    if (!conn) continue;
    any_alive = true;
    conn->send(type, payload);
  }
  return any_alive;
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
    if (!broadcast(MessageType::kDrain, payload)) {
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
  broadcast(MessageType::kStatsPull, {});  // no payload
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
  broadcast(MessageType::kTracePull, {});  // no payload
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

void ShardRouter::run_slot(Shard& shard, Life life) {
  do {
    serve(shard, life);
    // Wakes every thread still sending to this life — producers and a
    // migrate-back replay — before the failure path needs their locks.
    life.conn->shutdown();
    handle_shard_failure(shard);
    if (life.migrate_back.joinable()) life.migrate_back.join();
    life = Life{};  // unmaps the arena: no view into it is left
  } while (respawn(shard, life));
  // The router is stopping (a given-up slot's worker is already reaped).
  // Give a worker that was told to shut down a moment to exit cleanly,
  // then make sure.
  pid_t pid;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    pid = shard.pid;
    shard.pid = -1;
  }
  if (pid <= 0) return;
  int status = 0;
  for (int i = 0; i < 200; ++i) {
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || done < 0) return;
    ::usleep(5000);
  }
  kill_and_reap(pid);
}

bool ShardRouter::respawn(Shard& shard, Life& life) {
  Reassigned migrated;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      if (shutting_down_ || options_.respawn_max_attempts == 0 ||
          shard.respawn_abandoned) {
        return false;
      }
      // Attempt k (1-based) of the slot's flap streak waits
      // 2^(k-1) * respawn_backoff_ms; shutdown cuts the wait short.
      const auto backoff =
          std::chrono::milliseconds(options_.respawn_backoff_ms) *
          (std::int64_t{1}
           << std::min<std::size_t>(shard.respawn_attempts - 1, 20));
      if (state_cv_.wait_for(lock, backoff, [&] { return shutting_down_; })) {
        return false;
      }
    }
    try {
      life = start_life(shard);
      migrated = join_life(shard, life);
      break;
    } catch (const std::exception& error) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (shutting_down_) return false;
      obs::log(obs::LogLevel::kError, "router", "shard %u respawn failed: %s",
               shard.index, error.what());
      schedule_respawn_locked(shard);
      if (ring_.empty() && !respawn_possible_locked()) {
        // The whole cluster is gone and this was the last hope of
        // capacity: release producers blocked on back-pressure.
        replay_.fail();
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.workers_respawned;
    counters_.streams_migrated_back += migrated.size();
    obs::emit_event(obs::EventType::kShardRespawned, shard.index,
                    shard.respawn_attempts);
    if (!migrated.empty()) {
      obs::emit_event(obs::EventType::kStreamsMigratedBack, shard.index,
                      migrated.size());
    }
  }
  obs::log(obs::LogLevel::kInfo, "router",
           "shard %u respawned and rejoined (%zu streams migrated back)",
           shard.index, migrated.size());
  if (!migrated.empty()) {
    life.migrate_back = std::thread(
        [this, migrated = std::move(migrated)] { replay_streams(migrated); });
  }
  return true;
}

void ShardRouter::serve(Shard& shard, Life& life) {
  const std::size_t shard_index = shard.index;
  MessageConnection& conn = *life.conn;
  MessageType type;
  std::vector<std::uint8_t> payload;
  bool escalate = false;
  for (;;) {
    if (escalate) break;
    try {
      if (conn.recv(type, payload) != RecvStatus::kOk) break;
    } catch (const std::exception& error) {
      obs::log(obs::LogLevel::kWarn, "router",
               "shard %zu receive error: %s", shard_index, error.what());
      break;
    }
    try {
      switch (type) {
        case MessageType::kResult: {
          // Validated before any routing decision, so a bad descriptor
          // downs the shard even when its stream is stale. The region is
          // released once handled — delivered, stale, or never routed.
          const ResultMsg result =
              decode_result(payload.data(), payload.size());
          handle_result(shard_index, result, life.arena->view(result));
          life.arena->release();
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
      // unwind through the slot thread and terminate the process.
      obs::log(obs::LogLevel::kError, "router",
               "shard %zu decode error: %s", shard_index, error.what());
      break;
    }
  }
}

void ShardRouter::handle_shard_failure(Shard& shard) {
  Reassigned rehashed;
  bool all_dead = false;
  pid_t pid = -1;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shutting_down_) return;
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
    shard.conn.reset();
    // Take the pid out of the slot before reaping: a respawn will give it
    // a fresh pid, and a stale one must never be signalled again (the
    // kernel may have reused it for a different shard's worker by then).
    pid = shard.pid;
    shard.pid = -1;
    // A life that outlived one heartbeat timeout was stable: its death
    // starts a fresh flap streak, with the full respawn budget.
    if (Clock::now() - shard.rejoined_at >
        std::chrono::milliseconds(options_.heartbeat_timeout_ms)) {
      shard.respawn_attempts = 0;
    }
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
  if (pid > 0) kill_and_reap(pid);
  if (all_dead) return;  // nothing to replay onto (yet)
  replay_streams(rehashed);
}

void ShardRouter::replay_streams(const Reassigned& reassigned) {
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

void ShardRouter::schedule_respawn_locked(Shard& shard) {
  if (options_.respawn_max_attempts == 0) return;  // self-healing disabled
  if (shard.respawn_attempts >= options_.respawn_max_attempts) {
    // Flap detection: this slot crashed right back after every respawn in
    // the streak. Give up on it — the ring stays rebalanced onto the
    // survivors, exactly as if respawn were disabled.
    shard.respawn_abandoned = true;
    ++counters_.respawns_abandoned;
    obs::emit_event(obs::EventType::kShardRespawnAbandoned, shard.index,
                    shard.respawn_attempts);
    obs::log(obs::LogLevel::kError, "router",
             "giving up on shard %u after %zu failed respawns", shard.index,
             shard.respawn_attempts);
    state_cv_.notify_all();  // drain() may be waiting on this verdict
    return;
  }
  ++shard.respawn_attempts;
}

bool ShardRouter::respawn_possible_locked() const {
  if (options_.respawn_max_attempts == 0) return false;
  for (const auto& shard : shards_) {
    if (!shard->alive && !shard->respawn_abandoned) return true;
  }
  return false;
}

}  // namespace eigenmaps::dist
