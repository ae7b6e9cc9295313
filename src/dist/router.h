// The shard router: front door of the multi-process serving cluster
// (DESIGN.md §12). Spawns N eigenmaps_shard_worker processes, each
// wrapping its own ReconstructionEngine + ModelRegistry, and
// consistent-hashes stream ids onto them over the local-socket protocol.
//
// Delivery contract (the same one ReconstructionEngine gives in-process):
// every pushed frame is reconstructed and delivered to the result callback
// exactly once and in sequence order per stream — including across a shard
// death, when the dead shard's streams re-hash onto survivors and the
// router replays their un-acked frames from the bounded replay log.
//
// Model lifecycle is cluster-wide: register_model broadcasts the full
// model to every shard and blocks until each live shard has acked, and
// only then publishes it to the router's local mirror registry — so no
// frame can route for a model some shard might not know, and a rehash
// never has to re-teach a survivor.
//
// The cluster is also self-healing: a supervisor thread respawns a dead
// worker with exponential backoff (RouterOptions::respawn_*), re-runs the
// hello handshake on the still-open listener, re-teaches it every mirror
// model before it becomes routable, then re-inserts it into the ring and
// migrates its streams back with the same quiesce-then-replay protocol the
// failure path uses — so the exactly-once in-order contract holds across
// rejoin exactly as it does across death.
#ifndef EIGENMAPS_DIST_ROUTER_H
#define EIGENMAPS_DIST_ROUTER_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "dist/cluster_stats.h"
#include "dist/replay_log.h"
#include "dist/transport.h"
#include "numerics/matrix.h"
#include "obs/trace.h"
#include "runtime/registry.h"

namespace eigenmaps::dist {

class ResultArena;

struct RouterOptions {
  /// Worker processes to spawn. Must be positive.
  std::size_t shard_count = 2;
  /// Path to the eigenmaps_shard_worker binary (no default: the caller
  /// knows where its build put it; tests get it from EIGENMAPS_WORKER_BIN).
  std::string worker_binary;
  /// Directory for the router's Unix domain socket.
  std::string socket_dir = "/tmp";
  /// Per-shard engine knobs, forwarded on the worker command line.
  /// 0 worker threads = the worker's own default (EIGENMAPS_THREADS).
  std::size_t worker_threads = 1;
  std::size_t batch_size = 32;
  /// Worker -> router heartbeat period, and how long the router waits
  /// without hearing anything (heartbeat or traffic) before declaring the
  /// shard dead.
  int heartbeat_interval_ms = 50;
  int heartbeat_timeout_ms = 2000;
  /// Bound on un-acked frames across all streams (producer back-pressure).
  std::size_t replay_capacity = 4096;
  /// Virtual nodes per shard on the consistent-hash ring. More nodes
  /// spread a dead shard's streams more evenly over the survivors.
  std::size_t virtual_nodes = 16;
  /// Worker spawn/handshake deadline (initial spawn and respawn alike).
  int connect_timeout_ms = 10000;
  /// Self-healing: how many consecutive failed lives of one shard slot the
  /// supervisor tolerates before giving up on it (flap detection — a
  /// worker that crashes right back after every respawn must not be
  /// restarted forever). The counter resets once a respawned worker stays
  /// up for heartbeat_timeout_ms. 0 disables respawn entirely: a dead
  /// shard's streams stay on the survivors, as before this knob existed.
  std::size_t respawn_max_attempts = 3;
  /// Backoff before respawn attempt k (1-based) of a slot's current flap
  /// streak: 2^(k-1) * respawn_backoff_ms. Must be positive when respawn
  /// is enabled.
  int respawn_backoff_ms = 100;
};

/// Multi-process shard router. Thread-safe for concurrent producers; the
/// result callback runs on per-shard reader threads and must not call back
/// into the router. The maps view it receives points into the shard's
/// shared-memory result arena and is only valid for the duration of the
/// callback — copy to keep.
class ShardRouter {
 public:
  /// stream id, global sequence of the first row, maps (one row per frame,
  /// in sequence order; valid only during the callback).
  using ResultCallback =
      std::function<void(std::uint64_t stream, std::uint64_t first_seq,
                         numerics::ConstMatrixView maps)>;

  /// Spawns the workers and completes the hello handshake with each;
  /// throws TransportError when a worker fails to come up in time and
  /// std::invalid_argument when `options` is malformed (zero shard count
  /// or replay capacity, empty worker binary, non-positive timeouts) —
  /// loudly at construction, never deep inside spawn_worker.
  ShardRouter(RouterOptions options, ResultCallback on_result);
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Broadcasts `model` to every live shard, blocks until all acked, then
  /// publishes it to the local mirror (push_frame validates against the
  /// mirror). Registering a live id is a cluster-wide hot swap. Throws
  /// std::runtime_error when any shard rejects the model.
  std::uint64_t register_model(
      runtime::ModelId id,
      std::shared_ptr<const core::ReconstructionModel> model);

  /// Drops `id` everywhere (cluster-wide unregister).
  void retire_model(runtime::ModelId id);

  /// Routes one frame of `stream` to its owner shard; returns the frame's
  /// global sequence number. Validates eagerly against the mirror registry
  /// (unknown model, frame width, infeasible mask all throw
  /// std::invalid_argument here, never inside a worker). Blocks on the
  /// replay-log bound (back-pressure); throws std::runtime_error when the
  /// router is shutting down, or when a NEW stream arrives while no shard
  /// is alive and none can come back. Frames of already-routed streams are
  /// accepted during a full outage with a respawn pending — they park in
  /// the replay log and replay once a worker rejoins.
  std::uint64_t push_frame(
      std::uint64_t stream, numerics::ConstVectorView readings,
      runtime::ModelId model = 0,
      const core::SensorBitmask& mask = core::SensorBitmask());

  /// Asks `stream`'s owner to cut its partial batch.
  void flush(std::uint64_t stream);

  /// Flushes and blocks until every routed frame has been delivered and
  /// acked (repeating after a mid-drain shard failure until the replay log
  /// is empty). Callers must have stopped producing.
  void drain();

  /// Pulls an EngineStats snapshot from every live shard and merges them
  /// with the router's own counters. The aggregate's event list includes
  /// the router process's own structured events (shard lifecycle, replay
  /// windows) alongside the workers' (hot swaps, drift, retrains).
  ClusterStats stats();

  /// Collects every span recorded since the last call: the router's own
  /// rings (route/replay/ack spans) drained locally, plus a kTracePull
  /// round to every live shard for its engine-side spans. The destructor
  /// runs one final collection and appends it to EIGENMAPS_TRACE_OUT, so
  /// calling this is only needed for mid-run dumps or custom sinks.
  std::vector<obs::SpanRecord> drain_trace();

  std::size_t shard_count() const;
  std::size_t alive_count() const;
  pid_t shard_pid(std::size_t shard) const;

  /// Chaos hook: SIGKILLs a worker process outright (the router then
  /// notices through the broken connection, exactly as for a real crash).
  void kill_shard(std::size_t shard);

 private:
  struct Shard;
  struct StreamRoute;

  /// Rejects malformed options with std::invalid_argument; the validated
  /// copy initializes options_.
  static RouterOptions validate(RouterOptions options);

  /// Forks/execs one worker life with a fresh result arena, which waits in
  /// the shard slot until that life's reader takes it.
  void spawn_worker(std::size_t shard);
  /// One per worker life. Owns the life's result arena, so the mapping
  /// outlives every view the reader hands out and is unmapped only after
  /// the reader (and the failure path it runs) has finished.
  void reader_loop(std::size_t shard, std::shared_ptr<MessageConnection> conn,
                   std::unique_ptr<ResultArena> arena);
  void monitor_loop();
  void handle_shard_failure(std::size_t shard);
  void handle_result(std::size_t shard, const ResultMsg& msg,
                     numerics::ConstMatrixView maps);
  /// The self-healing supervisor: sleeps until a dead shard's backoff
  /// expires, then tries to bring it back.
  void respawn_loop();
  /// One respawn attempt: fork/exec, re-accept on the listener, re-teach
  /// every mirror model, then atomically rejoin the ring and migrate
  /// streams back. On failure schedules the next attempt (or abandons the
  /// slot). Returns whether the shard rejoined.
  bool attempt_respawn(std::size_t shard);
  /// state_mutex_ held: arms the next respawn of `shard` per its flap
  /// streak, or abandons the slot once the streak hits the cap.
  void schedule_respawn_locked(Shard& shard);
  /// Cleanup for a failed respawn attempt: reaps the half-started child,
  /// schedules the next attempt (or abandons), and poisons the replay log
  /// when no capacity can ever return. Always returns false.
  bool fail_respawn_attempt(Shard& shard);
  /// state_mutex_ held: whether any slot still has a respawn queued or
  /// running — i.e. whether lost capacity can still come back.
  bool respawn_possible_locked() const;
  /// Quiesce-then-replay for streams just reassigned (by a failure rehash
  /// or a rejoin migrate-back): per stream, under its ingest lock, clears
  /// `replaying` and re-sends the un-acked frames to the new owner, the
  /// first one rebase-flagged so the owner re-anchors its seq mapping.
  void replay_streams(
      const std::vector<std::pair<std::uint64_t,
                                  std::shared_ptr<StreamRoute>>>& reassigned);
  std::shared_ptr<StreamRoute> route_for(std::uint64_t stream);
  /// Ring lookup among live shards; throws std::runtime_error when none.
  std::uint32_t ring_lookup(std::uint64_t stream) const;
  void rebuild_ring();
  /// Sends one encoded frame to `stream`'s current owner (scratch buffer
  /// supplied by the caller). Returns whether the frame actually went out:
  /// a suppressed send (owner dead or stream quiesced for replay) is fine
  /// — the frame is in the replay log and the reassignment will replay it
  /// — but the caller must then keep any pending rebase mark.
  bool send_frame_to_owner(const StreamRoute& route, std::uint64_t stream,
                           std::uint64_t seq, runtime::ModelId model,
                           const core::SensorBitmask& mask,
                           numerics::ConstVectorView readings, bool rebase,
                           std::vector<std::uint8_t>& scratch,
                           bool traced = false, std::uint64_t origin_ns = 0);

  const RouterOptions options_;
  const ResultCallback on_result_;
  std::string socket_path_;
  /// Stays open for the router's whole life: respawned workers re-connect
  /// through the same path. The destructor close()s it to wake a respawn
  /// attempt blocked in accept().
  std::unique_ptr<UnixListener> listener_;

  /// Mirror of the cluster's registered models, for producer-side
  /// validation (width, mask feasibility) without a round-trip.
  runtime::ModelRegistry mirror_;
  ReplayLog replay_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread monitor_;
  std::thread respawner_;  // only started when respawn is enabled

  /// Serializes model-set changes against shard rejoin: register_model /
  /// retire_model hold it across broadcast+ack+mirror-publish, and a
  /// respawn holds it across re-teach+ring-rejoin, so a rejoined shard's
  /// model set always equals the mirror the instant it becomes routable.
  /// Ordered before state_mutex_; never held by reader threads.
  std::mutex teach_mutex_;

  /// Guards routes_, ring_, shard liveness/heartbeat/stats/ack/drain/
  /// respawn bookkeeping, and counters_. Never held across a socket send
  /// or the result callback.
  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;  // acks, stats replies, drain dones
  std::map<std::uint64_t, std::shared_ptr<StreamRoute>> routes_;
  std::map<std::uint64_t, std::uint32_t> ring_;
  std::map<runtime::ModelId, std::map<std::uint32_t, ModelAckMsg>> acks_;
  std::uint64_t drain_token_ = 0;
  std::uint64_t stats_generation_ = 0;
  std::uint64_t trace_generation_ = 0;
  RouterCounters counters_;
  bool shutting_down_ = false;
};

}  // namespace eigenmaps::dist

#endif  // EIGENMAPS_DIST_ROUTER_H
