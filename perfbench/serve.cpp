// The serving ledger: serves the paper-size PCA EigenMaps model (K = 16,
// M = 24 greedy Algorithm-1 sensors, built from a fresh simulation every
// run) through the public serving APIs — runtime::ReconstructionEngine
// in-process, or dist::ShardRouter over two single-threaded shard workers —
// under an open-loop frame generator, and reports latency from each
// frame's *due* time to the result callback that carries it.
//
//   perfbench_serve --workload engine-full --seed 1 --seconds 10 --trace 0
//                   --worker <path to eigenmaps_shard_worker>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (a separate run with the frame-lifecycle tracer on). Every layer is
// measured from outside: this file times calls into public functions and
// reads the counters and spans the modules already expose. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sched.h>

#include "core/allocation.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "core/workspace.h"
#include "dist/protocol.h"
#include "dist/router.h"
#include "ledger.h"
#include "numerics/isa.h"
#include "numerics/rng.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace {

using namespace eigenmaps;

constexpr std::size_t kOrder = 16;
constexpr std::size_t kSensors = 24;
constexpr std::size_t kStreams = 16;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kEngineWorkers = 2;
constexpr std::size_t kShards = 2;
constexpr runtime::ModelId kModel = 1;
/// Sensor noise added to the sampled maps (deg C, fixed-seed Gaussian).
constexpr double kNoiseSigma = 0.1;
/// Dropout masks: a pool above the FactorCache's 64-pattern capacity, each
/// mask 1..6 dead sensors, held by a stream for 1500..3500 of its frames.
constexpr std::size_t kMaskPool = 96;
constexpr std::size_t kMaxDead = 6;
constexpr std::uint64_t kEpochMin = 1500, kEpochMax = 3500;
/// The mask pool and each stream's mask schedule are fixed by the workload.
constexpr std::uint64_t kMaskSeed = 20120603;
/// Every kMseEvery-th frame of the light and heavy phases feeds recon_mse;
/// every kCheckEvery-th frame of every phase is copied and checked against
/// the fp64 reference after the phase (prime, so it walks all streams).
constexpr std::uint64_t kMseEvery = 64;
constexpr std::uint64_t kCheckEvery = 1021;
constexpr double kCheckTolerance = 1e-4;  // relative, the fp32 budget
constexpr int kSetupRepeats = 3;
/// Tail statistics are per window of the schedule, median over windows.
constexpr double kWindowS = 0.25;

std::uint64_t now_ns() { return obs::monotonic_ns(); }

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return 1e-9 * static_cast<double>(b - a);
}

/// Waits by sleeping while the deadline is far and spinning when it is
/// near, so the generator keeps to a microsecond schedule. Counts the time
/// it spent waiting.
struct SpinClock {
  std::uint64_t waited_ns = 0;

  std::uint64_t now() const { return now_ns(); }
  void wait_until(std::uint64_t deadline) {
    const std::uint64_t entry = now_ns();
    for (;;) {
      const std::uint64_t t = now_ns();
      if (t >= deadline) {
        waited_ns += t - entry;
        return;
      }
      if (deadline - t > 300'000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(deadline - t - 200'000));
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // leave the core's other work its slots
#endif
      }
    }
  }
};

// ---- workloads --------------------------------------------------------------

struct Workload {
  const char* name;
  bool routed;
  bool dropout;
  double light_fps;
  double heavy_fps;
  double limit_us;  // p99 limit of the slo_fps search
};

constexpr Workload kWorkloads[] = {
    {"engine-full", false, false, 40000.0, 150000.0, 5000.0},
    {"engine-dropout", false, true, 40000.0, 150000.0, 5000.0},
    {"routed-2shard", true, false, 10000.0, 30000.0, 20000.0},
};

// ---- setup ----------------------------------------------------------------------

struct SetupTimes {
  double experiment_s = 0.0;
  double allocate_s = 0.0;
  double model_s = 0.0;
  double spawn_s = 0.0;
  double total_s = 0.0;
};

struct Trained {
  std::unique_ptr<core::Experiment> experiment;
  std::shared_ptr<const core::ReconstructionModel> model;
};

/// Simulation + PCA, greedy Algorithm-1 placement, model build.
Trained train(SetupTimes& times) {
  Trained out;
  const std::uint64_t t0 = now_ns();
  const core::ExperimentConfig config;  // paper size
  out.experiment =
      std::make_unique<core::Experiment>(core::simulate_experiment(config));
  const std::uint64_t t1 = now_ns();
  const core::SensorLocations sensors =
      core::allocate_greedy(out.experiment->eigenmaps_basis(), kOrder, kSensors);
  const std::uint64_t t2 = now_ns();
  out.model = std::make_shared<const core::ReconstructionModel>(
      out.experiment->eigenmaps_basis(), kOrder, sensors,
      out.experiment->mean_map());
  const std::uint64_t t3 = now_ns();
  times.experiment_s = seconds_between(t0, t1);
  times.allocate_s = seconds_between(t1, t2);
  times.model_s = seconds_between(t2, t3);
  return out;
}

// ---- traffic --------------------------------------------------------------------

/// The dropout workload's validated masks: 1..kMaxDead dead sensors each,
/// every one accepted by FactorCache::validate under the cache's default
/// options (rank guard, condition ceiling) — the masks the serving engine
/// itself would serve. Part of the workload's
/// definition like its rates, so drawn from kMaskSeed rather than the run's
/// seed: per-mask error varies several-fold, and a seeded pool would make
/// recon_mse a measure of which masks a seed happened to draw.
std::vector<core::SensorBitmask> make_mask_pool(
    const std::shared_ptr<const core::ReconstructionModel>& model) {
  core::FactorCache scratch(model);
  numerics::Rng rng(kMaskSeed);
  std::vector<core::SensorBitmask> pool;
  for (int attempt = 0; pool.size() < kMaskPool && attempt < 10000;
       ++attempt) {
    const std::size_t dead_count = 1 + rng.next_u64() % kMaxDead;
    std::vector<std::size_t> dead;
    while (dead.size() < dead_count) {
      const std::size_t slot = rng.next_u64() % kSensors;
      if (std::find(dead.begin(), dead.end(), slot) == dead.end()) {
        dead.push_back(slot);
      }
    }
    core::SensorBitmask mask = core::SensorBitmask::except(kSensors, dead);
    if (std::find(pool.begin(), pool.end(), mask) != pool.end()) continue;
    try {
      scratch.validate(mask);
    } catch (const std::invalid_argument&) {
      continue;  // infeasible survivor set
    }
    pool.push_back(std::move(mask));
  }
  if (pool.size() < kMaskPool) {
    throw std::runtime_error("could not draw enough feasible dropout masks");
  }
  return pool;
}

/// One report line on the pool: factor conditions and build paths, as a
/// fresh cache of the served model reports them.
void describe_mask_pool(
    const std::shared_ptr<const core::ReconstructionModel>& model,
    const std::vector<core::SensorBitmask>& pool) {
  core::FactorCache cache(model);
  std::vector<double> conditions;
  std::size_t downdated = 0, refactored = 0, fell_back = 0;
  for (const core::SensorBitmask& mask : pool) {
    const auto factor = cache.factor(mask);
    conditions.push_back(factor->condition());
    if (factor->method() == core::MaskedFactor::Method::kDowndated) {
      ++downdated;
    } else {
      ++refactored;
      const std::size_t dead = kSensors - mask.active_slots().size();
      if (dead <= cache.options().downdate_limit) ++fell_back;
    }
  }
  std::sort(conditions.begin(), conditions.end());
  std::printf("# mask pool: %zu masks, factor condition median %.3g, p90 "
              "%.3g, max %.3g; %zu downdated, %zu refactored (%zu after the "
              "downdate fell back)\n",
              pool.size(), perfbench::quantile(conditions, 0.5),
              perfbench::quantile(conditions, 0.9), conditions.back(),
              downdated, refactored, fell_back);
}

/// The frames every stream sends: stream s's frame q is the simulated map
/// at trace index (offset_s + q) mod T sampled at the sensors plus noise,
/// offsets and noise drawn from the seed — the serve walks the whole
/// 2650-map trace ("refreshed" inputs). Dropout streams additionally hold a
/// mask from the pool for 1500..3500 of their frames at a time, on the
/// workload's fixed schedule.
class Traffic {
 public:
  Traffic(const core::Experiment& experiment,
          const core::ReconstructionModel& model, std::uint64_t seed,
          const std::vector<core::SensorBitmask>* masks)
      : maps_(experiment.snapshots().data()), masks_(masks) {
    const std::size_t trace = maps_.rows();
    readings_ = numerics::Matrix(trace, kSensors);
    numerics::Rng noise(seed * 104729 + 3);
    numerics::Vector sample(kSensors);
    for (std::size_t t = 0; t < trace; ++t) {
      model.sample_into(maps_.row_view(t), sample);
      for (std::size_t s = 0; s < kSensors; ++s) {
        readings_(t, s) = sample[s] + kNoiseSigma * noise.normal();
      }
    }
    numerics::Rng rng(seed * 1299709 + 5);
    offset_.resize(kStreams);
    for (auto& o : offset_) o = rng.next_u64() % trace;
    epochs_.resize(kStreams);
    if (masks_ != nullptr) {
      rng = numerics::Rng(kMaskSeed + 1);
      for (auto& stream : epochs_) {
        std::uint64_t start = 0;
        while (start < (1ull << 24)) {
          stream.push_back({start, rng.next_u64() % masks_->size()});
          start += kEpochMin + rng.next_u64() % (kEpochMax - kEpochMin + 1);
        }
      }
    }
  }

  /// Row t: the readings of trace map t (what every stream cycles through).
  const numerics::Matrix& trace_readings() const { return readings_; }
  std::size_t trace_index(std::uint64_t stream, std::uint64_t seq) const {
    return (offset_[stream] + seq) % maps_.rows();
  }
  numerics::ConstVectorView readings(std::uint64_t stream,
                                     std::uint64_t seq) const {
    return readings_.row_view(trace_index(stream, seq));
  }
  /// Ground truth: the simulated map the frame was sampled from.
  const double* truth(std::uint64_t stream, std::uint64_t seq) const {
    return maps_.row_data(trace_index(stream, seq));
  }
  const core::SensorBitmask& mask(std::uint64_t stream,
                                  std::uint64_t seq) const {
    if (masks_ == nullptr) return full_;
    const auto& e = epochs_[stream];
    auto it = std::upper_bound(
        e.begin(), e.end(), seq,
        [](std::uint64_t q, const Epoch& epoch) { return q < epoch.start; });
    return (*masks_)[std::prev(it)->mask];
  }

 private:
  struct Epoch {
    std::uint64_t start;
    std::size_t mask;
  };
  const numerics::Matrix& maps_;
  const std::vector<core::SensorBitmask>* masks_;
  numerics::Matrix readings_;
  std::vector<std::uint64_t> offset_;
  std::vector<std::vector<Epoch>> epochs_;
  core::SensorBitmask full_;
};

// ---- delivery collector ---------------------------------------------------------

/// The result callback's side: stamps each frame's delivery, checks
/// exactly-once in-order delivery per stream from (stream, first_seq,
/// rows), accumulates recon_mse on sampled frames and copies the
/// reference-checked ones. The generator pushes the streams round-robin,
/// so scheduled frame i of a phase is frame first[i mod S] + i / S of
/// stream i mod S; a stream's frames below its `first` are the phase's
/// prefill, checked for order but not timed.
class Collector {
 public:
  Collector(const Traffic& traffic, std::size_t cells)
      : traffic_(traffic), cells_(cells), next_seq_(kStreams, 0) {}

  void begin_phase(const std::vector<std::uint64_t>& first,
                   std::uint64_t frames, bool mse) {
    first_ = first;
    frames_ = frames;
    mse_ = mse;
    due_.assign(frames, 0);
    issued_.assign(frames, 0);
    done_.assign(frames, 0);
    fill_.assign(frames, 0);
    held_.assign(frames, 0);
    sq_err_.assign(mse ? (frames + kMseEvery - 1) / kMseEvery : 0, -1.0);
    checks_ = numerics::Matrix((frames + kCheckEvery - 1) / kCheckEvery, cells_);
    delivered_.store(0, std::memory_order_relaxed);
  }

  std::uint64_t stream_of(std::uint64_t i) const { return i % kStreams; }
  std::uint64_t seq_of(std::uint64_t i) const {
    return first_[i % kStreams] + i / kStreams;
  }
  /// Frame i is due at `due` and goes to push_frame at `issued`.
  void set_due(std::uint64_t i, std::uint64_t due, std::uint64_t issued) {
    due_[i] = due;
    issued_[i] = issued;
  }
  /// Scheduled frames of this phase delivered so far.
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  /// The next sequence number `stream` expects (read after a drain).
  std::uint64_t next_seq(std::uint64_t stream) const {
    return next_seq_[stream];
  }

  /// Runs on engine workers / router reader threads; callbacks of one
  /// stream are serialized by the serving layer.
  void on_result(std::uint64_t stream, std::uint64_t first_seq,
                 numerics::ConstMatrixView maps) {
    const std::uint64_t t = now_ns();
    const std::uint64_t rows = maps.rows();
    if (stream >= kStreams || maps.cols() != cells_ || rows == 0) {
      violations_.fetch_add(rows, std::memory_order_relaxed);
      return;
    }
    if (first_seq != next_seq_[stream]) {
      violations_.fetch_add(rows, std::memory_order_relaxed);  // gap/dup/order
    }
    next_seq_[stream] = first_seq + rows;
    const std::uint64_t first = first_[stream];
    const std::uint64_t last_seq = first_seq + rows - 1;
    const std::uint64_t last_i = (last_seq - first) * kStreams + stream;
    std::uint64_t scheduled = 0;
    for (std::uint64_t r = 0; r < rows; ++r) {
      const std::uint64_t seq = first_seq + r;
      if (seq < first) continue;  // prefill
      const std::uint64_t i = (seq - first) * kStreams + stream;
      if (last_i >= frames_ || done_[i] != 0) {
        violations_.fetch_add(1, std::memory_order_relaxed);  // stray/duplicate
        continue;
      }
      ++scheduled;
      done_[i] = t;
      fill_[i] = due_[last_i] - due_[i];
      held_[i] = issued_[last_i] - due_[last_i];
      if (mse_ && i % kMseEvery == 0) {
        const double* truth = traffic_.truth(stream, seq);
        const double* got = maps.row_data(r);
        double sum = 0.0;
        for (std::size_t c = 0; c < cells_; ++c) {
          const double d = got[c] - truth[c];
          sum += d * d;
        }
        sq_err_[i / kMseEvery] = sum / static_cast<double>(cells_);
      }
      if (i % kCheckEvery == 0) {
        std::memcpy(checks_.row_data(i / kCheckEvery), maps.row_data(r),
                    cells_ * sizeof(double));
      }
    }
    delivered_.fetch_add(scheduled, std::memory_order_relaxed);
  }

  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames() const { return frames_; }
  const std::vector<std::uint64_t>& due() const { return due_; }
  const std::vector<std::uint64_t>& done() const { return done_; }
  const std::vector<std::uint64_t>& fill() const { return fill_; }
  /// How late the frame's batch's last frame reached push_frame.
  const std::vector<std::uint64_t>& held() const { return held_; }
  const std::vector<double>& sq_err() const { return sq_err_; }
  const numerics::Matrix& checks() const { return checks_; }

 private:
  const Traffic& traffic_;
  const std::size_t cells_;
  std::vector<std::uint64_t> next_seq_;  // per stream, across phases
  std::vector<std::uint64_t> first_;     // per stream, this phase
  std::uint64_t frames_ = 0;
  bool mse_ = false;
  std::vector<std::uint64_t> due_, issued_, done_, fill_, held_;
  std::vector<double> sq_err_;
  numerics::Matrix checks_;
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> violations_{0};
};

// ---- the serving front ------------------------------------------------------------

/// One serving stack: the in-process engine (2 workers) or the router over
/// two single-threaded shard processes, both delivering into `collector`.
class Server {
 public:
  Server(bool routed, const std::string& worker_binary,
         const std::shared_ptr<const core::ReconstructionModel>& model,
         Collector* collector) {
    auto callback = [collector](std::uint64_t stream, std::uint64_t first_seq,
                                numerics::ConstMatrixView maps) {
      if (collector != nullptr) collector->on_result(stream, first_seq, maps);
    };
    if (routed) {
      dist::RouterOptions options;
      options.shard_count = kShards;
      options.worker_binary = worker_binary;
      options.socket_dir = ".bench_build";
      options.worker_threads = 1;
      options.batch_size = kBatch;
      router_ = std::make_unique<dist::ShardRouter>(options, callback);
      router_->register_model(kModel, model);
    } else {
      registry_ = std::make_unique<runtime::ModelRegistry>();
      registry_->register_model(kModel, model);
      runtime::EngineOptions options;
      options.worker_count = kEngineWorkers;
      options.batch_size = kBatch;
      engine_ = std::make_unique<runtime::ReconstructionEngine>(
          *registry_, options, callback);
    }
  }

  bool routed() const { return router_ != nullptr; }
  std::size_t serving_threads() const {
    return routed() ? kShards : kEngineWorkers;
  }

  void push(std::uint64_t stream, numerics::ConstVectorView frame,
            const core::SensorBitmask& mask) {
    if (router_) {
      router_->push_frame(stream, frame, kModel, mask);
    } else {
      engine_->push_frame(stream, frame, kModel, mask);
    }
  }
  void drain() {
    if (router_) {
      router_->drain();
    } else {
      engine_->drain();
    }
  }
  /// Engine counters: the engine's own, or every shard's merged.
  runtime::EngineStats stats() {
    return router_ ? router_->stats().aggregate : engine_->stats();
  }
  dist::RouterCounters router_counters() {
    return router_ ? router_->stats().router : dist::RouterCounters{};
  }
  /// Spans since the last call: this process's rings, plus the shards'.
  std::vector<obs::SpanRecord> drain_trace() {
    return router_ ? router_->drain_trace() : obs::drain_spans();
  }
  std::vector<pid_t> shard_pids() const {
    std::vector<pid_t> pids;
    for (std::size_t s = 0; router_ && s < router_->shard_count(); ++s) {
      pids.push_back(router_->shard_pid(s));
    }
    return pids;
  }

 private:
  std::unique_ptr<runtime::ModelRegistry> registry_;
  std::unique_ptr<runtime::ReconstructionEngine> engine_;
  std::unique_ptr<dist::ShardRouter> router_;
};

// ---- phases ---------------------------------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // refused, undelivered, duplicate, out of order, wrong
  double worst_check_error = 0.0;
};

struct Phase {
  double rate = 0.0;
  std::uint64_t frames = 0;
  double wall_s = 0.0;
  std::vector<double> arrival_us;  // delivered frames' latency, due order
  /// The same frames' latency minus batch fill: callback time minus the
  /// due time of the last frame in the frame's batch. What the serving
  /// stack itself adds (queueing, solve, expand, deliver, and the hop when
  /// routed), without the fill the rate and batch size alone decide.
  std::vector<double> service_us;
  std::size_t windows = 1;         // equal time windows for tail stats
  double fill_mean_us = 0.0;
  /// Per frame, how late its batch's last frame was pushed: the generator
  /// held up behind a blocking push_frame, or by the host. Part of the
  /// latency that no serving stage's span covers.
  double held_mean_us = 0.0;
  double late_p99_us = 0.0;  // generator lateness, windowed like latency
  /// The generator's own time (neither waiting for a due time nor inside
  /// push_frame) as a share of the schedule. Lateness caused by a blocking
  /// push is the system's stall, charged to latency; lateness the
  /// generator causes itself means the offered load was not offered.
  double gen_own_frac = 0.0;
  double push_p99_us = 0.0;  // only when pushes were timed
  bool backlog_growing = false;

  /// q-quantile per time window, median over the windows.
  double windowed_quantile(double q) const {
    return windowed_quantile(arrival_us, q);
  }
  double windowed_quantile(const std::vector<double>& samples, double q) const {
    return perfbench::windowed_median(
        samples, windows,
        [q](const std::vector<double>& w) { return perfbench::quantile(w, q); });
  }
  double windowed_cvar99() const {
    return perfbench::windowed_median(
        arrival_us, windows,
        [](const std::vector<double>& w) { return perfbench::cvar(w, 0.99); });
  }
};

/// The two segments of one measurement as a single phase: samples in
/// schedule order, windows added up (segments of equal length keep equal
/// windows).
Phase concat(const Phase& a, const Phase& b) {
  Phase out = a;
  out.frames += b.frames;
  out.wall_s += b.wall_s;
  out.windows += b.windows;
  out.arrival_us.insert(out.arrival_us.end(), b.arrival_us.begin(),
                        b.arrival_us.end());
  out.service_us.insert(out.service_us.end(), b.service_us.begin(),
                        b.service_us.end());
  out.late_p99_us = std::max(a.late_p99_us, b.late_p99_us);
  out.gen_own_frac = std::max(a.gen_own_frac, b.gen_own_frac);
  return out;
}

class Runner {
 public:
  Runner(Server& server, Collector& collector, const Traffic& traffic,
         const core::ReconstructionModel& model,
         const std::shared_ptr<const core::ReconstructionModel>& model_ptr,
         double limit_us)
      : server_(server),
        collector_(collector),
        traffic_(traffic),
        model_(model),
        reference_(model_ptr),
        limit_us_(limit_us) {}

  /// Offers `seconds` of frames at `rate`, round-robin over the streams,
  /// then drains and accounts every frame. Tail statistics are taken per
  /// `window_s` window of the schedule.
  ///
  /// Each phase starts with stream s holding s * B / S prefilled frames
  /// (pushed untimed just before the schedule), so the streams' batches
  /// fill in staggered phase like independent chips', instead of all 16
  /// cutting within one round of the schedule.
  Phase run(double rate, double seconds, double window_s, bool mse,
            bool time_pushes, Tally& tally) {
    Phase phase;
    phase.rate = rate;
    phase.windows = static_cast<std::size_t>(
        std::max(1.0, std::round(seconds / window_s)));
    std::uint64_t n = static_cast<std::uint64_t>(rate * seconds);
    n = std::max<std::uint64_t>(kStreams, (n / kStreams) * kStreams);
    phase.frames = n;
    std::uint64_t refused = 0;
    const auto push = [&](std::uint64_t stream, std::uint64_t seq) {
      try {
        server_.push(stream, traffic_.readings(stream, seq),
                     traffic_.mask(stream, seq));
      } catch (const std::exception& e) {
        if (refused++ == 0) std::fprintf(stderr, "push refused: %s\n", e.what());
      }
    };
    std::vector<std::uint64_t> first(kStreams);
    std::uint64_t prefill = 0;
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      first[s] = pushed_[s] + s * kBatch / kStreams;
      prefill += first[s] - pushed_[s];
    }
    collector_.begin_phase(first, n, mse);
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      for (; pushed_[s] < first[s]; ++pushed_[s]) push(s, pushed_[s]);
    }

    std::vector<std::uint64_t> late;
    std::vector<double> push_us;
    if (time_pushes) push_us.resize(n);
    double outstanding_3q = 0.0;  // undelivered frames 3/4 through
    std::uint64_t push_ns = 0;
    const std::uint64_t start = now_ns() + 1'000'000;
    const perfbench::OpenLoop loop(rate, start);
    SpinClock clock;
    const std::uint64_t loop_entry = now_ns();
    loop.run(
        n, clock,
        [&](std::uint64_t i, std::uint64_t due) {
          const std::uint64_t t0 = now_ns();
          collector_.set_due(i, due, t0);
          push(collector_.stream_of(i), collector_.seq_of(i));
          const std::uint64_t took = now_ns() - t0;
          push_ns += took;
          if (time_pushes) push_us[i] = 1e-3 * static_cast<double>(took);
          if (i + 1 == 3 * n / 4) {
            outstanding_3q = static_cast<double>(i + 1) -
                             static_cast<double>(collector_.delivered());
          }
        },
        late);
    // A growing backlog: undelivered frames beyond what the rate and the
    // latency limit keep legitimately in flight (plus partial batches),
    // both 3/4 through the schedule and, higher still, at its end — one
    // late stall past the limit is not growth.
    const std::uint64_t end = now_ns();
    const double outstanding =
        static_cast<double>(n) - static_cast<double>(collector_.delivered());
    const double allowed =
        rate * limit_us_ * 1e-6 + static_cast<double>(kStreams * kBatch);
    phase.backlog_growing = outstanding_3q > allowed && outstanding > allowed &&
                            outstanding > outstanding_3q;
    server_.drain();
    phase.wall_s = seconds_between(start, end);
    const double own_ns = static_cast<double>(end - loop_entry) -
                          static_cast<double>(clock.waited_ns + push_ns);
    phase.gen_own_frac =
        std::max(0.0, own_ns) / (1e9 * static_cast<double>(n) / rate);

    // Every pushed frame, prefill included, must have been delivered: the
    // per-stream sequence the collector reached is where the pushes ended.
    std::uint64_t missing = 0;
    for (std::uint64_t s = 0; s < kStreams; ++s) {
      pushed_[s] = first[s] + n / kStreams;
      if (collector_.next_seq(s) < pushed_[s]) {
        missing += pushed_[s] - collector_.next_seq(s);
      }
    }
    double fill_sum = 0.0, held_sum = 0.0;
    phase.arrival_us.reserve(n);
    phase.service_us.reserve(n);
    const auto& due = collector_.due();
    const auto& done = collector_.done();
    const auto& fill = collector_.fill();
    const auto& held = collector_.held();
    for (std::uint64_t i = 0; i < n; ++i) {
      if (done[i] == 0) continue;
      const double latency_us = 1e-3 * static_cast<double>(done[i] - due[i]);
      const double fill_us = 1e-3 * static_cast<double>(fill[i]);
      phase.arrival_us.push_back(latency_us);
      phase.service_us.push_back(latency_us - fill_us);
      fill_sum += fill_us;
      held_sum += 1e-3 * static_cast<double>(held[i]);
    }
    if (!phase.arrival_us.empty()) {
      const double count = static_cast<double>(phase.arrival_us.size());
      phase.fill_mean_us = fill_sum / count;
      phase.held_mean_us = held_sum / count;
    }
    std::vector<double> late_us(late.size());
    for (std::size_t i = 0; i < late.size(); ++i) {
      late_us[i] = 1e-3 * static_cast<double>(late[i]);
    }
    phase.late_p99_us = perfbench::windowed_median(
        late_us, phase.windows,
        [](const std::vector<double>& w) { return perfbench::quantile(w, 0.99); });
    if (time_pushes) {
      std::sort(push_us.begin(), push_us.end());
      phase.push_p99_us = perfbench::quantile(push_us, 0.99);
    }
    const std::uint64_t wrong = check_samples(tally);
    if (mse) {
      for (const double e : collector_.sq_err()) {
        if (e >= 0.0) {
          mse_sum_ += e;
          ++mse_count_;
        }
      }
    }
    const std::uint64_t violations = collector_.violations() - violations_seen_;
    violations_seen_ = collector_.violations();
    const std::uint64_t attempted = n + prefill;
    tally.attempted += attempted;
    tally.failed += std::min<std::uint64_t>(
        attempted, missing + violations + wrong + refused);
    return phase;
  }

  double recon_mse() const {
    return mse_count_ == 0 ? 0.0 : mse_sum_ / static_cast<double>(mse_count_);
  }

 private:
  /// Compares the copied deliveries against the fp64 reference (the
  /// model's own solve for full masks, a private FactorCache for masked
  /// frames); returns how many were outside the tolerance.
  std::uint64_t check_samples(Tally& tally) {
    const numerics::Matrix& copies = collector_.checks();
    const auto& done = collector_.done();
    numerics::Matrix reference(1, model_.cell_count());
    std::uint64_t wrong = 0;
    for (std::size_t k = 0; k < copies.rows(); ++k) {
      const std::uint64_t i = k * kCheckEvery;
      if (i >= collector_.frames() || done[i] == 0) continue;
      const std::uint64_t stream = collector_.stream_of(i);
      const std::uint64_t seq = collector_.seq_of(i);
      const numerics::ConstVectorView readings =
          traffic_.readings(stream, seq);
      const numerics::ConstMatrixView one(readings.data(), 1, kSensors,
                                          kSensors);
      reference_.reconstruct_batch_into(one, traffic_.mask(stream, seq),
                                        reference.view(), workspace_);
      double err = 0.0, scale = 0.0;
      for (std::size_t c = 0; c < model_.cell_count(); ++c) {
        err = std::max(err, std::fabs(copies(k, c) - reference(0, c)));
        scale = std::max(scale, std::fabs(reference(0, c)));
      }
      const double rel = scale > 0.0 ? err / scale : err;
      tally.worst_check_error = std::max(tally.worst_check_error, rel);
      if (!(rel <= kCheckTolerance)) ++wrong;
    }
    return wrong;
  }

  Server& server_;
  Collector& collector_;
  const Traffic& traffic_;
  const core::ReconstructionModel& model_;
  core::FactorCache reference_;
  core::Workspace workspace_;
  const double limit_us_;
  std::vector<std::uint64_t> pushed_ = std::vector<std::uint64_t>(kStreams, 0);
  std::uint64_t violations_seen_ = 0;
  double mse_sum_ = 0.0;
  std::uint64_t mse_count_ = 0;
};

// ---- metric output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_report(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json(bool correct, const Tally& tally,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Peak resident memory of this process plus the given live shard workers.
/// A worker's high-water mark is read from its own address space (VmHWM):
/// getrusage(RUSAGE_CHILDREN) would also count the parent pages a forked
/// child maps for the instant before it execs.
double peak_rss_mb(const std::vector<pid_t>& shards) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  for (const pid_t pid : shards) {
    const std::string path = "/proc/" + std::to_string(pid) + "/status";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      unsigned long long hwm = 0;
      if (std::sscanf(line, "VmHWM: %llu kB", &hwm) == 1) {
        kb += static_cast<double>(hwm);
        break;
      }
    }
    std::fclose(f);
  }
  return kb / 1024.0;
}

// ---- per-layer probes (trace runs) -------------------------------------------------

/// Median per-call time of fn(rep) over a time budget, in microseconds.
template <typename Fn>
double median_call_us(double budget_s, Fn&& fn) {
  std::vector<double> times;
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  for (std::size_t rep = 0; now_ns() < end || times.size() < 9; ++rep) {
    const std::uint64_t a = now_ns();
    fn(rep);
    times.push_back(1e-3 * static_cast<double>(now_ns() - a));
  }
  return perfbench::median(times);
}

volatile double g_sink = 0.0;

/// Store bandwidth of plain (non-streaming) double stores over an array at
/// least four times the last-level cache: the named bound of expand, which
/// writes every reconstructed map.
double store_gbps() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = 32l << 20;
  const std::size_t bytes = std::min<std::size_t>(
      std::max<std::size_t>(4 * static_cast<std::size_t>(llc), 64u << 20),
      std::size_t{1} << 30);
  std::vector<double> buffer(bytes / sizeof(double));  // first touch
  std::vector<double> rates;
  for (int pass = 0; pass < 5; ++pass) {
    const double v = 0.5 + pass;
    double* p = buffer.data();
    const std::size_t count = buffer.size();
    const std::uint64_t a = now_ns();
    for (std::size_t i = 0; i < count; ++i) p[i] = v;
    const std::uint64_t b = now_ns();
    g_sink = g_sink + p[count / 2];
    rates.push_back(static_cast<double>(bytes) / static_cast<double>(b - a));
  }
  return perfbench::median(rates);  // bytes per ns == GB/s
}

struct CoreLayer {
  double recon_us = 0.0, recon_refreshed_us = 0.0, expand_us = 0.0;
  double solve_us = 0.0, masked_us = 0.0;
  double miss_downdate_us = 0.0, miss_refactor_us = 0.0;
};

/// Direct single-thread calls into core at batch 32. "Warm" reuses one
/// input block and one output buffer; "refreshed" walks the whole trace
/// and rotates 16 output buffers.
CoreLayer probe_core(
    const std::shared_ptr<const core::ReconstructionModel>& model_ptr,
    const Traffic& traffic, const std::vector<core::SensorBitmask>& pool) {
  const core::ReconstructionModel& model = *model_ptr;
  const std::size_t cells = model.cell_count();
  CoreLayer out;
  numerics::Matrix block(kBatch, kSensors);
  for (std::size_t f = 0; f < kBatch; ++f) {
    block.set_row(f, traffic.readings(0, f));
  }
  numerics::Matrix maps(kBatch, cells);
  core::Workspace workspace;
  out.recon_us = median_call_us(0.3, [&](std::size_t) {
    model.reconstruct_batch_into(block, maps.view(), workspace);
  });
  const numerics::Matrix& trace = traffic.trace_readings();
  const std::size_t blocks = trace.rows() / kBatch;
  std::vector<numerics::Matrix> outs(16, numerics::Matrix(kBatch, cells));
  out.recon_refreshed_us = median_call_us(0.3, [&](std::size_t rep) {
    const numerics::ConstMatrixView in(trace.row_data((rep % blocks) * kBatch),
                                       kBatch, kSensors, kSensors);
    model.reconstruct_batch_into(in, outs[rep % outs.size()].view(),
                                 workspace);
  });

  // Expand alone, on the warm block's own coefficients.
  core::FactorCache cache(model_ptr);
  numerics::Matrix centered(kBatch, kSensors);
  for (std::size_t f = 0; f < kBatch; ++f) {
    for (std::size_t s = 0; s < kSensors; ++s) {
      centered(f, s) = block(f, s) - model.mean_at_sensors()[s];
    }
  }
  const numerics::Matrix alpha =
      cache.factor(core::SensorBitmask())->solve_batch(centered);
  out.expand_us = median_call_us(
      0.3, [&](std::size_t) { model.expand_into(alpha, maps.view()); });
  out.solve_us = out.recon_us - out.expand_us;

  const core::SensorBitmask& mask = pool.front();
  cache.reconstruct_batch_into(block, mask, maps.view(), workspace);
  out.masked_us = median_call_us(0.2, [&](std::size_t) {
    cache.reconstruct_batch_into(block, mask, maps.view(), workspace);
  });

  // First call on each pool mask in fresh caches, split by the build path
  // the cache's own counters report.
  std::vector<double> downdate, refactor;
  for (int round = 0; round < 3; ++round) {
    core::FactorCache fresh(model_ptr);
    for (const core::SensorBitmask& m : pool) {
      const core::FactorCacheStats before = fresh.stats();
      const std::uint64_t a = now_ns();
      fresh.reconstruct_batch_into(block, m, maps.view(), workspace);
      const double us = 1e-3 * static_cast<double>(now_ns() - a);
      const core::FactorCacheStats after = fresh.stats();
      if (after.refactors > before.refactors) {
        refactor.push_back(us);
      } else if (after.downdates > before.downdates) {
        downdate.push_back(us);
      }
    }
  }
  out.miss_downdate_us = perfbench::median(downdate);
  out.miss_refactor_us = perfbench::median(refactor);
  return out;
}

/// Per-frame stage means of a traced phase. Fill and push-held come from
/// the benchmark's due and push times; queue-wait, solve, expand and
/// deliver from the engine's batch spans, each weighing as many frames as
/// it covers. For
/// routed traffic the hop is measured from stitched spans too: the wire in
/// is the ingest span of each batch's last frame (router push -> resident
/// on the shard), the wire back the gap from the shard's deliver end to the
/// router's ack start.
struct StageLayer {
  double lat_mean_us = 0.0, fill_us = 0.0, held_us = 0.0;
  double queue_us = 0.0, solve_us = 0.0, expand_us = 0.0, deliver_us = 0.0;
  double hop_spans_us = 0.0;
  double busy_frac = 0.0;
  double route_p50_us = 0.0, ack_p50_us = 0.0;

  double engine_sum_us() const {
    return fill_us + held_us + queue_us + solve_us + expand_us + deliver_us;
  }
};

StageLayer stage_layer(const Phase& phase,
                       const std::vector<obs::SpanRecord>& spans,
                       std::size_t serving_threads) {
  StageLayer m;
  m.lat_mean_us = perfbench::mean(phase.arrival_us);
  m.fill_us = phase.fill_mean_us;
  m.held_us = phase.held_mean_us;
  double sums[obs::kStageCount] = {};
  double frames[obs::kStageCount] = {};
  double busy_us = 0.0;
  std::vector<double> route, ack;
  std::unordered_map<std::uint64_t, double> ingest_us;       // by frame g
  std::unordered_map<std::uint64_t, std::uint64_t> deliver;  // by first g
  const auto key = [](std::uint64_t stream, std::uint64_t seq) {
    return seq * kStreams + stream;
  };
  for (const obs::SpanRecord& s : spans) {
    const double us = 1e-3 * static_cast<double>(s.end_ns - s.start_ns);
    const auto stage = static_cast<obs::Stage>(s.stage);
    const bool on_shard = s.shard != obs::kRouterShard;
    switch (stage) {
      case obs::Stage::kQueueWait:
      case obs::Stage::kSolve:
      case obs::Stage::kExpand:
      case obs::Stage::kDeliver:
        sums[s.stage] += us * s.frames;
        frames[s.stage] += s.frames;
        if (stage != obs::Stage::kQueueWait) busy_us += us;
        if (stage == obs::Stage::kDeliver && on_shard) {
          deliver[key(s.stream, s.seq)] = s.end_ns;
        }
        break;
      case obs::Stage::kIngest:
        if (on_shard) ingest_us[key(s.stream, s.seq)] = us;
        break;
      case obs::Stage::kRoute:
        route.push_back(us);
        break;
      case obs::Stage::kAck:
        ack.push_back(us);
        break;
      default:
        break;
    }
  }
  const auto avg = [&](obs::Stage st) {
    const auto k = static_cast<std::size_t>(st);
    return frames[k] > 0 ? sums[k] / frames[k] : 0.0;
  };
  m.queue_us = avg(obs::Stage::kQueueWait);
  m.solve_us = avg(obs::Stage::kSolve);
  m.expand_us = avg(obs::Stage::kExpand);
  m.deliver_us = avg(obs::Stage::kDeliver);
  m.busy_frac = busy_us * 1e-6 /
                (static_cast<double>(serving_threads) * phase.wall_s);
  std::sort(route.begin(), route.end());
  std::sort(ack.begin(), ack.end());
  m.route_p50_us = perfbench::quantile(route, 0.5);
  m.ack_p50_us = perfbench::quantile(ack, 0.5);

  double hop_sum = 0.0, hop_frames = 0.0;
  for (const obs::SpanRecord& s : spans) {
    if (static_cast<obs::Stage>(s.stage) != obs::Stage::kAck) continue;
    const auto d = deliver.find(key(s.stream, s.seq));
    const auto in = ingest_us.find(key(s.stream, s.seq + s.frames - 1));
    if (d == deliver.end() || in == ingest_us.end()) continue;
    const double back_us =
        1e-3 * (static_cast<double>(s.start_ns) - static_cast<double>(d->second));
    hop_sum += (in->second + back_us) * s.frames;
    hop_frames += s.frames;
  }
  if (hop_frames > 0) m.hop_spans_us = hop_sum / hop_frames;
  return m;
}

/// Histogram of what was recorded between two stats() snapshots.
runtime::LatencyHistogram histogram_delta(const runtime::LatencyHistogram& after,
                                          const runtime::LatencyHistogram& before) {
  runtime::LatencyHistogram d = after;
  for (std::size_t i = 0; i < d.counts.size(); ++i) {
    d.counts[i] -= std::min(d.counts[i], before.counts[i]);
  }
  d.total -= std::min(d.total, before.total);
  return d;
}

/// Wire bytes one frame costs on the router <-> shard hop, from the
/// protocol's own encoders: a submit message per frame, plus a 32-frame
/// result message shared by its batch.
double wire_bytes_per_frame(const core::ReconstructionModel& model) {
  std::vector<std::uint8_t> buf;
  const numerics::Vector frame(kSensors, 50.0);
  dist::encode_submit_frame(0, 0, kModel, core::SensorBitmask(), frame, buf);
  const double submit = static_cast<double>(buf.size() + dist::WireHeader::kBytes);
  const numerics::Matrix maps(kBatch, model.cell_count(), 50.0);
  dist::encode_result(0, 0, maps, buf);
  const double result = static_cast<double>(buf.size() + dist::WireHeader::kBytes);
  return submit + result / static_cast<double>(kBatch);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string worker;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--worker") {
      a.worker = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int serve(const Args& args) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }
  if (workload->routed) {
    if (args.worker.empty() || ::access(args.worker.c_str(), X_OK) != 0) {
      throw std::invalid_argument("--worker must name the shard worker binary");
    }
  }
  const bool traced_run = args.trace == 1;
  if (traced_run) {
    // Worker span rings must hold a whole traced phase (shards inherit it).
    ::setenv("EIGENMAPS_TRACE_RING", "131072", 1);
  }

  std::printf("# context {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"run_seconds\": %g, \"usable_cores\": %zu, \"isa\": \"%s\", "
              "\"light_fps\": %g, \"heavy_fps\": %g, \"limit_us\": %g, "
              "\"streams\": %zu, \"batch\": %zu, \"serving_threads\": %zu, "
              "\"inputs\": \"refreshed\"}\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.trace, args.seconds, usable_cores(), numerics::isa_name(),
              workload->light_fps, workload->heavy_fps, workload->limit_us,
              kStreams, kBatch, workload->routed ? kShards : kEngineWorkers);
  std::fflush(stdout);

  // -- setup, repeated: every repetition simulates, trains, places, builds
  //    and starts serving from scratch; the last one serves.
  std::vector<SetupTimes> setups;
  Trained trained;
  std::unique_ptr<Server> server;
  std::vector<core::SensorBitmask> pool;
  std::unique_ptr<Traffic> traffic;
  std::unique_ptr<Collector> collector;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    server.reset();
    collector.reset();
    traffic.reset();
    trained = Trained{};
    SetupTimes times;
    const std::uint64_t t0 = now_ns();
    trained = train(times);
    // Inputs are the benchmark's, not the system's: drawn outside the clock.
    const std::uint64_t pause = now_ns();
    pool = make_mask_pool(trained.model);
    traffic = std::make_unique<Traffic>(*trained.experiment, *trained.model,
                                        args.seed,
                                        workload->dropout ? &pool : nullptr);
    collector = std::make_unique<Collector>(*traffic, trained.model->cell_count());
    const std::uint64_t resume = now_ns();
    server = std::make_unique<Server>(workload->routed, args.worker,
                                      trained.model, collector.get());
    const std::uint64_t t1 = now_ns();
    times.spawn_s = seconds_between(resume, t1);
    times.total_s = seconds_between(t0, t1) - seconds_between(pause, resume);
    setups.push_back(times);
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return perfbench::median(v);
  };
  const core::ReconstructionModel& model = *trained.model;
  if (workload->dropout) describe_mask_pool(trained.model, pool);

  Tally tally;
  Runner runner(*server, *collector, *traffic, model, trained.model,
                workload->limit_us);
  std::vector<Metric> metrics, report_only;
  const double light = workload->light_fps, heavy = workload->heavy_fps;

  // Warm-up: pools, workspaces, page faults. Not reported.
  runner.run(heavy, std::min(0.3, 0.05 * args.seconds), kWindowS, false, false,
             tally);

  bool valid = true;
  constexpr double kGenOwnBound = 0.5;
  if (!traced_run) {
    // Light and heavy each run as two interleaved segments, so a noisy
    // stretch of a shared machine spoils at most part of either. On a quiet
    // host the generator keeps its schedule to a few microseconds at both
    // rates; running late means the host took a core away (a shared VM
    // stalls a spinning thread for 1-20 ms at a time in its noisy spells).
    // Such a measurement is repeated once, and the less late one reported.
    constexpr int kMeasureAttempts = 2;
    constexpr double kQuietLateUs = 100.0;  // generator lateness p99
    const double segment_s = 0.1 * args.seconds;
    Phase lp, hp;
    std::string disturbed;
    for (int attempt = 0; attempt < kMeasureAttempts; ++attempt) {
      // recon_mse from the first block only: its frames, and so the
      // dropout masks they carry, are the same for a seed on every run.
      const bool mse = attempt == 0;
      const Phase l1 = runner.run(light, segment_s, kWindowS, mse, false, tally);
      const Phase h1 =
          runner.run(heavy, 2 * segment_s, kWindowS, mse, false, tally);
      const Phase l2 = runner.run(light, segment_s, kWindowS, mse, false, tally);
      const Phase h2 =
          runner.run(heavy, 2 * segment_s, kWindowS, mse, false, tally);
      for (const Phase* p : {&l1, &h1, &l2, &h2}) {
        if (p->gen_own_frac > kGenOwnBound) {
          std::fprintf(stderr,
                       "invalid run: the generator's own work took %.0f%% of "
                       "the %.0f fps schedule (bound %.0f%%)\n",
                       100 * p->gen_own_frac, p->rate, 100 * kGenOwnBound);
          valid = false;
        }
      }
      const Phase l = concat(l1, l2);
      const Phase h = concat(h1, h2);
      const double late_us = std::max(l.late_p99_us, h.late_p99_us);
      if (attempt == 0 || late_us < std::max(lp.late_p99_us, hp.late_p99_us)) {
        lp = l;
        hp = h;
      }
      if (late_us <= kQuietLateUs) break;
      char late[32];
      std::snprintf(late, sizeof(late), " %.0f", late_us);
      disturbed += late;
    }
    if (!disturbed.empty()) {
      std::printf("# disturbed measurements (generator lateness p99, us):%s\n",
                  disturbed.c_str());
    }

    // slo_fps: one bracket-and-bisect search on fixed-length probes. It is
    // printed, not gated, so it gets no retries.
    perfbench::SloSearch search;
    search.limit_us = workload->limit_us;
    // Start above heavy: below it, batch fill alone nears the limit (at the
    // routed heavy rate, fill max is 17 ms of 20).
    search.start_fps = 2 * heavy;
    search.max_fps = 8 * heavy;
    const double probe_s = 0.4 * args.seconds / 10.0;
    int probes = 0;
    const auto probe = [&](double rate) {
      const Phase p = runner.run(rate, probe_s, probe_s / 4, false, false, tally);
      perfbench::ProbeResult r;
      r.p99_us = p.windowed_quantile(0.99);
      r.backlog_growing = p.backlog_growing;
      std::printf("# slo probe %8.0f fps: p99 %9.1f us%s\n", rate, r.p99_us,
                  r.backlog_growing ? ", backlog growing" : "");
      return r;
    };
    const double slo = perfbench::slo_fps_search(search, probe, &probes);
    const double rss_mb = peak_rss_mb(server->shard_pids());
    const double fail_frac =
        static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);

    std::printf("# light %.0f fps: %llu frames (%zu delivered); heavy %.0f fps: "
                "%llu frames; slo search: %d probes of %.2f s\n",
                light, static_cast<unsigned long long>(lp.frames),
                lp.arrival_us.size(), heavy,
                static_cast<unsigned long long>(hp.frames), probes, probe_s);
    std::printf("# generator: p99 lateness light %.2f us, heavy %.2f us; own "
                "work %.1f%% / %.1f%% of the schedule (bound %.0f%%)\n",
                lp.late_p99_us, hp.late_p99_us, 100 * lp.gen_own_frac,
                100 * hp.gen_own_frac, 100 * kGenOwnBound);
    std::printf("# fail_frac %.6g (%llu of %llu frames); worst checked map "
                "error %.3g relative (tolerance %.0e)\n",
                fail_frac, static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted),
                tally.worst_check_error, kCheckTolerance);
    metrics = {
        {"setup_s", setup_median(&SetupTimes::total_s), "s"},
        {"lat_p50_us.light", lp.windowed_quantile(0.5), "us"},
        {"lat_p99_us.light", lp.windowed_quantile(0.99), "us"},
        {"lat_p50_us.heavy", hp.windowed_quantile(0.5), "us"},
        {"svc_p50_us.light", lp.windowed_quantile(lp.service_us, 0.5), "us"},
        {"delivered_frac", 1.0 - fail_frac, "frac"},
        {"recon_mse", runner.recon_mse(), "degC2"},
        {"rss_mb", rss_mb, "MB"},
    };
    // Printed, not gated: slo_fps tracks the host's own speed, which drifts
    // 10-20% between runs on a shared machine; the heavy tails (p99, CVaR)
    // and the heavy service latency hold queueing, which amplifies the
    // drift; fail_frac is 0 on correct code (the JSON carries its
    // complement, delivered_frac). The light service latency carries the
    // gate on compute and router cost instead.
    report_only = {
        {"lat_p99_us.heavy", hp.windowed_quantile(0.99), "us"},
        {"svc_p50_us.heavy", hp.windowed_quantile(hp.service_us, 0.5), "us"},
        {"lat_cvar99_us.heavy", hp.windowed_cvar99(), "us"},
        {"slo_fps", slo, "fps"},
        {"fail_frac", fail_frac, "frac"},
    };
  } else {
    metrics = {
        {"setup.experiment_s", setup_median(&SetupTimes::experiment_s), "s"},
        {"setup.allocate_s", setup_median(&SetupTimes::allocate_s), "s"},
        {"setup.model_s", setup_median(&SetupTimes::model_s), "s"},
        {"setup.spawn_s", setup_median(&SetupTimes::spawn_s), "s"},
    };
    const CoreLayer core_layer = probe_core(trained.model, *traffic, pool);
    const double gbps = store_gbps();

    // The same heavy traffic untraced, then traced: the first gives the
    // tracing overhead's base and the generator's lateness, the second the
    // stage decomposition.
    const Phase plain =
        runner.run(heavy, 0.25 * args.seconds, kWindowS, false, false, tally);
    const runtime::EngineStats before = server->stats();
    server->drain_trace();
    obs::set_tracing(true);
    const Phase traced = runner.run(heavy, std::min(1.5, 0.2 * args.seconds),
                                    kWindowS, false, true, tally);
    obs::set_tracing(false);
    const std::vector<obs::SpanRecord> spans = server->drain_trace();
    const runtime::EngineStats after = server->stats();
    const StageLayer stages =
        stage_layer(traced, spans, server->serving_threads());

    // dist is idle in the engine workloads: its metrics read 0 there.
    const bool routed = workload->routed;
    const dist::RouterCounters counters = server->router_counters();
    const double hop_residual_us =
        routed ? stages.lat_mean_us - stages.engine_sum_us() : 0.0;

    const auto stage_q = [&](obs::Stage st, double q) {
      const auto k = static_cast<std::size_t>(st);
      return 1e-3 * static_cast<double>(
                        histogram_delta(after.stage_latency[k],
                                        before.stage_latency[k])
                            .quantile_ns(q));
    };
    std::uint64_t allocs = 0;
    for (const auto& [id, m] : after.models) {
      const auto b = before.models.find(id);
      allocs += m.steady_state_allocations -
                (b == before.models.end() ? 0 : b->second.steady_state_allocations);
    }
    const runtime::ModelStats served =
        after.models.count(kModel) ? after.models.at(kModel)
                                   : runtime::ModelStats{};
    const double lookups =
        static_cast<double>(served.cache_hits + served.cache_misses);
    const double batches =
        static_cast<double>(after.batches_completed - before.batches_completed);
    const double cells = static_cast<double>(model.cell_count());
    // Computed costs per frame. Expand: the k x N GEMM plus the mean add,
    // and one fp64 map stored. Solve: centering, k Householder reflectors
    // applied to an M-vector, back-substitution; reads M, writes k doubles.
    const double expand_flop = 2.0 * kOrder * cells + cells;
    const double expand_bytes = 8.0 * cells;
    const double solve_flop = kSensors + 4.0 * kSensors * kOrder -
                              2.0 * kOrder * kOrder + kOrder * kOrder;
    const double solve_bytes = 8.0 * (kSensors + kOrder);
    const double store_bound_us = kBatch * expand_bytes / gbps * 1e-3;
    const double wire = routed ? wire_bytes_per_frame(model) : 0.0;
    const double stage_sum =
        stages.engine_sum_us() + (routed ? stages.hop_spans_us : 0.0);

    std::printf("# inputs: core.*_batch_us warm (one reused 32-frame block) "
                "unless named refreshed (walking the %zu-map trace); serving "
                "phases refreshed\n",
                traffic->trace_readings().rows());
    std::printf("# traced heavy phase, per-frame means (us): fill %.1f + "
                "push-held %.1f + queue-wait %.1f + solve %.2f + expand %.2f "
                "+ deliver %.2f + hop from spans %.1f = %.1f vs end-to-end "
                "mean %.1f (ratio %.3f)\n",
                stages.fill_us, stages.held_us, stages.queue_us, stages.solve_us,
                stages.expand_us, stages.deliver_us,
                routed ? stages.hop_spans_us : 0.0, stage_sum,
                stages.lat_mean_us, stage_sum / stages.lat_mean_us);
    std::printf("# named bounds, per frame (computed):\n");
    std::printf("#   solve   %8.0f flop %8.0f B   latency-bound %zux%zu "
                "least-squares solve; %.2f us per 32-frame batch measured\n",
                solve_flop, solve_bytes, kSensors, kOrder, core_layer.solve_us);
    std::printf("#   expand  %8.0f flop %8.0f B stored (%.2f flop/B)   store "
                "bandwidth %.2f GB/s -> %.1f us per batch at the bound, %.1f "
                "measured\n",
                expand_flop, expand_bytes, expand_flop / expand_bytes, gbps,
                store_bound_us, core_layer.expand_us);
    if (routed) {
      std::printf("#   hop     %8.0f wire B (submit + result share)   mean hop "
                  "%.1f us residual, %.1f us from spans -> %.2f GB/s on the "
                  "wire\n",
                  wire, hop_residual_us, stages.hop_spans_us,
                  stages.hop_spans_us > 0 ? wire / (stages.hop_spans_us * 1e3)
                                          : 0.0);
    } else {
      std::printf("# dist is idle in this workload: dist.* read 0\n");
    }

    const std::vector<Metric> layer = {
        {"core.recon_batch_us", core_layer.recon_us, "us"},
        {"core.recon_batch_refreshed_us", core_layer.recon_refreshed_us, "us"},
        {"core.expand_batch_us", core_layer.expand_us, "us"},
        {"core.solve_batch_us", core_layer.solve_us, "us"},
        {"core.masked_recon_batch_us", core_layer.masked_us, "us"},
        {"core.factor_miss_downdate_us", core_layer.miss_downdate_us, "us"},
        {"core.factor_miss_refactor_us", core_layer.miss_refactor_us, "us"},
        {"core.cache_hit_ratio",
         lookups > 0 ? static_cast<double>(served.cache_hits) / lookups : 1.0,
         "ratio"},
        {"core.downdates", static_cast<double>(served.factor_downdates), "count"},
        {"core.refactors", static_cast<double>(served.factor_refactors), "count"},
        {"core.model_bytes",
         static_cast<double>(served.dense_expansion_bytes +
                             served.sparse_expansion_bytes +
                             served.fp32_expansion_bytes),
         "B"},
        {"core.factor_cache_bytes", static_cast<double>(served.factor_cache_bytes),
         "B"},
        {"core.expand_flop_per_byte", expand_flop / expand_bytes, "flop/B"},
        {"core.expand_store_bound_frac", store_bound_us / core_layer.expand_us,
         "ratio"},
        {"numerics.store_gbps", gbps, "GB/s"},
        {"runtime.lat_mean_us", stages.lat_mean_us, "us"},
        {"runtime.fill_mean_us", stages.fill_us, "us"},
        {"runtime.push_held_mean_us", stages.held_us, "us"},
        {"runtime.queue_wait_p50_us", stage_q(obs::Stage::kQueueWait, 0.5), "us"},
        {"runtime.queue_wait_p99_us", stage_q(obs::Stage::kQueueWait, 0.99), "us"},
        {"runtime.queue_wait_mean_us", stages.queue_us, "us"},
        {"runtime.solve_mean_us", stages.solve_us, "us"},
        {"runtime.expand_mean_us", stages.expand_us, "us"},
        {"runtime.deliver_mean_us", stages.deliver_us, "us"},
        {"runtime.stage_sum_ratio", stage_sum / stages.lat_mean_us, "ratio"},
        {"runtime.push_p99_us", traced.push_p99_us, "us"},
        {"runtime.frames_per_batch",
         batches > 0 ? static_cast<double>(after.frames_completed -
                                           before.frames_completed) / batches
                     : 0.0,
         "frames"},
        {"runtime.worker_busy_frac", stages.busy_frac, "frac"},
        {"runtime.steady_allocs", static_cast<double>(allocs), "count"},
        {"dist.push_p99_us", routed ? traced.push_p99_us : 0.0, "us"},
        {"dist.route_p50_us", stages.route_p50_us, "us"},
        {"dist.ack_p50_us", stages.ack_p50_us, "us"},
        {"dist.hop_mean_us", hop_residual_us, "us"},
        {"dist.hop_spans_mean_us", routed ? stages.hop_spans_us : 0.0, "us"},
        {"dist.wire_bytes_per_frame", wire, "B"},
        {"dist.frames_replayed", static_cast<double>(counters.frames_replayed),
         "count"},
        {"dist.stale_dropped",
         static_cast<double>(counters.stale_results_dropped), "count"},
        {"dist.worker_errors", static_cast<double>(counters.worker_errors),
         "count"},
        {"obs.trace_overhead",
         traced.windowed_quantile(0.5) / plain.windowed_quantile(0.5),
         "ratio"},
        {"gen.late_p99_us", plain.late_p99_us, "us"},
    };
    metrics.insert(metrics.end(), layer.begin(), layer.end());
  }

  print_report(metrics);
  print_report(report_only);
  if (!valid) return 3;  // measured off schedule: no result, not a slow one
  print_json(tally.failed == 0, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return serve(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_serve: %s\n", e.what());
    return 2;
  }
}
