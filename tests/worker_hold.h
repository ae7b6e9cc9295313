// Pins an engine's batch shapes under the idle-worker cut (DESIGN.md §8).
//
// A push that finds a worker blocked waiting for work cuts its stream's
// batch at once, so which frames share a batch depends on scheduling. A
// test that asserts batch boundaries first holds every worker busy: once
// no worker can be idle, only batch_size, max_batch_delay, flush() and
// drain() cut, whatever the scheduling.
#ifndef EIGENMAPS_TESTS_WORKER_HOLD_H
#define EIGENMAPS_TESTS_WORKER_HOLD_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "numerics/matrix.h"
#include "runtime/engine.h"

namespace eigenmaps::testhook {

/// Holds every worker of an engine inside its result callback. engage()
/// pushes one frame per worker on reserved streams, flushes each, and
/// returns once every worker is blocked in held(); the engine's callback
/// must begin with `if (hold.held(stream)) return;`. Call release() before
/// drain() or the engine's destructor, which wait for the held batches.
/// The allocation-counter tests engage it inside measured windows: once
/// its streams exist, engage(), held() and release() never touch the heap.
class WorkerHold {
 public:
  /// Stream ids from here up belong to the hold.
  static constexpr std::uint64_t kFirstStream = std::uint64_t{1} << 48;

  /// Blocks while the hold is engaged when `stream` is one of its own;
  /// returns whether it was, so the callback can skip the hold's batches.
  bool held(std::uint64_t stream) {
    if (stream < kFirstStream) return false;
    std::unique_lock<std::mutex> lock(mutex_);
    ++blocked_;
    changed_.notify_all();
    changed_.wait(lock, [this] { return !holding_; });
    --blocked_;
    changed_.notify_all();
    return true;
  }

  /// Occupies every worker of `engine` with a one-frame batch of `model`.
  /// Each queued hold batch claims a worker, so once the last flush() has
  /// queued its batch no push finds a worker idle.
  void engage(runtime::ReconstructionEngine& engine,
              numerics::ConstVectorView frame,
              runtime::ModelId model =
                  runtime::ReconstructionEngine::kDefaultModel) {
    const std::size_t workers = engine.worker_count();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      holding_ = true;
    }
    for (std::size_t w = 0; w < workers; ++w) {
      engine.push_frame(kFirstStream + w, frame, model);
      engine.flush(kFirstStream + w);
    }
    frames_ += workers;
    std::unique_lock<std::mutex> lock(mutex_);
    changed_.wait(lock, [&] { return blocked_ == workers; });
  }

  /// Lets the held workers go and waits until each has left held().
  void release() {
    std::unique_lock<std::mutex> lock(mutex_);
    holding_ = false;
    changed_.notify_all();
    changed_.wait(lock, [this] { return blocked_ == 0; });
  }

  /// Frames the hold has pushed so far, each its own batch: tests that
  /// count the engine's frames or batches add this.
  std::uint64_t frames() const { return frames_; }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool holding_ = false;
  std::size_t blocked_ = 0;
  std::uint64_t frames_ = 0;  // touched by the engaging thread only
};

}  // namespace eigenmaps::testhook

#endif  // EIGENMAPS_TESTS_WORKER_HOLD_H
