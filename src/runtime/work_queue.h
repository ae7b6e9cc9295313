// Bounded multi-producer multi-consumer queue for the streaming runtime.
//
// Deliberately a mutex + two condition variables: the queue hands out
// whole frame batches, so a pop costs a GEMM on the consumer side and
// lock-free cleverness would be noise. Bounding the queue is the point —
// producers block once `capacity` batches are in flight, which is the
// engine's back-pressure mechanism.
//
// Storage is a fixed ring of `capacity` slots allocated once at
// construction: push move-assigns into a slot, pop moves out, and the
// queue itself never touches the heap again — part of the engine's
// zero-allocation steady state (DESIGN.md §10). T must be default-
// constructible and move-assignable; a popped slot is reset to T{} so
// resources held by the item (model references, pooled buffers) are not
// pinned until the ring wraps back around.
//
// The queue also publishes whether a consumer is idle: blocked in pop()
// with no queued item to claim it. The engine reads that to cut a batch at
// once instead of letting it wait for more frames (DESIGN.md §8).
#ifndef EIGENMAPS_RUNTIME_WORK_QUEUE_H
#define EIGENMAPS_RUNTIME_WORK_QUEUE_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace eigenmaps::runtime {

template <typename T>
class BoundedWorkQueue {
 public:
  explicit BoundedWorkQueue(std::size_t capacity)
      : capacity_(capacity), slots_(capacity) {}

  /// Blocks while the queue is full. Returns false (and drops the item)
  /// if the queue was closed before space opened up.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [this] { return closed_ || count_ < capacity_; });
    if (closed_) return false;
    slots_[(head_ + count_) % capacity_] = std::move(item);
    ++count_;
    publish_idle();
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed and drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiting_;
    publish_idle();
    not_empty_.wait(lock, [this] { return closed_ || count_ != 0; });
    --waiting_;
    if (count_ == 0) {
      publish_idle();
      return std::nullopt;
    }
    T item = std::move(slots_[head_]);
    slots_[head_] = T{};  // drop moved-from payload (e.g. model refs) now
    head_ = (head_ + 1) % capacity_;
    --count_;
    publish_idle();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Wakes every blocked producer and consumer; pops drain what remains.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// True while some consumer is blocked in pop() with no queued item to
  /// claim it. A lock-free read of a value the queue updates under its
  /// mutex, so it can be stale by the time the caller acts on it.
  bool has_idle_consumer() const {
    return idle_consumers_.load(std::memory_order_relaxed) > 0;
  }

 private:
  // Called under mutex_ after every change to waiting_ or count_.
  void publish_idle() {
    idle_consumers_.store(static_cast<std::ptrdiff_t>(waiting_) -
                              static_cast<std::ptrdiff_t>(count_),
                          std::memory_order_relaxed);
  }

  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t waiting_ = 0;  // consumers inside pop()
  bool closed_ = false;
  // Consumers inside pop() minus queued items.
  std::atomic<std::ptrdiff_t> idle_consumers_{0};
};

}  // namespace eigenmaps::runtime

#endif  // EIGENMAPS_RUNTIME_WORK_QUEUE_H
