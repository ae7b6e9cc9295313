// The shard result arena's ring allocator, in-process: the producer places
// results through ResultRing exactly as the shard worker's result callback
// does, and the consumer checks and releases them through the same
// ResultArena calls the router's reader makes (DESIGN.md §12). One mapping
// serves both threads, so ThreadSanitizer sees every shared byte and atomic
// — it cannot see them across processes — and CI runs this suite under
// -fsanitize=thread.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "dist/protocol.h"
#include "dist/result_arena.h"
#include "numerics/matrix.h"
#include "numerics/rng.h"

namespace {

using namespace eigenmaps;

/// Eight fp64 columns: one 64-byte aligned ring row per result row, so the
/// offsets below count rows in units of 64.
constexpr std::size_t kCols = 8;

std::uint64_t file_bytes(const dist::ResultArena& arena) {
  struct stat st {};
  EXPECT_EQ(::fstat(arena.fd(), &st), 0);
  return static_cast<std::uint64_t>(st.st_size);
}

std::optional<std::uint64_t> place(dist::ResultRing& ring, std::size_t rows,
                                   double value) {
  return ring.place(numerics::Matrix(rows, kCols, value));
}

/// Whether the result at `offset` still holds `rows` rows of `value`, read
/// through the router-side bounds check.
bool holds(dist::ResultArena& arena, std::uint64_t offset, std::size_t rows,
           double value) {
  dist::ResultMsg msg;
  msg.rows = rows;
  msg.cols = kCols;
  msg.offset = offset;
  const numerics::ConstMatrixView view = arena.view(msg);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    for (std::size_t c = 0; c < view.cols(); ++c) {
      if (view(r, c) != value) return false;
    }
  }
  return true;
}

/// One place() on its own thread, for placements that are meant to block.
/// A placement still blocked at destruction means the test already failed;
/// closing the ring then ends it instead of hanging the suite.
class Producer {
 public:
  Producer(dist::ResultRing& ring, std::size_t rows, double value)
      : ring_(ring), thread_([this, rows, value] {
          offset_ = place(ring_, rows, value);
          done_ = true;
        }) {}
  ~Producer() {
    if (!done_) ring_.close();
    thread_.join();
  }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Whether place() returned within `timeout`.
  bool returns_within(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!done_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done_;
  }
  bool blocked() const {
    return !returns_within(std::chrono::milliseconds(30));
  }
  /// place()'s result; only after returns_within() said so.
  std::optional<std::uint64_t> offset() const { return offset_; }

 private:
  dist::ResultRing& ring_;
  std::optional<std::uint64_t> offset_;
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: it uses the members above
};

constexpr auto kPatience = std::chrono::seconds(10);

TEST(DistResultRing, ReleasesInFifoOrderAndWrapsPastTheTail) {
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);
  // The largest result is 4 rows (256 bytes), so the ring holds 1024 bytes.
  EXPECT_EQ(place(ring, 4, 1.0), 0u);    // A
  EXPECT_EQ(place(ring, 4, 2.0), 256u);  // B
  EXPECT_EQ(place(ring, 4, 3.0), 512u);  // C
  EXPECT_EQ(place(ring, 3, 4.0), 768u);  // D, ends at 960
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 1024);

  // E does not fit in [960, 1024): it wraps to offset 0, which releasing
  // the oldest result (A) freed.
  arena->release();
  EXPECT_EQ(place(ring, 4, 5.0), 0u);
  EXPECT_TRUE(holds(*arena, 256, 4, 2.0));
  EXPECT_TRUE(holds(*arena, 768, 3, 4.0));
  EXPECT_TRUE(holds(*arena, 0, 4, 5.0));

  // Wrapped, with B next in line: F waits for B — the oldest — and then
  // takes its place, never C's or D's.
  {
    Producer f(ring, 4, 6.0);
    EXPECT_TRUE(f.blocked());
    arena->release();  // B
    ASSERT_TRUE(f.returns_within(kPatience));
    EXPECT_EQ(f.offset(), 256u);
  }
  EXPECT_TRUE(holds(*arena, 512, 4, 3.0));
  EXPECT_TRUE(holds(*arena, 768, 3, 4.0));
  EXPECT_TRUE(holds(*arena, 256, 4, 6.0));
}

TEST(DistResultRing, EmptyRingNeverBlocksRightAfterAWrap) {
  // The bytes a wrap skips are never live. Counting them as held would
  // leave an emptied ring looking partly full, and the first result after
  // the rewind would wait forever for a release that cannot come.
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);
  place(ring, 4, 1.0);
  place(ring, 4, 2.0);
  place(ring, 4, 3.0);
  place(ring, 3, 4.0);  // ends at 960 of 1024
  arena->release();
  ASSERT_EQ(place(ring, 4, 5.0), 0u);  // wraps, skipping [960, 1024)
  for (int i = 0; i < 4; ++i) arena->release();  // B, C, D, E: empty

  // Full-size results rewind to offset 0 without waiting, repeatedly.
  for (int round = 0; round < 3; ++round) {
    Producer next(ring, 4, 7.0 + round);
    ASSERT_TRUE(next.returns_within(kPatience)) << "round " << round;
    EXPECT_EQ(next.offset(), 0u);
    arena->release();
  }
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 1024);
}

TEST(DistResultRing, GrowsOnlyWhileEmpty) {
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes);
  EXPECT_EQ(place(ring, 1, 1.0), 0u);  // 64-byte results: a 256-byte ring
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 256);

  // A 2-row result wants a 512-byte ring. The first result is still live,
  // so the file must not grow yet: the placement waits for the release.
  {
    Producer bigger(ring, 2, 2.0);
    EXPECT_TRUE(bigger.blocked());
    EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 256);
    arena->release();
    ASSERT_TRUE(bigger.returns_within(kPatience));
    EXPECT_EQ(bigger.offset(), 0u);
  }
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 512);
  // Results no larger than the largest one placed never grow it again.
  EXPECT_EQ(place(ring, 1, 3.0), 128u);
  EXPECT_EQ(place(ring, 2, 4.0), 192u);
  EXPECT_EQ(file_bytes(*arena), dist::kArenaHeaderBytes + 512);
  EXPECT_TRUE(holds(*arena, 0, 2, 2.0));
}

TEST(DistResultRing, ClosingUnblocksAProducerWaitingOnAFullRing) {
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(place(ring, 1, i), 64u * i);  // 4 of 4 slots
  }
  {
    Producer stuck(ring, 1, 9.0);
    EXPECT_TRUE(stuck.blocked());
    ring.close();  // the connection went away: no release will ever come
    ASSERT_TRUE(stuck.returns_within(kPatience));
    EXPECT_FALSE(stuck.offset().has_value());
  }
  // A placement that needs no wait still goes through after close.
  arena->release();
  EXPECT_EQ(place(ring, 1, 10.0), 0u);
  // One that would wait gives up at once.
  EXPECT_FALSE(place(ring, 1, 11.0).has_value());
}

TEST(DistResultRing, RandomSizesNeverOverlapAnUnreleasedRegion) {
  // One producer (the worker's result callback) and one consumer (the
  // router's reader), with descriptors crossing through a queue that
  // stands in for the socket. Sizes, and how many results the consumer
  // holds before releasing, come from seeded generators. The consumer
  // asserts that no descriptor overlaps a result it still holds, and that
  // every held result is intact when it releases it.
  constexpr std::uint64_t kResults = 3000;
  auto arena = dist::ResultArena::create();
  dist::ResultRing ring(*arena);

  std::mutex mutex;
  std::condition_variable arrived;
  std::deque<dist::ResultMsg> wire;  // guarded by mutex
  bool finished = false;             // guarded by mutex

  std::thread producer([&] {
    numerics::Rng rng(1401);
    for (std::uint64_t i = 0; i < kResults; ++i) {
      const auto rows = static_cast<std::size_t>(1 + rng.next_u64() % 24);
      const numerics::Matrix maps(rows, kCols, static_cast<double>(i));
      const std::optional<std::uint64_t> offset = ring.place(maps);
      if (!offset) break;  // the consumer gave up
      dist::ResultMsg msg;
      msg.stream = i;  // the result's index, also its fill value
      msg.rows = rows;
      msg.cols = kCols;
      msg.offset = *offset;
      std::lock_guard<std::mutex> lock(mutex);
      wire.push_back(msg);
      arrived.notify_one();
    }
    std::lock_guard<std::mutex> lock(mutex);
    finished = true;
    arrived.notify_one();
  });

  numerics::Rng rng(1402);
  std::deque<dist::ResultMsg> held;
  std::uint64_t received = 0;
  std::uint64_t misordered = 0;
  std::uint64_t overlaps = 0;
  std::uint64_t corrupted = 0;
  const auto release_oldest = [&] {
    const dist::ResultMsg& oldest = held.front();
    if (!holds(*arena, oldest.offset, oldest.rows,
               static_cast<double>(oldest.stream))) {
      ++corrupted;
    }
    held.pop_front();
    arena->release();
  };
  for (;;) {
    std::optional<dist::ResultMsg> next;
    bool done = false;
    {
      std::unique_lock<std::mutex> lock(mutex);
      arrived.wait_for(lock, std::chrono::milliseconds(1),
                       [&] { return finished || !wire.empty(); });
      if (!wire.empty()) {
        next = wire.front();
        wire.pop_front();
      } else {
        done = finished;
      }
    }
    if (done) break;
    if (!next) {
      // Nothing new: the producer may be waiting for space.
      if (!held.empty()) release_oldest();
      continue;
    }
    const dist::ResultMsg& msg = *next;
    if (msg.stream != received) ++misordered;  // must match placement order
    ++received;
    const std::uint64_t begin = msg.offset;
    const std::uint64_t end = begin + msg.rows * msg.cols * sizeof(double);
    for (const dist::ResultMsg& other : held) {
      const std::uint64_t other_end =
          other.offset + other.rows * other.cols * sizeof(double);
      if (begin < other_end && other.offset < end) ++overlaps;
    }
    held.push_back(msg);
    for (std::uint64_t n = rng.next_u64() % 4; n > 0 && !held.empty(); --n) {
      release_oldest();
    }
  }
  while (!held.empty()) release_oldest();
  producer.join();

  EXPECT_EQ(received, kResults);
  EXPECT_EQ(misordered, 0u);
  EXPECT_EQ(overlaps, 0u);
  EXPECT_EQ(corrupted, 0u);
}

}  // namespace
