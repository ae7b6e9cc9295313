// ReconstructionEngine: correctness under concurrency — exactly-once,
// in-order per-stream delivery, faithful results, honest counters.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/factor_cache.h"
#include "core/reconstructor.h"
#include "numerics/rng.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/work_queue.h"
#include "worker_hold.h"

namespace {

using namespace eigenmaps;
using testhook::WorkerHold;

struct Fixture {
  Fixture()
      : basis(12, 12, 8),
        mean(basis.cell_count(), 40.0),
        sensors(core::allocate_greedy(basis, 8, 12)),
        rec(basis, 8, sensors, mean) {}

  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
  core::Reconstructor rec;

  numerics::Vector frame(std::uint64_t stream, std::uint64_t seq) const {
    numerics::Rng rng(stream * 7919 + seq);
    numerics::Vector f(sensors.size());
    for (double& v : f) v = 40.0 + rng.normal();
    return f;
  }
};

TEST(ReconstructionEngine, SingleStreamResultsMatchPerFrameReconstruct) {
  const Fixture fx;
  std::mutex delivered_mutex;
  std::vector<numerics::Matrix> delivered_batches;
  std::vector<std::uint64_t> delivered_seqs;

  runtime::EngineOptions options;
  options.worker_count = 3;
  options.batch_size = 4;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  {
    runtime::ReconstructionEngine engine(
        fx.rec, options,
        [&](std::uint64_t stream, std::uint64_t first_seq,
            numerics::ConstMatrixView maps) {
          if (hold.held(stream)) return;
          EXPECT_EQ(stream, 9u);
          std::lock_guard<std::mutex> lock(delivered_mutex);
          delivered_seqs.push_back(first_seq);
          // The view dies with the callback; keep a deep copy.
          delivered_batches.push_back(numerics::Matrix(maps));
        });
    hold.engage(engine, fx.frame(9, 0));
    for (std::uint64_t i = 0; i < 11; ++i) {  // 2 full batches + 3 tail
      EXPECT_EQ(engine.push_frame(9, fx.frame(9, i)), i);
    }
    hold.release();
    engine.drain();
  }

  // Delivery was in order and covers every frame exactly once.
  ASSERT_EQ(delivered_seqs.size(), 3u);
  std::uint64_t next = 0;
  for (std::size_t b = 0; b < delivered_seqs.size(); ++b) {
    EXPECT_EQ(delivered_seqs[b], next);
    next += delivered_batches[b].rows();
  }
  EXPECT_EQ(next, 11u);

  // Every delivered row equals the per-frame reconstruction.
  std::uint64_t seq = 0;
  for (const numerics::Matrix& batch : delivered_batches) {
    for (std::size_t r = 0; r < batch.rows(); ++r, ++seq) {
      const numerics::Vector expect = fx.rec.reconstruct(fx.frame(9, seq));
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_NEAR(batch(r, i), expect[i], 1e-12);
      }
    }
  }
}

/// The default age cut, then every push cutting its own one-frame batch,
/// then no age cut at all (only size, idle workers, flush and drain cut):
/// exactly-once, in-order delivery must hold for all three.
const std::chrono::nanoseconds kBatchDelays[] = {
    runtime::EngineOptions().max_batch_delay, std::chrono::nanoseconds(0),
    std::chrono::hours(1)};

TEST(ReconstructionEngine, ManyProducersManyStreamsExactlyOnceInOrder) {
  const Fixture fx;
  constexpr std::size_t kStreams = 4;
  constexpr std::uint64_t kFramesPerStream = 103;  // forces a short tail batch

  for (const std::chrono::nanoseconds delay : kBatchDelays) {
    SCOPED_TRACE("max_batch_delay " + std::to_string(delay.count()) + " ns");
    std::mutex state_mutex;
    std::vector<std::uint64_t> next_expected(kStreams, 0);
    std::vector<std::uint64_t> frames_seen(kStreams, 0);
    std::atomic<int> order_violations{0};

    runtime::EngineOptions options;
    options.worker_count = 4;
    options.batch_size = 8;
    options.queue_capacity = 4;  // small: exercise producer back-pressure
    options.max_batch_delay = delay;
    runtime::ReconstructionEngine engine(
        fx.rec, options,
        [&](std::uint64_t stream, std::uint64_t first_seq,
            numerics::ConstMatrixView maps) {
          std::lock_guard<std::mutex> lock(state_mutex);
          if (first_seq != next_expected[stream]) order_violations.fetch_add(1);
          next_expected[stream] = first_seq + maps.rows();
          frames_seen[stream] += maps.rows();
        });

    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kStreams; ++p) {
      producers.emplace_back([&, p] {
        for (std::uint64_t i = 0; i < kFramesPerStream; ++i) {
          engine.push_frame(p, fx.frame(p, i));
        }
      });
    }
    for (std::thread& t : producers) t.join();
    engine.drain();

    EXPECT_EQ(order_violations.load(), 0);
    for (std::size_t p = 0; p < kStreams; ++p) {
      EXPECT_EQ(frames_seen[p], kFramesPerStream) << "stream " << p;
      EXPECT_EQ(next_expected[p], kFramesPerStream) << "stream " << p;
    }

    const runtime::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.frames_submitted, kStreams * kFramesPerStream);
    EXPECT_EQ(stats.frames_completed, kStreams * kFramesPerStream);
    EXPECT_GE(stats.batches_completed,
              kStreams * (kFramesPerStream / options.batch_size));
    EXPECT_GE(stats.max_batch_latency_ns, 1u);
    EXPECT_GE(stats.total_batch_latency_ns, stats.max_batch_latency_ns);
  }
}

TEST(ReconstructionEngine, SharedStreamInterleavedProducersStayOrdered) {
  const Fixture fx;
  constexpr std::uint64_t kStream = 2;

  for (const std::chrono::nanoseconds delay : kBatchDelays) {
    SCOPED_TRACE("max_batch_delay " + std::to_string(delay.count()) + " ns");
    std::mutex state_mutex;
    std::uint64_t next_expected = 0;
    std::uint64_t frames_seen = 0;
    bool in_order = true;

    runtime::EngineOptions options;
    options.worker_count = 3;
    options.batch_size = 5;
    options.max_batch_delay = delay;
    runtime::ReconstructionEngine engine(
        fx.rec, options,
        [&](std::uint64_t stream, std::uint64_t first_seq,
            numerics::ConstMatrixView maps) {
          ASSERT_EQ(stream, kStream);
          std::lock_guard<std::mutex> lock(state_mutex);
          if (first_seq != next_expected) in_order = false;
          next_expected = first_seq + maps.rows();
          frames_seen += maps.rows();
        });

    // Four producers hammer the SAME stream; sequence numbers are assigned
    // at push time, so whatever the interleaving, delivery must follow it.
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&] {
        const numerics::Vector f = fx.frame(kStream, 1);
        for (int i = 0; i < 50; ++i) engine.push_frame(kStream, f);
      });
    }
    for (std::thread& t : producers) t.join();
    engine.drain();

    EXPECT_TRUE(in_order);
    EXPECT_EQ(frames_seen, 200u);
    EXPECT_EQ(next_expected, 200u);
  }
}

TEST(ReconstructionEngine, BatchDeadlineCutsOnThePushPastIt) {
  // While every worker is busy, a batch far from full is cut by the first
  // push that finds its first frame max_batch_delay old, and that push's
  // frame leaves with it: the whole batch arrives with no flush() or
  // drain().
  const Fixture fx;
  std::mutex delivered_mutex;
  std::condition_variable delivered_cv;
  std::vector<std::pair<std::uint64_t, std::size_t>> delivered;  // seq, rows
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 32;
  options.max_batch_delay = std::chrono::milliseconds(2);
  WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered.emplace_back(first_seq, maps.rows());
        delivered_cv.notify_all();
      });

  std::vector<numerics::Vector> frames;
  for (std::uint64_t i = 0; i < 4; ++i) frames.push_back(fx.frame(1, i));
  hold.engage(engine, frames[0]);
  for (std::uint64_t i = 0; i < 3; ++i) engine.push_frame(1, frames[i]);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.push_frame(1, frames[3]);
  hold.release();

  std::unique_lock<std::mutex> lock(delivered_mutex);
  ASSERT_TRUE(delivered_cv.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return !delivered.empty(); }))
      << "the aged batch was never cut";
  EXPECT_EQ(delivered,
            (std::vector<std::pair<std::uint64_t, std::size_t>>{{0, 4}}));
}

TEST(ReconstructionEngine, IdleWorkerCutsEachFrameAlone) {
  // A push that finds a worker blocked waiting for work cuts its stream's
  // batch at once (DESIGN.md §8): with neither size (32) nor age (1 h)
  // due, each frame pushed to a quiet engine arrives alone, with no
  // flush() or drain().
  const Fixture fx;
  std::mutex delivered_mutex;
  std::condition_variable delivered_cv;
  std::vector<std::pair<std::uint64_t, std::size_t>> delivered;  // seq, rows
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 32;
  options.max_batch_delay = std::chrono::hours(1);
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered.emplace_back(first_seq, maps.rows());
        delivered_cv.notify_all();
      });

  std::vector<std::pair<std::uint64_t, std::size_t>> expect;
  for (std::uint64_t i = 0; i < 5; ++i) {
    // Ample time for the worker to get back to pop(), which no engine call
    // reports.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.push_frame(1, fx.frame(1, i));
    expect.emplace_back(i, 1);
    std::unique_lock<std::mutex> lock(delivered_mutex);
    ASSERT_TRUE(delivered_cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return delivered.size() == expect.size();
    })) << "frame " << i << " was never cut";
    EXPECT_EQ(delivered, expect);
  }
}

TEST(BoundedWorkQueue, IdleConsumerIsABlockedPopNoQueuedItemClaims) {
  // has_idle_consumer() reads consumers blocked in pop() minus queued
  // items, the count the engine's idle-worker cut reads (DESIGN.md §8).
  runtime::BoundedWorkQueue<int> queue(2);
  EXPECT_FALSE(queue.has_idle_consumer());  // no consumer yet
  EXPECT_TRUE(queue.push(1));
  EXPECT_FALSE(queue.has_idle_consumer());
  // A consumer that finds an item takes it without ever being idle.
  std::optional<int> got = queue.pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 1);
  EXPECT_FALSE(queue.has_idle_consumer());

  const auto wait_idle = [&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!queue.has_idle_consumer()) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };

  // One consumer blocks; the push that hands it an item claims it before
  // push() returns, whether or not the consumer has woken yet.
  got.reset();
  std::thread consumer([&] { got = queue.pop(); });
  EXPECT_TRUE(wait_idle());
  EXPECT_TRUE(queue.push(2));
  EXPECT_FALSE(queue.has_idle_consumer());
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 2);
  EXPECT_FALSE(queue.has_idle_consumer());

  // close() sends a blocked consumer away empty-handed, and it stops
  // counting as idle.
  std::thread closed_consumer([&] { got = queue.pop(); });
  EXPECT_TRUE(wait_idle());
  queue.close();
  closed_consumer.join();
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(queue.has_idle_consumer());
  EXPECT_FALSE(queue.push(3));
  EXPECT_FALSE(queue.has_idle_consumer());
}

TEST(ReconstructionEngine, CountsSubmissionAtPushAndKeepsNumberingAcrossDrain) {
  // The shard worker maps global to local sequence numbers by counting its
  // own pushes per stream (dist/worker_main.cpp), so a stream's numbering
  // must never restart: not after drain(), not after a flush() of a short
  // batch — and the delivered first_seqs continue with it.
  const Fixture fx;
  std::mutex delivered_mutex;
  std::vector<std::uint64_t> delivered_seqs;
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 32;  // larger than what we push: no batch cuts yet
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView) {
        if (hold.held(stream)) return;
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered_seqs.push_back(first_seq);
      });

  // The hold's own frames are submitted and completed before ours.
  hold.engage(engine, fx.frame(1, 0));
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(engine.push_frame(1, fx.frame(1, i)), i);
  }
  runtime::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.frames_submitted, hold.frames() + 5u);  // at ingestion...
  EXPECT_EQ(stats.frames_completed, hold.frames());  // ...while mid-batch

  hold.release();
  engine.drain();
  stats = engine.stats();
  EXPECT_EQ(stats.frames_completed, hold.frames() + 5u);

  hold.engage(engine, fx.frame(1, 0));
  // Numbering continues across drain()...
  EXPECT_EQ(engine.push_frame(1, fx.frame(1, 5)), 5u);
  EXPECT_EQ(engine.push_frame(1, fx.frame(1, 6)), 6u);
  // ...and across a flush() of a short batch.
  engine.flush(1);
  EXPECT_EQ(engine.push_frame(1, fx.frame(1, 7)), 7u);
  hold.release();
  engine.drain();
  EXPECT_EQ(engine.stats().frames_completed, hold.frames() + 8u);

  std::lock_guard<std::mutex> lock(delivered_mutex);
  EXPECT_EQ(delivered_seqs, (std::vector<std::uint64_t>{0, 5, 7}));
}

TEST(ReconstructionEngine, RejectsBadConfigAndBadFrames) {
  const Fixture fx;
  runtime::EngineOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(runtime::ReconstructionEngine(fx.rec, zero_batch),
               std::invalid_argument);
  runtime::EngineOptions zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(runtime::ReconstructionEngine(fx.rec, zero_queue),
               std::invalid_argument);
  runtime::EngineOptions negative_delay;
  negative_delay.max_batch_delay = std::chrono::nanoseconds(-1);
  EXPECT_THROW(runtime::ReconstructionEngine(fx.rec, negative_delay),
               std::invalid_argument);

  runtime::ReconstructionEngine engine(fx.rec);
  EXPECT_THROW(engine.push_frame(0, numerics::Vector(3, 0.0)),
               std::invalid_argument);
  // Unknown model ids and infeasible masks fail on the producer too.
  EXPECT_THROW(engine.push_frame(0, fx.frame(0, 0), 42), std::invalid_argument);
  EXPECT_THROW(
      engine.push_frame(0, fx.frame(0, 0), runtime::ReconstructionEngine::
                            kDefaultModel,
                        core::SensorBitmask(fx.sensors.size(), false)),
      std::invalid_argument);
  // A wrong-width mask must fail at the producer even when all-active
  // (the shortcut that skips cache validation must not skip this check).
  EXPECT_THROW(
      engine.push_frame(0, fx.frame(0, 0),
                        runtime::ReconstructionEngine::kDefaultModel,
                        core::SensorBitmask(fx.sensors.size() + 1)),
      std::invalid_argument);
  // ... and also mid-batch, where it canonicalises to the live "no
  // dropout" binding and could otherwise slip past bind().
  engine.push_frame(0, fx.frame(0, 0));  // opens a pending batch
  EXPECT_THROW(
      engine.push_frame(0, fx.frame(0, 1),
                        runtime::ReconstructionEngine::kDefaultModel,
                        core::SensorBitmask(fx.sensors.size() + 1)),
      std::invalid_argument);
  engine.drain();
}

TEST(ReconstructionEngine, AllActiveMaskSpellingsShareOneBinding) {
  // An empty mask and an explicit all-active mask both mean "no dropout";
  // alternating the spellings on one stream must not cut a batch per
  // frame (the binding comparison canonicalises them).
  const Fixture fx;
  std::atomic<std::uint64_t> batches{0};
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 8;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t, numerics::ConstMatrixView) {
        if (hold.held(stream)) return;
        ++batches;
      });

  const core::SensorBitmask empty;
  const core::SensorBitmask full(fx.sensors.size());
  hold.engage(engine, fx.frame(0, 0));
  for (std::uint64_t i = 0; i < 8; ++i) {
    engine.push_frame(0, fx.frame(0, i), 0, (i % 2 == 0) ? empty : full);
  }
  hold.release();
  engine.drain();
  EXPECT_EQ(batches.load(), 1u);  // one full batch, not eight singletons
  // The hold's frames are one batch each.
  EXPECT_EQ(engine.stats().batches_completed, hold.frames() + 1u);
}

TEST(ReconstructionEngine, ServesTwoRegisteredModelsConcurrently) {
  // Two genuinely different models (different grids, orders, and sensor
  // counts) behind one engine; every stream must get its own model's maps.
  const core::DctBasis basis_a(12, 12, 8);
  const numerics::Vector mean_a(basis_a.cell_count(), 40.0);
  const core::SensorLocations sensors_a = core::allocate_greedy(basis_a, 8, 12);
  const core::Reconstructor rec_a(basis_a, 8, sensors_a, mean_a);

  const core::DctBasis basis_b(10, 8, 6);
  const numerics::Vector mean_b(basis_b.cell_count(), 60.0);
  const core::SensorLocations sensors_b = core::allocate_greedy(basis_b, 6, 10);
  const core::Reconstructor rec_b(basis_b, 6, sensors_b, mean_b);

  runtime::ModelRegistry registry;
  EXPECT_EQ(registry.register_model(1, rec_a.model()), 1u);
  EXPECT_EQ(registry.register_model(2, rec_b.model()), 1u);

  std::mutex delivered_mutex;
  std::map<std::uint64_t, std::vector<numerics::Matrix>> delivered;
  runtime::EngineOptions options;
  options.worker_count = 3;
  options.batch_size = 4;
  runtime::ReconstructionEngine engine(
      registry, options,
      [&](std::uint64_t stream, std::uint64_t,
          numerics::ConstMatrixView maps) {
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered[stream].push_back(numerics::Matrix(maps));
      });

  constexpr std::uint64_t kFrames = 10;  // full batches + a tail each
  numerics::Rng rng(99);
  numerics::Matrix frames_a(kFrames, sensors_a.size());
  numerics::Matrix frames_b(kFrames, sensors_b.size());
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (std::size_t s = 0; s < sensors_a.size(); ++s) {
      frames_a(f, s) = 40.0 + rng.normal();
    }
    for (std::size_t s = 0; s < sensors_b.size(); ++s) {
      frames_b(f, s) = 60.0 + rng.normal();
    }
  }
  // Interleave the two models' streams from two producers.
  std::thread producer_a([&] {
    for (std::size_t f = 0; f < kFrames; ++f) {
      engine.push_frame(100, frames_a.row_view(f), 1);
    }
  });
  std::thread producer_b([&] {
    for (std::size_t f = 0; f < kFrames; ++f) {
      engine.push_frame(200, frames_b.row_view(f), 2);
    }
  });
  producer_a.join();
  producer_b.join();
  engine.drain();

  const numerics::Matrix expect_a = rec_a.reconstruct_batch(frames_a);
  const numerics::Matrix expect_b = rec_b.reconstruct_batch(frames_b);
  std::lock_guard<std::mutex> lock(delivered_mutex);
  for (const auto& [stream, expect] :
       std::map<std::uint64_t, const numerics::Matrix*>{
           {100, &expect_a}, {200, &expect_b}}) {
    std::size_t row = 0;
    for (const numerics::Matrix& batch : delivered[stream]) {
      ASSERT_EQ(batch.cols(), expect->cols()) << "stream " << stream;
      for (std::size_t r = 0; r < batch.rows(); ++r, ++row) {
        for (std::size_t i = 0; i < batch.cols(); ++i) {
          EXPECT_NEAR(batch(r, i), (*expect)(row, i), 1e-12);
        }
      }
    }
    EXPECT_EQ(row, kFrames) << "stream " << stream;
  }

  const runtime::EngineStats stats = engine.stats();
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_EQ(stats.models.at(1).frames_completed, kFrames);
  EXPECT_EQ(stats.models.at(2).frames_completed, kFrames);
  EXPECT_GE(stats.models.at(1).batches_completed, 3u);
}

TEST(ReconstructionEngine, DegradedStreamMatchesFromScratchReconstructor) {
  // A stream with 25% of its sensors dead keeps reconstructing, matching a
  // from-scratch Reconstructor built on the survivors to 1e-10, and the
  // factor cache reports hits for every batch after the first.
  const core::DctBasis basis(14, 12, 10);
  const numerics::Vector mean(basis.cell_count(), 50.0);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 9, 16);
  const core::Reconstructor rec(basis, 9, sensors, mean);

  const std::vector<std::size_t> dead = {2, 7, 11, 14};  // 4 of 16 = 25%
  const core::SensorBitmask mask = core::SensorBitmask::except(16, dead);

  core::SensorLocations surviving;
  for (std::size_t s = 0; s < sensors.size(); ++s) {
    if (mask.active(s)) surviving.push_back(sensors[s]);
  }
  const core::Reconstructor fresh(basis, 9, surviving, mean);

  std::mutex delivered_mutex;
  std::vector<numerics::Matrix> delivered;
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 4;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  runtime::ReconstructionEngine engine(
      rec, options,
      [&](std::uint64_t stream, std::uint64_t,
          numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered.push_back(numerics::Matrix(maps));
      });

  constexpr std::size_t kFrames = 20;
  numerics::Rng rng(5);
  numerics::Matrix full(kFrames, sensors.size());
  // The hold's frames use every sensor: no factor, no cache hit.
  hold.engage(engine, numerics::Vector(sensors.size(), 50.0));
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      full(f, s) = 50.0 + rng.normal();
    }
    numerics::Vector frame = full.row(f);
    for (const std::size_t s : dead) frame[s] = -273.15;  // dead slots
    engine.push_frame(0, frame, runtime::ReconstructionEngine::kDefaultModel,
                      mask);
  }
  hold.release();
  engine.drain();

  numerics::Matrix compact(kFrames, surviving.size());
  for (std::size_t f = 0; f < kFrames; ++f) {
    std::size_t i = 0;
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      if (mask.active(s)) compact(f, i++) = full(f, s);
    }
  }
  const numerics::Matrix expect = fresh.reconstruct_batch(compact);

  std::lock_guard<std::mutex> lock(delivered_mutex);
  std::size_t row = 0;
  for (const numerics::Matrix& batch : delivered) {
    for (std::size_t r = 0; r < batch.rows(); ++r, ++row) {
      for (std::size_t i = 0; i < batch.cols(); ++i) {
        EXPECT_NEAR(batch(r, i), expect(row, i), 1e-10);
      }
    }
  }
  EXPECT_EQ(row, kFrames);

  // 5 batches solved the same mask: 1 miss (built at the first bind's
  // validate), one hit per worker solve; producer-side validates after
  // that are silent, so the hit count is exactly the batch count.
  const runtime::EngineStats stats = engine.stats();
  const runtime::ModelStats& model_stats =
      stats.models.at(runtime::ReconstructionEngine::kDefaultModel);
  EXPECT_EQ(model_stats.cache_misses, 1u);
  EXPECT_EQ(model_stats.cache_hits, 5u);
  EXPECT_EQ(model_stats.frames_completed, kFrames + hold.frames());
}

TEST(ReconstructionEngine, HotSwapTakesEffectAtTheNextBatchWithoutDrain) {
  // Swap the model behind a live stream between batches: batches bound
  // before the swap keep the old version, later ones pick up the new one,
  // and nothing needs draining in between.
  const core::DctBasis basis(12, 12, 8);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 8, 12);
  const numerics::Vector mean_v1(basis.cell_count(), 40.0);
  const numerics::Vector mean_v2(basis.cell_count(), 70.0);
  const core::Reconstructor rec_v1(basis, 8, sensors, mean_v1);
  const core::Reconstructor rec_v2(basis, 8, sensors, mean_v2);

  runtime::ModelRegistry registry;
  EXPECT_EQ(registry.register_model(3, rec_v1.model()), 1u);

  std::mutex delivered_mutex;
  std::map<std::uint64_t, numerics::Matrix> delivered;  // first_seq -> maps
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 4;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  runtime::ReconstructionEngine engine(
      registry, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered.emplace(first_seq, numerics::Matrix(maps));
      });

  numerics::Rng rng(31);
  numerics::Matrix frames(8, sensors.size());
  for (std::size_t f = 0; f < 8; ++f) {
    for (std::size_t s = 0; s < sensors.size(); ++s) {
      frames(f, s) = 40.0 + rng.normal();
    }
  }
  hold.engage(engine, frames.row_view(0), 3);
  for (std::size_t f = 0; f < 4; ++f) {
    engine.push_frame(1, frames.row_view(f), 3);
  }
  EXPECT_EQ(registry.register_model(3, rec_v2.model()), 2u);  // hot swap
  for (std::size_t f = 4; f < 8; ++f) {
    engine.push_frame(1, frames.row_view(f), 3);
  }
  hold.release();
  engine.drain();

  numerics::Matrix first_half(4, sensors.size());
  numerics::Matrix second_half(4, sensors.size());
  for (std::size_t f = 0; f < 4; ++f) {
    first_half.set_row(f, frames.row_view(f));
    second_half.set_row(f, frames.row_view(f + 4));
  }
  const numerics::Matrix expect_v1 = rec_v1.reconstruct_batch(first_half);
  const numerics::Matrix expect_v2 = rec_v2.reconstruct_batch(second_half);

  std::lock_guard<std::mutex> lock(delivered_mutex);
  ASSERT_EQ(delivered.size(), 2u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < expect_v1.cols(); ++i) {
      EXPECT_DOUBLE_EQ(delivered.at(0)(r, i), expect_v1(r, i));
      EXPECT_DOUBLE_EQ(delivered.at(4)(r, i), expect_v2(r, i));
    }
  }
}

// Pins the engine-shutdown ordering against the registry's swap listener:
// ~ReconstructionEngine unsubscribes (with the registry's quiescence
// guarantee) BEFORE tearing anything down, so a hot-swap racing the
// destructor can never deliver a callback into a dying engine. Before the
// fix, the swap listener could fire between drain() and the worker joins
// and touch freed stream state — this loop makes that window hot (the
// ASan job turns any miss into a hard failure).
TEST(ReconstructionEngine, RegistrySwapWhileEngineDyingStress) {
  const Fixture fx;
  runtime::ModelRegistry registry;
  registry.register_model(1, fx.rec.model());

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop) registry.register_model(1, fx.rec.model());
  });

  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 4;
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {2});
  for (int round = 0; round < 50; ++round) {
    runtime::ReconstructionEngine engine(
        registry, options,
        [](std::uint64_t, std::uint64_t, numerics::ConstMatrixView) {});
    // Live masked streams give the swap listener real prewarm work to do
    // while the destructor races it.
    for (std::uint64_t f = 0; f < 6; ++f) {
      const numerics::Vector frame = fx.frame(round, f);
      engine.push_frame(7, numerics::ConstVectorView(frame.data(),
                                                     frame.size()),
                        1, mask);
    }
    // Destruct immediately: the destructor must win against in-flight
    // swap callbacks every single time.
  }
  stop = true;
  swapper.join();
}

// A hot swap under a live dropout mask must serve the NEW version's
// factors from the first post-swap batch: each registered version owns a
// fresh FactorCache, so a stale factor (built for the old model under the
// same mask) can never leak into the swapped model's results.
TEST(ReconstructionEngine, HotSwapUnderLiveMaskServesNoStaleFactor) {
  const Fixture fx;
  // Same basis/sensors, different mean: a stale factor applied to the new
  // model would shift every cell detectably.
  numerics::Vector shifted_mean(fx.basis.cell_count(), 75.0);
  const core::Reconstructor rec_v2(fx.basis, 8, fx.sensors, shifted_mean);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {1, 4});

  runtime::ModelRegistry registry;
  registry.register_model(1, fx.rec.model());
  runtime::EngineOptions options;
  options.worker_count = 2;
  options.batch_size = 4;
  // Asserts batch boundaries: with the workers held, only batch_size,
  // flush and drain may cut.
  options.max_batch_delay = std::chrono::hours(1);
  WorkerHold hold;
  std::mutex delivered_mutex;
  std::map<std::uint64_t, numerics::Matrix> delivered;
  runtime::ReconstructionEngine engine(
      registry, options,
      [&](std::uint64_t stream, std::uint64_t first_seq,
          numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        std::lock_guard<std::mutex> lock(delivered_mutex);
        delivered.emplace(first_seq, numerics::Matrix(maps));
      });

  numerics::Matrix frames(8, fx.sensors.size());
  for (std::size_t f = 0; f < 8; ++f) frames.set_row(f, fx.frame(5, f));
  // First batch under v1 with the mask resident in v1's cache...
  hold.engage(engine, frames.row_view(0), 1);
  for (std::size_t f = 0; f < 4; ++f) {
    engine.push_frame(3, frames.row_view(f), 1, mask);
  }
  hold.release();
  engine.drain();
  // ...then hot-swap and serve the same mask immediately.
  registry.register_model(1, rec_v2.model());
  hold.engage(engine, frames.row_view(0), 1);
  for (std::size_t f = 4; f < 8; ++f) {
    engine.push_frame(3, frames.row_view(f), 1, mask);
  }
  hold.release();
  engine.drain();

  numerics::Matrix second_half(4, fx.sensors.size());
  for (std::size_t f = 0; f < 4; ++f) {
    second_half.set_row(f, frames.row_view(f + 4));
  }
  core::FactorCache fresh_v2(rec_v2.model(), core::FactorCacheOptions{});
  const numerics::Matrix expect =
      fresh_v2.reconstruct_batch(second_half, mask);
  std::lock_guard<std::mutex> lock(delivered_mutex);
  ASSERT_EQ(delivered.count(4), 1u);
  const numerics::Matrix& got = delivered.at(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < expect.cols(); ++i) {
      EXPECT_EQ(got(r, i), expect(r, i)) << "row " << r << " cell " << i;
    }
  }
}

}  // namespace
