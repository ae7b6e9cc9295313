// The zero-allocation steady-state invariant (DESIGN.md §10), pinned with
// the counting allocator from alloc_counter.cpp: once workspaces, buffer
// pools and factor caches are warm, the `_into` reconstruction paths and
// the streaming engine serve frames without a single heap allocation.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "core/reconstructor.h"
#include "core/workspace.h"
#include "numerics/blas.h"
#include "numerics/isa.h"
#include "numerics/rng.h"
#include "obs/trace.h"
#include "runtime/engine.h"
#include "worker_hold.h"

namespace {

using namespace eigenmaps;

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

  numerics::Matrix frames(std::size_t count, std::uint64_t seed) const {
    numerics::Rng rng(seed);
    numerics::Matrix f(count, sensors.size());
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t s = 0; s < sensors.size(); ++s) {
        f(i, s) = 40.0 + rng.normal();
      }
    }
    return f;
  }
};

/// Warm-up hold for the engine batch cycles below: on the first batch of
/// `stream`, the (single) worker waits inside on_batch — holding both the
/// batch's input and its output buffer — until the producer has begun its
/// `release_at`-th push_frame (the test bumps `pushes` before each call).
/// Pick `release_at` as the push that cuts the first batch the full queue
/// cannot take: at that moment every buffer the engine can hold at once is
/// live together (held input + output, a full queue, a pending batch on
/// every stream), so warm-up provably mints the pool's peak population.
/// Without the hold a scheduler hiccup in the measured cycle can reach a
/// peak warm-up never saw and mint one buffer mid-measurement.
///
/// The tests queue `stream`'s first batch, and any the worker takes
/// before it, while a WorkerHold holds the worker, so the worker goes from
/// that hold to this one without finding the queue empty: no push before
/// `release_at` finds it idle, and every batch up to there is cut by size
/// (DESIGN.md §8).
class PeakHold final : public runtime::BatchObserver {
 public:
  PeakHold(std::uint64_t stream, std::uint64_t release_at)
      : stream_(stream), release_at_(release_at) {}

  void on_batch(std::uint64_t, std::uint64_t, std::uint64_t stream,
                const core::ReconstructionModel&, const core::SensorBitmask&,
                numerics::ConstMatrixView, numerics::ConstMatrixView) override {
    if (stream != stream_ || held_) return;
    held_ = true;
    while (pushes.load() < release_at_) std::this_thread::yield();
  }
  runtime::AdaptationCounters counters(std::uint64_t) const override {
    return {};
  }

  std::atomic<std::uint64_t> pushes{0};

 private:
  const std::uint64_t stream_;
  const std::uint64_t release_at_;
  bool held_ = false;  // touched by the one worker thread only
};

TEST(ZeroAlloc, ThousandSingleFrameReconstructIntoCalls) {
  const Fixture fx;
  const std::shared_ptr<const core::ReconstructionModel> model =
      fx.rec.model();
  const numerics::Matrix frames = fx.frames(16, 7);

  core::Workspace workspace;
  numerics::Vector out(model->cell_count());
  for (int warm = 0; warm < 3; ++warm) {
    model->reconstruct_into(frames.row_view(warm), out, workspace);
  }

  const std::uint64_t before = testhook::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    model->reconstruct_into(frames.row_view(i % 16), out, workspace);
  }
  EXPECT_EQ(testhook::allocation_count() - before, 0u)
      << "warmed reconstruct_into must not touch the heap";

  // The result is still the real reconstruction, bit for bit (the last
  // iteration reconstructed frame 999 % 16).
  const numerics::Vector expect = model->reconstruct(frames.row_view(999 % 16));
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(out[i], expect[i]);
  }
}

TEST(ZeroAlloc, BatchedReconstructIntoAndMaskedCachePath) {
  const Fixture fx;
  const std::shared_ptr<const core::ReconstructionModel> model =
      fx.rec.model();
  core::FactorCache cache(model);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {1, 5});
  const numerics::Matrix frames = fx.frames(32, 9);

  core::Workspace workspace;
  numerics::Matrix out(frames.rows(), model->cell_count());
  // Warm the workspace on both layouts and build the mask's factor.
  model->reconstruct_batch_into(frames, out.view(), workspace);
  cache.reconstruct_batch_into(frames, mask, out.view(), workspace);

  const std::uint64_t before = testhook::allocation_count();
  for (int i = 0; i < 50; ++i) {
    model->reconstruct_batch_into(frames, out.view(), workspace);
    cache.reconstruct_batch_into(frames, mask, out.view(), workspace);
  }
  EXPECT_EQ(testhook::allocation_count() - before, 0u)
      << "warmed batch paths (full and masked) must not touch the heap";
}

/// The dispatched SIMD kernels themselves (DESIGN.md §13): once inputs
/// and outputs exist, every `_into` kernel runs heap-free on every
/// compiled dispatch tier. Shapes sit off the register-tile boundaries so
/// the masked edge paths are the ones being exercised.
TEST(ZeroAlloc, SimdKernelsHeapFreeOnEveryTier) {
  numerics::set_blas_threads(1);  // keep parallel_ranges from spawning
  const std::size_t m = 19, k = 13, n = 21;
  numerics::Rng rng(17);
  numerics::Matrix a(m, k), b(k, n), c(m, n), g(k, k);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) a(i, j) = rng.normal();
  }
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  }
  const numerics::Vector bias = rng.normal_vector(n);
  const numerics::Vector x = rng.normal_vector(k);
  const numerics::Vector xt = rng.normal_vector(m);
  numerics::Vector y(m), yt(k);

  for (const numerics::Isa isa : numerics::runnable_isas()) {
    SCOPED_TRACE(numerics::isa_name(isa));
    numerics::set_isa_override(isa);
    const auto all_kernels = [&] {
      numerics::matmul_into(a.view(), b.view(), c.view());
      numerics::matmul_bias_into(a.view(), b.view(), bias, c.view());
      numerics::matmul_accumulate(a.view(), b.view(), c.view());
      numerics::gram_into(a.view(), g.view());
      numerics::matvec_into(a.view(), x, y);
      numerics::matvec_transpose_into(a.view(), xt, yt);
    };
    all_kernels();  // warm
    const std::uint64_t before = testhook::allocation_count();
    for (int i = 0; i < 100; ++i) all_kernels();
    EXPECT_EQ(testhook::allocation_count() - before, 0u)
        << "warmed kernels must not touch the heap";
    numerics::clear_isa_override();
  }
  numerics::set_blas_threads(0);
}

TEST(ZeroAlloc, WarmedEngineBatchCycle) {
  const Fixture fx;
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {2, 7});
  const numerics::Matrix frames = fx.frames(64, 11);

  std::atomic<std::uint64_t> delivered{0};
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 8;
  options.queue_capacity = 2;  // bounds in-flight buffers, so warm-up
                               // reaches the pool's steady population fast
  // Asserts batch boundaries: with the worker held, only batch_size cuts.
  options.max_batch_delay = std::chrono::hours(1);
  // Pushes alternate streams 1, 2 frame by frame, a round (one batch per
  // stream, a full queue) at a time. Round 0 queues under the WorkerHold;
  // then the worker takes stream 1's first batch and PeakHold keeps it on
  // stream 2's. With round 1 queued, the push that cuts stream 1's third
  // batch (2 streams x 3 batches - 1) is the one that blocks, while stream
  // 2's third batch is pending too: 5 inputs + 1 output live.
  PeakHold peak(2, 2 * 3 * options.batch_size - 1);
  options.observer = &peak;
  testhook::WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t, numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        delivered.fetch_add(maps.rows(), std::memory_order_relaxed);
      });

  // One no-dropout stream and one degraded stream, the steady serving mix.
  const auto push_rounds = [&](std::size_t first, std::size_t end) {
    for (std::size_t b = first; b < end; ++b) {
      for (std::size_t f = 0; f < options.batch_size; ++f) {
        const numerics::ConstVectorView frame =
            frames.row_view((b * options.batch_size + f) % frames.rows());
        ++peak.pushes;
        engine.push_frame(1, frame);
        ++peak.pushes;
        engine.push_frame(2, frame, runtime::ReconstructionEngine::
                                        kDefaultModel, mask);
      }
    }
  };
  // Each round queues whole while the worker is held, so it fills the
  // queue without blocking and the worker drains it before the next.
  const auto push_held_rounds = [&](std::size_t first, std::size_t end) {
    for (std::size_t b = first; b < end; ++b) {
      hold.engage(engine, frames.row_view(0));
      push_rounds(b, b + 1);
      hold.release();
    }
  };
  const auto wait_for = [&](std::uint64_t target) {
    while (delivered.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  };

  // Warm-up: mint pool buffers (the first cycle passes through the held
  // peak), grow the worker workspace, build the mask's factor, size the
  // delivery queues.
  hold.engage(engine, frames.row_view(0));
  push_rounds(0, 1);
  hold.release();
  push_rounds(1, 3);  // PeakHold holds the worker until the last of these
  push_held_rounds(3, 6);
  wait_for(2 * 6 * options.batch_size);
  push_held_rounds(0, 6);
  wait_for(2 * 12 * options.batch_size);

  const runtime::EngineStats warm_stats = engine.stats();
  const std::uint64_t before = testhook::allocation_count();
  push_held_rounds(0, 10);
  wait_for(2 * 22 * options.batch_size);
  EXPECT_EQ(testhook::allocation_count() - before, 0u)
      << "a warmed engine must serve full batches without heap allocations";

  // The per-model steady-state counter agrees: warm-up paid, steady didn't.
  const runtime::EngineStats stats = engine.stats();
  const runtime::ModelStats& model_stats =
      stats.models.at(runtime::ReconstructionEngine::kDefaultModel);
  const runtime::ModelStats& warm_model_stats =
      warm_stats.models.at(runtime::ReconstructionEngine::kDefaultModel);
  EXPECT_GT(warm_model_stats.steady_state_allocations, 0u);
  EXPECT_EQ(model_stats.steady_state_allocations,
            warm_model_stats.steady_state_allocations);
  // The hold's frames are served too, one per round.
  EXPECT_EQ(stats.frames_completed,
            2u * 22u * options.batch_size + hold.frames());
}

TEST(ZeroAlloc, WarmedTracedEngineBatchCycleStaysHeapFree) {
  // The tracing overhead budget (DESIGN.md §15): a warmed engine serving
  // *traced* frames must still be allocation-free — span records go into
  // the preallocated per-thread rings minted during warm-up, and the
  // per-stage histograms are fixed storage.
  obs::drain_spans();
  obs::set_tracing(true);
  const Fixture fx;
  const numerics::Matrix frames = fx.frames(64, 15);

  std::atomic<std::uint64_t> delivered{0};
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 8;
  options.queue_capacity = 2;
  // Asserts batch boundaries: with the worker held, only batch_size cuts.
  options.max_batch_delay = std::chrono::hours(1);
  // The first two batches queue under the WorkerHold; then the worker
  // takes the first and PeakHold keeps it there. With the next two queued,
  // the push that cuts the fourth batch is the one that blocks: 4 inputs +
  // 1 output live.
  PeakHold peak(1, 4 * options.batch_size);
  options.observer = &peak;
  testhook::WorkerHold hold;
  {
    runtime::ReconstructionEngine engine(
        fx.rec, options,
        [&](std::uint64_t stream, std::uint64_t,
            numerics::ConstMatrixView maps) {
          if (hold.held(stream)) return;
          delivered.fetch_add(maps.rows(), std::memory_order_relaxed);
        });

    obs::ensure_thread_ring();  // the producer thread's ring, pre-minted
    const auto push_batches = [&](std::size_t first, std::size_t end) {
      for (std::size_t b = first; b < end; ++b) {
        for (std::size_t f = 0; f < options.batch_size; ++f) {
          ++peak.pushes;
          engine.push_frame(1, frames.row_view(
                                   (b * options.batch_size + f) %
                                   frames.rows()));
        }
      }
    };
    // A full queue (two batches) at a time while the worker is held, so
    // every batch is cut by size and the worker drains them before the
    // next pair.
    const auto push_held_batches = [&](std::size_t first, std::size_t end) {
      for (std::size_t b = first; b < end; b += options.queue_capacity) {
        hold.engage(engine, frames.row_view(0));
        push_batches(b, b + options.queue_capacity);
        hold.release();
      }
    };
    const auto wait_for = [&](std::uint64_t target) {
      while (delivered.load(std::memory_order_relaxed) < target) {
        std::this_thread::yield();
      }
    };

    hold.engage(engine, frames.row_view(0));
    push_batches(0, 2);
    hold.release();
    push_batches(2, 4);  // PeakHold holds the worker until the last of these
    push_held_batches(4, 6);
    wait_for(6 * options.batch_size);
    push_held_batches(0, 6);
    wait_for(12 * options.batch_size);

    const std::uint64_t before = testhook::allocation_count();
    push_held_batches(0, 10);
    wait_for(22 * options.batch_size);
    EXPECT_EQ(testhook::allocation_count() - before, 0u)
        << "a warmed engine must serve traced batches without allocating";

    // The frames really were traced: spans exist for every engine stage.
    const std::vector<obs::SpanRecord> spans = obs::drain_spans();
    bool seen[obs::kEngineStageCount] = {};
    for (const obs::SpanRecord& span : spans) {
      if (span.stream == 1 && span.stage < obs::kEngineStageCount) {
        seen[span.stage] = true;
      }
    }
    for (std::size_t s = 0; s < obs::kEngineStageCount; ++s) {
      EXPECT_TRUE(seen[s]) << "stage " << s << " recorded no spans";
    }
  }
  obs::set_tracing(false);
  obs::drain_spans();
}

TEST(ZeroAlloc, ShortBatchWarmUpCoversFullBatches) {
  // Idle and age cuts make batch lengths vary, so every per-batch buffer
  // is sized for a full batch (DESIGN.md §10): an engine warmed only on
  // short batches serves full ones without touching the heap.
  const Fixture fx;
  const numerics::Matrix frames = fx.frames(8, 19);

  std::atomic<std::uint64_t> delivered{0};
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 8;
  // Asserts batch boundaries: with the worker held, only batch_size and
  // flush cut.
  options.max_batch_delay = std::chrono::hours(1);
  testhook::WorkerHold hold;
  runtime::ReconstructionEngine engine(
      fx.rec, options,
      [&](std::uint64_t stream, std::uint64_t, numerics::ConstMatrixView maps) {
        if (hold.held(stream)) return;
        delivered.fetch_add(maps.rows(), std::memory_order_relaxed);
      });
  const auto wait_for = [&](std::uint64_t target) {
    while (delivered.load(std::memory_order_relaxed) < target) {
      std::this_thread::yield();
    }
  };

  // Warm-up: four 3-frame batches, each cut by flush() and delivered
  // before the next.
  for (std::uint64_t b = 0; b < 4; ++b) {
    hold.engage(engine, frames.row_view(0));
    for (std::size_t f = 0; f < 3; ++f) {
      engine.push_frame(1, frames.row_view(f));
    }
    engine.flush(1);
    hold.release();
    wait_for(3 * (b + 1));
  }

  const std::uint64_t before = testhook::allocation_count();
  for (std::uint64_t b = 0; b < 4; ++b) {
    hold.engage(engine, frames.row_view(0));
    for (std::size_t f = 0; f < options.batch_size; ++f) {
      engine.push_frame(1, frames.row_view(f));
    }
    hold.release();
    wait_for(12 + options.batch_size * (b + 1));
  }
  EXPECT_EQ(testhook::allocation_count() - before, 0u)
      << "full batches after a short-batch warm-up must not touch the heap";
}

TEST(ZeroAlloc, WorkspaceGrowsOnlyWhenNeedGrows) {
  core::Workspace workspace;
  EXPECT_TRUE(workspace.begin(100));   // first reservation allocates
  EXPECT_FALSE(workspace.begin(64));   // smaller: reuse
  EXPECT_FALSE(workspace.begin(100));  // equal: reuse
  EXPECT_TRUE(workspace.begin(101));   // larger: grow
  EXPECT_EQ(workspace.growths(), 2u);

  // Blocks are 64-byte aligned and disjoint.
  const double* a = workspace.alloc(3);
  const double* b = workspace.alloc(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
  EXPECT_GE(b, a + 3);

  // Overrunning the reservation is a sizing bug, reported loudly.
  EXPECT_THROW(workspace.alloc(1024), std::logic_error);
}

}  // namespace
