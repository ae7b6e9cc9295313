// FactorCache: mask-keyed factors match a from-scratch model on the
// surviving sensors bit for bit, the LRU stays bounded, and the per-mask
// rank guard and condition ceiling fire.
#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/factor_cache.h"
#include "core/reconstructor.h"
#include "numerics/rng.h"

namespace {

using namespace eigenmaps;

TEST(SensorBitmask, BasicsAndHashing) {
  core::SensorBitmask all(70);  // spans two words
  EXPECT_EQ(all.size(), 70u);
  EXPECT_EQ(all.active_count(), 70u);
  EXPECT_TRUE(all.all_active());

  core::SensorBitmask mask = core::SensorBitmask::except(70, {3, 64, 69});
  EXPECT_EQ(mask.active_count(), 67u);
  EXPECT_FALSE(mask.all_active());
  EXPECT_FALSE(mask.active(64));
  EXPECT_TRUE(mask.active(4));
  EXPECT_NE(mask.hash(), all.hash());
  EXPECT_NE(mask, all);
  mask.set(3, true);
  mask.set(64, true);
  mask.set(69, true);
  EXPECT_EQ(mask, all);
  EXPECT_EQ(mask.hash(), all.hash());

  const std::vector<std::size_t> slots =
      core::SensorBitmask::except(6, {0, 4}).active_slots();
  EXPECT_EQ(slots, (std::vector<std::size_t>{1, 2, 3, 5}));

  EXPECT_THROW(mask.set(70, true), std::out_of_range);
  EXPECT_THROW(all.active(70), std::out_of_range);
}

struct CacheFixture {
  CacheFixture()
      : basis(16, 14, 10),
        mean(basis.cell_count(), 45.0),
        sensors(core::allocate_greedy(basis, 8, 16)),
        rec(basis, 8, sensors, mean) {}

  /// Frames full of plausible readings (mean + unit noise), full width.
  numerics::Matrix frames(std::size_t count, std::uint64_t seed) const {
    numerics::Rng rng(seed);
    numerics::Matrix out(count, sensors.size());
    for (std::size_t f = 0; f < count; ++f) {
      for (std::size_t s = 0; s < sensors.size(); ++s) {
        out(f, s) = 45.0 + rng.normal();
      }
    }
    return out;
  }

  /// A from-scratch Reconstructor on the mask's surviving sensors — the
  /// ground truth the masked path must match.
  core::Reconstructor survivors(const core::SensorBitmask& mask) const {
    core::SensorLocations surviving;
    for (const std::size_t s : mask.active_slots()) {
      surviving.push_back(sensors[s]);
    }
    return core::Reconstructor(basis, 8, surviving, mean);
  }

  /// `readings` without the mask's dead slots: what survivors(mask) reads.
  static numerics::Matrix compact(const numerics::Matrix& readings,
                                  const core::SensorBitmask& mask) {
    const std::vector<std::size_t> slots = mask.active_slots();
    numerics::Matrix out(readings.rows(), slots.size());
    for (std::size_t f = 0; f < readings.rows(); ++f) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        out(f, i) = readings(f, slots[i]);
      }
    }
    return out;
  }

  numerics::Matrix from_scratch(const numerics::Matrix& readings,
                                const core::SensorBitmask& mask) const {
    return survivors(mask).reconstruct_batch(compact(readings, mask));
  }

  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
  core::Reconstructor rec;
};

TEST(FactorCache, FullMaskIsBitIdenticalToTheModelPath) {
  const CacheFixture fx;
  core::FactorCache cache(fx.rec.model());
  const numerics::Matrix readings = fx.frames(5, 1);
  const numerics::Matrix expect = fx.rec.reconstruct_batch(readings);

  for (const core::SensorBitmask& mask :
       {core::SensorBitmask(), core::SensorBitmask(fx.sensors.size())}) {
    const numerics::Matrix got = cache.reconstruct_batch(readings, mask);
    ASSERT_EQ(got.rows(), expect.rows());
    for (std::size_t f = 0; f < got.rows(); ++f) {
      for (std::size_t i = 0; i < got.cols(); ++i) {
        EXPECT_DOUBLE_EQ(got(f, i), expect(f, i));
      }
    }
  }
  EXPECT_EQ(cache.size(), 0u);  // the full mask burns no cache slot

  // Direct factor() lookups of the full pattern serve one permanently
  // resident factor — still no LRU slot, never a miss.
  EXPECT_EQ(cache.factor(core::SensorBitmask()).get(),
            cache.factor(core::SensorBitmask(fx.sensors.size())).get());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(FactorCache, RefactoredPathMatchesFromScratchReconstruction) {
  const CacheFixture fx;
  core::FactorCache cache(fx.rec.model());

  numerics::Matrix readings = fx.frames(6, 3);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {0, 5, 13});
  const numerics::Matrix expect = fx.from_scratch(readings, mask);
  // Garbage in the dead slots must not leak into the estimate.
  for (std::size_t f = 0; f < readings.rows(); ++f) {
    readings(f, 0) = readings(f, 5) = readings(f, 13) = 1e9;
  }
  const numerics::Matrix got = cache.reconstruct_batch(readings, mask);

  ASSERT_EQ(got.rows(), expect.rows());
  ASSERT_EQ(got.cols(), expect.cols());
  for (std::size_t f = 0; f < got.rows(); ++f) {
    for (std::size_t i = 0; i < got.cols(); ++i) {
      EXPECT_NEAR(got(f, i), expect(f, i), 1e-10);
    }
  }
  EXPECT_EQ(cache.stats().refactors, 1u);
  EXPECT_EQ(cache.factor(mask)->method(),
            core::MaskedFactor::Method::kRefactored);
}

/// The masked path runs exactly what a ReconstructionModel built on the
/// survivors runs (rank guard, QR, solve, expansion), so its maps and its
/// condition number are that model's to the last bit, at every dropout
/// depth.
TEST(FactorCache, MaskedPathMatchesFromScratchModelBitForBit) {
  const CacheFixture fx;
  core::FactorCache cache(fx.rec.model());
  const numerics::Matrix readings = fx.frames(32, 8);
  numerics::Rng rng(9);

  for (std::size_t dead = 1; dead <= 6; ++dead) {
    for (int draw = 0; draw < 4; ++draw) {
      std::vector<std::size_t> dropped;
      while (dropped.size() < dead) {
        const std::size_t slot =
            static_cast<std::size_t>(rng.next_u64() % fx.sensors.size());
        if (std::find(dropped.begin(), dropped.end(), slot) ==
            dropped.end()) {
          dropped.push_back(slot);
        }
      }
      const core::SensorBitmask mask =
          core::SensorBitmask::except(fx.sensors.size(), dropped);
      SCOPED_TRACE(::testing::Message() << dead << " dead, draw " << draw);

      const core::Reconstructor fresh = fx.survivors(mask);
      const numerics::Matrix expect =
          fresh.reconstruct_batch(CacheFixture::compact(readings, mask));
      const numerics::Matrix got = cache.reconstruct_batch(readings, mask);

      ASSERT_EQ(got.rows(), expect.rows());
      ASSERT_EQ(got.cols(), expect.cols());
      EXPECT_EQ(std::memcmp(got.storage().data(), expect.storage().data(),
                            got.storage().size() * sizeof(double)),
                0);
      EXPECT_EQ(cache.factor(mask)->condition(), fresh.condition_number());
    }
  }
}

TEST(FactorCache, CountsHitsAndMissesPerMask) {
  const CacheFixture fx;
  core::FactorCache cache(fx.rec.model());
  const numerics::Matrix readings = fx.frames(4, 4);
  const core::SensorBitmask a =
      core::SensorBitmask::except(fx.sensors.size(), {1});
  const core::SensorBitmask b =
      core::SensorBitmask::except(fx.sensors.size(), {9});

  cache.validate(a);                     // miss (builds), not a hit
  cache.validate(a);                     // resident: silent
  cache.reconstruct_batch(readings, a);  // hit
  cache.reconstruct_batch(readings, b);  // miss
  cache.reconstruct_batch(readings, a);  // hit
  cache.reconstruct_batch(readings, core::SensorBitmask());  // full bypass

  const core::FactorCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.full_mask_batches, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FactorCache, LruEvictsTheColdestMask) {
  const CacheFixture fx;
  core::FactorCacheOptions options;
  options.capacity = 2;
  core::FactorCache cache(fx.rec.model(), options);
  const numerics::Matrix readings = fx.frames(2, 5);

  const auto drop = [&](std::size_t s) {
    return core::SensorBitmask::except(fx.sensors.size(), {s});
  };
  cache.reconstruct_batch(readings, drop(0));  // miss: {0}
  cache.reconstruct_batch(readings, drop(1));  // miss: {0, 1}
  cache.reconstruct_batch(readings, drop(0));  // hit, {0} now hottest
  cache.reconstruct_batch(readings, drop(2));  // miss: evicts {1}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // {0} survived the eviction (hit); {1} has to rebuild (miss).
  cache.reconstruct_batch(readings, drop(0));
  cache.reconstruct_batch(readings, drop(1));
  const core::FactorCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 2u);
  // Results stay correct across eviction and rebuild.
  const numerics::Matrix expect = fx.from_scratch(readings, drop(1));
  const numerics::Matrix got = cache.reconstruct_batch(readings, drop(1));
  for (std::size_t f = 0; f < got.rows(); ++f) {
    for (std::size_t i = 0; i < got.cols(); ++i) {
      EXPECT_NEAR(got(f, i), expect(f, i), 1e-10);
    }
  }
}

TEST(FactorCache, RankGuardRefusesMasksBelowTheOrder) {
  const CacheFixture fx;  // order 8, 16 sensors
  core::FactorCache cache(fx.rec.model());
  // 9 drops leave 7 survivors < order 8: Theorem 1 cannot hold.
  const core::SensorBitmask mask = core::SensorBitmask::except(
      fx.sensors.size(), {0, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_THROW(cache.factor(mask), std::invalid_argument);
  EXPECT_THROW(cache.reconstruct_batch(fx.frames(1, 6), mask),
               std::invalid_argument);
  EXPECT_EQ(cache.stats().rejections, 2u);
  EXPECT_EQ(cache.size(), 0u);   // rejected masks hold no factor slot
  EXPECT_EQ(cache.stats().misses, 0u);  // ...and do not count as misses
}

TEST(FactorCache, ConditionCeilingRejectsIllConditionedMasks) {
  const CacheFixture fx;
  core::FactorCacheOptions options;
  options.condition_ceiling = 1.0 + 1e-12;  // nothing real passes this
  core::FactorCache cache(fx.rec.model(), options);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {4});
  EXPECT_THROW(cache.factor(mask), std::invalid_argument);
  EXPECT_GE(cache.stats().rejections, 1u);

  // The same mask is fine under the default ceiling.
  core::FactorCache relaxed(fx.rec.model());
  EXPECT_GE(relaxed.factor(mask)->condition(), 1.0);
}

TEST(FactorCache, RejectsWrongWidthMasksAndReadings) {
  const CacheFixture fx;
  core::FactorCache cache(fx.rec.model());
  EXPECT_THROW(cache.factor(core::SensorBitmask(fx.sensors.size() + 1)),
               std::invalid_argument);
  EXPECT_THROW(
      cache.reconstruct_batch(numerics::Matrix(2, fx.sensors.size() - 1),
                              core::SensorBitmask()),
      std::invalid_argument);
}

}  // namespace
