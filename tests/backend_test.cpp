// Expansion backends (DESIGN.md §14): the fp32 GEMM's error bound across
// ISA tiers, the fp32 expansion tier's error budget at the paper size
// (full and masked paths), the registry's loud rejection of over-budget
// fp32 models, the single resident V_k^T behind subspace(), per-model
// memory accounting, and the log-linear latency histogram's bucket math
// and interpolated quantiles.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/factor_cache.h"
#include "core/model.h"
#include "numerics/gemm_f32.h"
#include "numerics/isa.h"
#include "numerics/rng.h"
#include "runtime/engine.h"
#include "runtime/registry.h"

namespace {

using namespace eigenmaps;

/// Restores env/default ISA resolution when a sweep scope ends.
struct IsaOverrideGuard {
  ~IsaOverrideGuard() { numerics::clear_isa_override(); }
};

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols,
                               std::uint64_t seed) {
  numerics::Rng rng(seed);
  numerics::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

double max_abs(numerics::ConstMatrixView m) {
  double out = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      out = std::max(out, std::abs(m(i, j)));
    }
  }
  return out;
}

double max_abs_diff(numerics::ConstMatrixView a, numerics::ConstMatrixView b) {
  double out = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      out = std::max(out, std::abs(a(i, j) - b(i, j)));
    }
  }
  return out;
}

TEST(GemmF32, WithinFloatPrecisionOfWidenedReferenceAcrossIsas) {
  const std::size_t m = 13, k = 16, n = 85;
  const numerics::Matrix a = random_matrix(m, k, 14);
  const numerics::Matrix b = random_matrix(k, n, 15);
  std::vector<float> bf(k * n), biasf(n);
  numerics::Rng rng(16);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      bf[i * n + j] = static_cast<float>(b(i, j));
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    biasf[j] = static_cast<float>(rng.normal());
  }
  // Reference: the exact double product over the widened fp32 operands,
  // the value every fp32 accumulation order approximates.
  numerics::Matrix bw(k, n), expected(m, n), absref(m, n);
  numerics::Vector biasw(n);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      bw(i, j) = static_cast<double>(bf[i * n + j]);
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    biasw[j] = static_cast<double>(biasf[j]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = biasw[j], abss = std::abs(biasw[j]);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double af = static_cast<double>(static_cast<float>(a(i, kk)));
        s += af * bw(kk, j);
        abss += std::abs(af) * std::abs(bw(kk, j));
      }
      expected(i, j) = s;
      absref(i, j) = abss;
    }
  }

  const numerics::ConstF32MatrixView bview{bf.data(), k, n, n};
  IsaOverrideGuard guard;
  for (const numerics::Isa isa : numerics::runnable_isas()) {
    numerics::set_isa_override(isa);
    numerics::Matrix out(m, n);
    numerics::matmul_bias_f32_into(a, bview, biasf.data(), out.view());
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double tol = (static_cast<double>(k) + 8.0) *
                           std::numeric_limits<float>::epsilon() *
                           absref(i, j);
        EXPECT_NEAR(out(i, j), expected(i, j), tol)
            << "isa " << numerics::isa_name(isa) << " at (" << i << ", " << j
            << ")";
      }
    }
  }
}

/// Paper-size fixture (60 x 56 grid, K = 16, 24 sensors) shared by the
/// backend model tests.
struct PaperFixture {
  PaperFixture()
      : basis(56, 60, 16),
        mean(basis.cell_count(), 50.0),
        sensors(core::allocate_greedy(basis, 16, 24)) {}

  std::shared_ptr<const core::ReconstructionModel> model(
      const core::ExpansionOptions& opts) const {
    return std::make_shared<const core::ReconstructionModel>(basis, 16,
                                                             sensors, mean,
                                                             opts);
  }

  numerics::Matrix frames(std::size_t count, std::uint64_t seed) const {
    numerics::Rng rng(seed);
    numerics::Matrix out(count, sensors.size());
    for (std::size_t f = 0; f < count; ++f) {
      for (std::size_t s = 0; s < sensors.size(); ++s) {
        out(f, s) = 50.0 + rng.normal();
      }
    }
    return out;
  }

  core::DctBasis basis;
  numerics::Vector mean;
  core::SensorLocations sensors;
};

TEST(Fp32Backend, ErrorWithinBudgetAtPaperSize) {
  const PaperFixture fx;
  core::ExpansionOptions fp32_opts;
  fp32_opts.backend = core::ExpansionBackend::kFp32;
  const auto fp32 = fx.model(fp32_opts);
  EXPECT_GT(fp32->fp32_measured_error(), 0.0);
  EXPECT_LE(fp32->fp32_measured_error(), fp32_opts.fp32_error_budget);

  const auto dense = fx.model({});
  const numerics::Matrix readings = fx.frames(32, 19);
  const numerics::Matrix want = dense->reconstruct_batch(readings);
  const numerics::Matrix got = fp32->reconstruct_batch(readings);
  EXPECT_LE(max_abs_diff(got, want),
            fp32_opts.fp32_error_budget * max_abs(want));
}

TEST(Fp32Backend, MaskedDropoutStaysWithinBudget) {
  const PaperFixture fx;
  const auto dense = fx.model({});
  core::ExpansionOptions fp32_opts;
  fp32_opts.backend = core::ExpansionBackend::kFp32;
  const auto fp32 = fx.model(fp32_opts);

  core::FactorCache dense_cache(dense);
  core::FactorCache fp32_cache(fp32);
  const core::SensorBitmask mask =
      core::SensorBitmask::except(fx.sensors.size(), {3, 11, 17});
  const numerics::Matrix readings = fx.frames(16, 20);
  const numerics::Matrix want = dense_cache.reconstruct_batch(readings, mask);
  const numerics::Matrix got = fp32_cache.reconstruct_batch(readings, mask);
  // The masked solve is fp64 in both models; only the expansion differs,
  // so the budget bounds the masked path exactly like the full path.
  EXPECT_LE(max_abs_diff(got, want),
            fp32_opts.fp32_error_budget * max_abs(want));
}

TEST(Fp32Backend, RegistryRejectsOverBudgetModelLoudly) {
  const PaperFixture fx;
  core::ExpansionOptions tight;
  tight.backend = core::ExpansionBackend::kFp32;
  tight.fp32_error_budget = 1e-12;  // unreachable for fp32 arithmetic
  const auto model = fx.model(tight);  // construction measures, no throw
  EXPECT_GT(model->fp32_measured_error(), tight.fp32_error_budget);

  runtime::ModelRegistry registry;
  EXPECT_THROW(registry.register_model(7, model), std::invalid_argument);
  EXPECT_EQ(registry.resolve(7), nullptr);  // nothing was published

  // The same model under the default budget publishes fine.
  core::ExpansionOptions ok;
  ok.backend = core::ExpansionBackend::kFp32;
  registry.register_model(7, fx.model(ok));
  EXPECT_NE(registry.resolve(7), nullptr);

  // A budget outside [0, 1] never builds, whatever the backend: NaN would
  // switch the publish gate off (measured > NaN is false).
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1e-6,
                           1.5, std::numeric_limits<double>::infinity()}) {
    for (const auto backend : {core::ExpansionBackend::kDense64,
                               core::ExpansionBackend::kFp32}) {
      core::ExpansionOptions opts;
      opts.backend = backend;
      opts.fp32_error_budget = bad;
      EXPECT_THROW(fx.model(opts), std::invalid_argument)
          << "budget " << bad << " on "
          << core::expansion_backend_name(backend);
    }
  }
}

TEST(Model, SubspaceIsTheBasisSliceBitwiseOnEveryBackend) {
  // subspace() transposes the one resident V_k^T back out; the retrainer's
  // warm start and the shard protocol both read the basis through it.
  const PaperFixture fx;
  core::ExpansionOptions fp32_opts;
  fp32_opts.backend = core::ExpansionBackend::kFp32;
  const numerics::Matrix& v = fx.basis.vectors();
  for (const auto& model : {fx.model({}), fx.model(fp32_opts)}) {
    const numerics::Matrix sub = model->subspace();
    ASSERT_EQ(sub.rows(), v.rows());
    ASSERT_EQ(sub.cols(), 16u);
    for (std::size_t i = 0; i < sub.rows(); ++i) {
      EXPECT_EQ(std::memcmp(sub.row_data(i), v.row_data(i),
                            16 * sizeof(double)),
                0)
          << "row " << i << " differs bitwise";
    }
  }
}

TEST(Backends, MemoryAccountingAndEngineGauges) {
  const PaperFixture fx;
  const std::size_t n = fx.basis.cell_count();
  const std::size_t k = 16;
  const auto dense = fx.model({});
  core::ExpansionOptions fp32_opts;
  fp32_opts.backend = core::ExpansionBackend::kFp32;
  const auto fp32 = fx.model(fp32_opts);

  // Every model holds exactly one fp64 V_k^T, whatever its backend.
  EXPECT_EQ(dense->dense_expansion_bytes(), k * n * sizeof(double));
  EXPECT_EQ(fp32->dense_expansion_bytes(), k * n * sizeof(double));
  EXPECT_EQ(dense->expansion_bytes(), dense->dense_expansion_bytes());
  EXPECT_EQ(fp32->expansion_bytes(), k * n * sizeof(float) +
                                         n * sizeof(float));
  // The operator the fp32 kernel streams is at least 40% smaller than the
  // fp64 one the dense GEMM streams.
  const double reduction =
      1.0 - static_cast<double>(fp32->expansion_bytes()) /
                static_cast<double>(fp32->dense_expansion_bytes());
  EXPECT_GE(reduction, 0.40);

  // The engine's stats overlay surfaces the same gauges per model id.
  runtime::ModelRegistry registry;
  registry.register_model(1, dense);
  registry.register_model(2, fp32);
  runtime::EngineOptions options;
  options.worker_count = 1;
  options.batch_size = 4;
  runtime::ReconstructionEngine engine(
      registry, options,
      [](std::uint64_t, std::uint64_t, numerics::ConstMatrixView) {});
  const numerics::Matrix readings = fx.frames(4, 21);
  for (std::uint64_t id = 1; id <= 2; ++id) {
    for (std::size_t f = 0; f < 4; ++f) {
      engine.push_frame(id, readings.row_view(f), id);
    }
  }
  engine.drain();
  const runtime::EngineStats stats = engine.stats();
  const runtime::ModelStats& m1 = stats.models.at(1);
  EXPECT_EQ(m1.expansion_backend,
            static_cast<std::uint32_t>(core::ExpansionBackend::kDense64));
  EXPECT_EQ(m1.dense_expansion_bytes, dense->dense_expansion_bytes());
  EXPECT_EQ(m1.fp32_expansion_bytes, 0u);
  const runtime::ModelStats& m2 = stats.models.at(2);
  EXPECT_EQ(m2.expansion_backend,
            static_cast<std::uint32_t>(core::ExpansionBackend::kFp32));
  EXPECT_EQ(m2.fp32_expansion_bytes, fp32->expansion_bytes());
  EXPECT_EQ(m2.fp32_measured_error, fp32->fp32_measured_error());
  // An fp32 model's resident operator bytes: the fp64 V_k^T plus the fp32
  // operator and bias on top — more than dense64, not less.
  EXPECT_EQ(m2.dense_expansion_bytes + m2.fp32_expansion_bytes,
            k * n * sizeof(double) + k * n * sizeof(float) +
                n * sizeof(float));
}

TEST(LatencyHistogram, LogLinearBucketMath) {
  using H = runtime::LatencyHistogram;
  EXPECT_EQ(H::bucket_for(0), 0u);
  EXPECT_EQ(H::bucket_for(1023), 0u);
  EXPECT_EQ(H::bucket_for(1024), 1u);
  EXPECT_EQ(H::bucket_for(1024 + 63), 1u);
  EXPECT_EQ(H::bucket_for(1024 + 64), 2u);
  EXPECT_EQ(H::bucket_for(2047), 16u);
  EXPECT_EQ(H::bucket_for(2048), 17u);
  EXPECT_EQ(H::bucket_lower_ns(0), 0u);
  EXPECT_EQ(H::bucket_lower_ns(1), 1024u);
  EXPECT_EQ(H::bucket_lower_ns(2), 1024u + 64u);
  EXPECT_EQ(H::bucket_lower_ns(17), 2048u);
  // Round trip: every sampled ns lands in a bucket whose bounds hold it.
  for (const std::uint64_t ns :
       {1ull, 1024ull, 5000ull, 123456ull, 7890123ull, 1ull << 40}) {
    const std::size_t b = H::bucket_for(ns);
    ASSERT_LT(b, H::kBuckets);
    EXPECT_LE(H::bucket_lower_ns(b), ns);
    if (b + 1 < H::kBuckets) EXPECT_LT(ns, H::bucket_lower_ns(b + 1));
  }
  // Bucket lower bounds are strictly increasing: the quantile walk's
  // interpolation intervals are well formed.
  for (std::size_t b = 1; b < H::kBuckets; ++b) {
    EXPECT_GT(H::bucket_lower_ns(b), H::bucket_lower_ns(b - 1));
  }
}

TEST(LatencyHistogram, InterpolatedQuantilesAndMerge) {
  using H = runtime::LatencyHistogram;
  H all, evens, odds;
  // One octave of uniform samples: 1024..2047 once each. Sub-buckets are
  // 64 ns wide here, so interpolation must land within one sub-bucket of
  // the exact order statistic.
  for (std::uint64_t ns = 1024; ns < 2048; ++ns) {
    all.record(ns);
    ((ns % 2 == 0) ? evens : odds).record(ns);
  }
  EXPECT_EQ(all.total, 1024u);
  EXPECT_NEAR(static_cast<double>(all.quantile_ns(0.5)), 1535.5, 64.0);
  EXPECT_NEAR(static_cast<double>(all.quantile_ns(0.99)), 2036.8, 64.0);
  EXPECT_GE(all.quantile_ns(0.0), 1024u);
  EXPECT_LE(all.quantile_ns(1.0), 2048u);

  H merged;
  merged.merge(evens);
  merged.merge(odds);
  EXPECT_EQ(merged.total, all.total);
  EXPECT_EQ(merged.counts, all.counts);
  EXPECT_EQ(merged.quantile_ns(0.5), all.quantile_ns(0.5));
  EXPECT_EQ(merged.quantile_ns(0.999), all.quantile_ns(0.999));
}

}  // namespace
