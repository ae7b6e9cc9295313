#include "core/model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "numerics/blas.h"
#include "numerics/gemm_f32.h"
#include "obs/trace.h"
#include "numerics/svd.h"

namespace eigenmaps::core {

namespace {

constexpr double kRankTolerance = 1e-8;

numerics::Matrix sampled_basis_rows(const Basis& basis, std::size_t k,
                                    const SensorLocations& sensors) {
  if (k == 0 || k > basis.max_order()) {
    throw std::invalid_argument("ReconstructionModel: order out of range");
  }
  if (sensors.empty() || k > sensors.size()) {
    throw std::invalid_argument(
        "ReconstructionModel: order exceeds the sensor count");
  }
  const numerics::Matrix& v = basis.vectors();
  numerics::Matrix sampled(sensors.size(), k);
  for (std::size_t s = 0; s < sensors.size(); ++s) {
    if (sensors[s] >= basis.cell_count()) {
      throw std::invalid_argument("ReconstructionModel: sensor out of range");
    }
    const numerics::ConstVectorView row = v.row_view(sensors[s]);
    for (std::size_t j = 0; j < k; ++j) sampled(s, j) = row[j];
  }
  return sampled;
}

const ExpansionOptions& checked_expansion(const ExpansionOptions& expansion) {
  // !(x >= 0) also rejects NaN, which would switch the publish gate off
  // (measured > NaN is false).
  if (!(expansion.fp32_error_budget >= 0.0 &&
        expansion.fp32_error_budget <= 1.0)) {
    throw std::invalid_argument(
        "ReconstructionModel: fp32_error_budget outside [0, 1]");
  }
  return expansion;
}

/// Deterministic coefficient probe for the fp32 error measurement: a fixed
/// LCG fills an 8 x k batch with values in [-1, 1], both operators expand
/// it, and the error is max |fp32 - fp64| / max |fp64|. No wall clock, no
/// global RNG — the same model bytes always measure the same error.
double measure_fp32_error(numerics::ConstMatrixView subspace_t,
                          const numerics::Vector& mean,
                          const numerics::ConstF32MatrixView& f32_op,
                          const float* f32_bias) {
  constexpr std::size_t kProbeFrames = 8;
  const std::size_t k = subspace_t.rows();
  const std::size_t n = subspace_t.cols();
  numerics::Matrix alpha(kProbeFrames, k);
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t f = 0; f < kProbeFrames; ++f) {
    for (std::size_t j = 0; j < k; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double unit =
          static_cast<double>(state >> 11) / 9007199254740992.0;  // [0, 1)
      alpha(f, j) = 2.0 * unit - 1.0;
    }
  }
  numerics::Matrix ref(kProbeFrames, n);
  numerics::Matrix got(kProbeFrames, n);
  numerics::matmul_bias_into(alpha, subspace_t, mean, ref.view());
  numerics::matmul_bias_f32_into(alpha, f32_op, f32_bias, got.view());
  double max_diff = 0.0;
  double max_ref = 0.0;
  for (std::size_t f = 0; f < kProbeFrames; ++f) {
    const double* r = ref.row_data(f);
    const double* g = got.row_data(f);
    for (std::size_t j = 0; j < n; ++j) {
      max_diff = std::max(max_diff, std::fabs(g[j] - r[j]));
      max_ref = std::max(max_ref, std::fabs(r[j]));
    }
  }
  return max_ref > 0.0 ? max_diff / max_ref : max_diff;
}

}  // namespace

const char* expansion_backend_name(ExpansionBackend backend) {
  switch (backend) {
    case ExpansionBackend::kDense64:
      return "dense64";
    case ExpansionBackend::kFp32:
      return "fp32";
  }
  return "unknown";
}

ReconstructionModel::SampledFactor ReconstructionModel::factor_sampled(
    const Basis& basis, std::size_t k, const SensorLocations& sensors) {
  numerics::Matrix sampled = sampled_basis_rows(basis, k, sensors);
  const numerics::Vector sv = numerics::singular_values(sampled);
  if (sv.empty() || sv.front() <= 0.0 ||
      sv.back() < kRankTolerance * sv.front()) {
    // Theorem 1: rank(Psi~_K) = K is required for a unique least-squares
    // estimate; the caller retries with a smaller order.
    throw std::invalid_argument(
        "ReconstructionModel: sampled basis rank deficient");
  }
  numerics::HouseholderQr solver(sampled);  // copy: masks factor Psi~ rows
  return {std::move(sampled), std::move(solver), sv.front() / sv.back()};
}

ReconstructionModel::ReconstructionModel(const Basis& basis, std::size_t k,
                                         SensorLocations sensors,
                                         numerics::Vector mean_map,
                                         const ExpansionOptions& expansion)
    : k_(k),
      sensors_(std::move(sensors)),
      mean_map_(std::move(mean_map)),
      expansion_(checked_expansion(expansion)),
      factor_(factor_sampled(basis, k, sensors_)) {
  if (mean_map_.size() != basis.cell_count()) {
    throw std::invalid_argument("ReconstructionModel: mean map size mismatch");
  }

  mean_at_sensors_.resize(sensors_.size());
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    mean_at_sensors_[s] = mean_map_[sensors_[s]];
  }
  const std::size_t n = basis.cell_count();
  subspace_t_ = numerics::Matrix(k, n);
  const numerics::Matrix& v = basis.vectors();
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = v.row_data(i);
    for (std::size_t j = 0; j < k; ++j) subspace_t_(j, i) = row[j];
  }

  // The fp32 backend converts its operator from the fp64 transpose, which
  // stays resident (subspace() reads it).
  if (expansion_.backend == ExpansionBackend::kFp32) {
    f32_operator_.resize(k * n);
    for (std::size_t j = 0; j < k; ++j) {
      const double* src = subspace_t_.row_data(j);
      float* dst = f32_operator_.data() + j * n;
      for (std::size_t i = 0; i < n; ++i) {
        dst[i] = static_cast<float>(src[i]);
      }
    }
    f32_bias_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      f32_bias_[i] = static_cast<float>(mean_map_[i]);
    }
    fp32_measured_error_ = measure_fp32_error(
        subspace_t_.view(), mean_map_,
        numerics::ConstF32MatrixView{f32_operator_.data(), k, n, n},
        f32_bias_.data());
  }
}

numerics::Matrix ReconstructionModel::subspace() const {
  const std::size_t n = mean_map_.size();
  numerics::Matrix v(n, k_);
  for (std::size_t j = 0; j < k_; ++j) {
    const double* row = subspace_t_.row_data(j);
    for (std::size_t i = 0; i < n; ++i) v(i, j) = row[i];
  }
  return v;
}

std::size_t ReconstructionModel::workspace_doubles(std::size_t frames) const {
  const std::size_t m = sensors_.size();
  // Centered readings + coefficients + solver scratch. The scratch term
  // (m) covers the full-sensor QR and every masked QR a FactorCache can
  // build on this model (fewer rows).
  return Workspace::padded(frames * m) + Workspace::padded(frames * k_) +
         Workspace::padded(m);
}

void ReconstructionModel::sample_into(numerics::ConstVectorView map,
                                      numerics::VectorView readings) const {
  if (map.size() != mean_map_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::sample: map size mismatch");
  }
  if (readings.size() != sensors_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::sample: readings size mismatch");
  }
  for (std::size_t s = 0; s < sensors_.size(); ++s) {
    readings[s] = map[sensors_[s]];
  }
}

numerics::Vector ReconstructionModel::sample(
    numerics::ConstVectorView map) const {
  numerics::Vector readings(sensors_.size());
  sample_into(map, readings);
  return readings;
}

void ReconstructionModel::reconstruct_into(numerics::ConstVectorView readings,
                                           numerics::VectorView out,
                                           Workspace& workspace) const {
  if (readings.size() != sensors_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::reconstruct: readings size mismatch");
  }
  if (out.size() != mean_map_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::reconstruct: output size mismatch");
  }
  const std::size_t m = sensors_.size();
  workspace.begin(workspace_doubles(1));
  numerics::VectorView centered = workspace.alloc_vector(m);
  numerics::VectorView alpha = workspace.alloc_vector(k_);
  numerics::VectorView scratch = workspace.alloc_vector(m);
  for (std::size_t s = 0; s < m; ++s) {
    centered[s] = readings[s] - mean_at_sensors_[s];
  }
  factor_.solver.solve_into(centered, alpha, scratch);
  if (expansion_.backend == ExpansionBackend::kDense64) {
    // Per-cell sums rather than the blocked GEMM: a single map is far below
    // the kernel's threading threshold, and this accumulation order is the
    // historical (golden) one — each cell sums from 0.0 with j ascending,
    // then adds its mean. Walking V_k^T row by row keeps that order.
    const std::size_t n = out.size();
    double* dst = out.data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = 0.0;
    for (std::size_t j = 0; j < k_; ++j) {
      const double* row = subspace_t_.row_data(j);
      const double a = alpha[j];
      for (std::size_t i = 0; i < n; ++i) dst[i] += row[i] * a;
    }
    for (std::size_t i = 0; i < n; ++i) dst[i] = mean_map_[i] + dst[i];
  } else {
    // The fp32 backend expands single maps through the same operator as
    // batches, so a model's single-frame and batch answers agree.
    expand_into(
        numerics::ConstMatrixView(alpha.data(), 1, k_, k_),
        numerics::MatrixView(out.data(), 1, out.size(), out.size()));
  }
}

numerics::Vector ReconstructionModel::reconstruct(
    numerics::ConstVectorView readings) const {
  numerics::Vector map(mean_map_.size());
  reconstruct_into(readings, map, wrapper_workspace());
  return map;
}

void ReconstructionModel::reconstruct_batch_into(
    numerics::ConstMatrixView readings, numerics::MatrixView out,
    Workspace& workspace) const {
  if (readings.cols() != sensors_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::reconstruct_batch: readings size mismatch");
  }
  const std::size_t frames = readings.rows();
  if (out.rows() != frames || out.cols() != mean_map_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::reconstruct_batch: output shape mismatch");
  }
  const std::size_t m = sensors_.size();
  workspace.begin(workspace_doubles(frames));
  numerics::MatrixView centered = workspace.alloc_matrix(frames, m);
  numerics::MatrixView alpha = workspace.alloc_matrix(frames, k_);
  numerics::VectorView scratch = workspace.alloc_vector(m);
  for (std::size_t f = 0; f < frames; ++f) {
    const double* src = readings.row_data(f);
    double* dst = centered.row_data(f);
    for (std::size_t s = 0; s < m; ++s) {
      dst[s] = src[s] - mean_at_sensors_[s];
    }
  }
  // One multi-RHS solve against the cached QR factor, then one blocked
  // GEMM expands all coefficient rows through the subspace at once.
  {
    obs::ScopedStageSpan span(obs::Stage::kSolve);
    factor_.solver.solve_batch_into(centered, alpha, scratch);
  }
  expand_into(alpha, out);
}

numerics::Matrix ReconstructionModel::reconstruct_batch(
    numerics::ConstMatrixView readings) const {
  numerics::Matrix maps(readings.rows(), mean_map_.size());
  reconstruct_batch_into(readings, maps.view(), wrapper_workspace());
  return maps;
}

void ReconstructionModel::expand_into(numerics::ConstMatrixView alpha,
                                      numerics::MatrixView out) const {
  if (alpha.cols() != k_) {
    throw std::invalid_argument(
        "ReconstructionModel::expand: coefficient width mismatch");
  }
  if (out.rows() != alpha.rows() || out.cols() != mean_map_.size()) {
    throw std::invalid_argument(
        "ReconstructionModel::expand: output shape mismatch");
  }
  // The mean map is seeded inside the kernel so the (large) output is
  // streamed exactly once, whichever backend runs the product. The stage
  // timer is free when no engine batch context is set on this thread.
  obs::ScopedStageSpan span(obs::Stage::kExpand);
  switch (expansion_.backend) {
    case ExpansionBackend::kDense64:
      numerics::matmul_bias_into(alpha, subspace_t_, mean_map_, out);
      break;
    case ExpansionBackend::kFp32: {
      const numerics::ConstF32MatrixView op{
          f32_operator_.data(), k_, mean_map_.size(), mean_map_.size()};
      numerics::matmul_bias_f32_into(alpha, op, f32_bias_.data(), out);
      break;
    }
  }
}

std::size_t ReconstructionModel::expansion_bytes() const {
  return expansion_.backend == ExpansionBackend::kFp32
             ? (f32_operator_.size() + f32_bias_.size()) * sizeof(float)
             : dense_expansion_bytes();
}

numerics::Matrix ReconstructionModel::expand(
    numerics::ConstMatrixView alpha) const {
  numerics::Matrix out(alpha.rows(), mean_map_.size());
  expand_into(alpha, out.view());
  return out;
}

}  // namespace eigenmaps::core
