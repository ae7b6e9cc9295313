// The immutable half of the reconstruction stack: basis slice, mean map,
// sensor set, and the full-sensor QR factor, shared read-only between the
// serving engine, the per-mask factor cache, and any number of threads.
#ifndef EIGENMAPS_CORE_MODEL_H
#define EIGENMAPS_CORE_MODEL_H

#include <cstddef>
#include <vector>

#include "core/allocation.h"
#include "core/basis.h"
#include "core/workspace.h"
#include "numerics/qr.h"

namespace eigenmaps::core {

/// Which operator the expansion tail (out = mean + alpha V_k^T) runs
/// through. Masked solves always stay fp64 — only the expansion operator
/// changes representation (DESIGN.md §14).
enum class ExpansionBackend {
  /// Dense fp64 GEMM: the default and the golden path. Byte-identical to
  /// every result this library ever produced.
  kDense64 = 0,
  // Values are fixed: the exported eigenmaps_model_expansion_backend gauge
  // reports them, so 1 (a removed backend) stays unused.
  /// Converted-once fp32 operator + fp32 SIMD GEMM: the kernel streams half
  /// the operator bytes with twice the lanes; expansion error is measured
  /// against the fp64 operator at construction and enforced against the
  /// budget when the model is published to a registry.
  kFp32 = 2,
};

/// Stable lowercase name ("dense64" / "fp32").
const char* expansion_backend_name(ExpansionBackend backend);

/// Per-model expansion-tail configuration, frozen at construction.
struct ExpansionOptions {
  ExpansionBackend backend = ExpansionBackend::kDense64;
  /// kFp32: the largest acceptable measured expansion error
  /// (max |fp32 - fp64| / max |fp64| over a deterministic probe batch).
  /// ModelRegistry::register_model throws when the measured error
  /// exceeds it. Must lie in [0, 1] whatever the backend.
  double fp32_error_budget = 1e-4;
};

/// Everything a trained reconstruction needs, frozen at construction: the
/// order-k basis slice V_k (held once, as the transpose V_k^T), the
/// mean map, the sensor locations, the sampled basis Psi~ (sensors x k)
/// and its QR factor. Construction throws std::invalid_argument when Psi~
/// is rank deficient (Theorem 1's feasibility condition), k exceeds the
/// sensor count, or fp32_error_budget lies outside [0, 1]. Immutable after
/// construction, so it is safe to share across threads and to hot-swap
/// behind a registry without draining in-flight work — old jobs keep
/// their shared_ptr, new jobs resolve the replacement.
///
/// The `_into` methods are the steady-state serving path: caller-provided
/// outputs plus a reusable Workspace mean zero heap allocations per frame
/// once the workspace is warm (DESIGN.md §10). The value-returning forms
/// delegate to them through a thread-local workspace.
class ReconstructionModel {
 public:
  /// Expansion backend chosen per model; the default, dense fp64, is the
  /// golden path and stays byte-identical.
  ReconstructionModel(const Basis& basis, std::size_t k,
                      SensorLocations sensors, numerics::Vector mean_map,
                      const ExpansionOptions& expansion = {});

  std::size_t order() const { return k_; }
  std::size_t sensor_count() const { return sensors_.size(); }
  std::size_t cell_count() const { return mean_map_.size(); }
  const SensorLocations& sensors() const { return sensors_; }
  const numerics::Vector& mean_map() const { return mean_map_; }
  const numerics::Vector& mean_at_sensors() const { return mean_at_sensors_; }

  /// The sampled basis Psi~ (sensors x k); the factor cache factors row
  /// subsets of it, one per dead-sensor mask.
  const numerics::Matrix& sampled_basis() const { return factor_.sampled; }

  /// The full basis slice V_k (N x k, orthonormal columns), transposed out
  /// of the resident V_k^T into a fresh matrix — for the off-hot-path
  /// readers: the online retrainer's warm start (PcaOptions::warm_start)
  /// and the shard protocol's model encoding.
  numerics::Matrix subspace() const;

  /// sigma_max / sigma_min of Psi~ with every sensor alive — the
  /// conditioning of the undegraded inverse problem (Fig. 5).
  double condition_number() const { return factor_.condition; }

  /// QR of the full-sensor Psi~, shared by the no-dropout hot path.
  const numerics::HouseholderQr& full_factor() const { return factor_.solver; }

  /// The expansion-tail configuration this model was built with; the
  /// online retrainer copies it into replacement models.
  const ExpansionOptions& expansion_options() const { return expansion_; }
  ExpansionBackend expansion_backend() const { return expansion_.backend; }

  /// Resident bytes of the operator the expansion kernel reads: the fp64
  /// V_k^T for kDense64, the fp32 operator + bias copy for kFp32.
  std::size_t expansion_bytes() const;
  /// Resident bytes of the fp64 V_k^T (k x N doubles). Every model holds
  /// it whatever its backend: an fp32 model keeps it as subspace()'s
  /// source and holds its fp32 operator on top.
  std::size_t dense_expansion_bytes() const {
    return subspace_t_.storage().size() * sizeof(double);
  }
  /// kFp32: expansion error measured against the fp64 operator over a
  /// deterministic probe batch at construction (0.0 otherwise). The
  /// registry enforces expansion_options().fp32_error_budget against this
  /// at publish time.
  double fp32_measured_error() const { return fp32_measured_error_; }

  /// Workspace doubles reconstruct_into / reconstruct_batch_into need for
  /// up to `frames` frames. Also covers the masked paths a FactorCache
  /// built on this model drives through the same workspace, so one
  /// reservation serves a worker whatever masks arrive.
  std::size_t workspace_doubles(std::size_t frames) const;

  /// Sensor readings for a full map (just the sampled entries).
  void sample_into(numerics::ConstVectorView map,
                   numerics::VectorView readings) const;
  numerics::Vector sample(numerics::ConstVectorView map) const;

  /// Full-map estimate from readings: mean + V_k * lstsq(Psi~, y - mean~),
  /// written into `out` (cell_count() entries). Bit-identical to
  /// reconstruct().
  void reconstruct_into(numerics::ConstVectorView readings,
                        numerics::VectorView out, Workspace& workspace) const;
  numerics::Vector reconstruct(numerics::ConstVectorView readings) const;

  /// Batched reconstruction: row f of `readings` (frames x sensors) is one
  /// sensor frame, row f of `out` (frames x N) its full-map estimate.
  /// One multi-RHS solve against the cached QR plus one blocked GEMM
  /// (DESIGN.md §8). Bit-identical to reconstruct_batch().
  void reconstruct_batch_into(numerics::ConstMatrixView readings,
                              numerics::MatrixView out,
                              Workspace& workspace) const;
  numerics::Matrix reconstruct_batch(numerics::ConstMatrixView readings) const;

  /// Expands coefficient rows (batch x k) through the subspace on top of
  /// the mean map: mean + alpha V_k^T, one blocked GEMM. The tail of every
  /// reconstruction, shared by the full and degraded (masked) paths.
  void expand_into(numerics::ConstMatrixView alpha,
                   numerics::MatrixView out) const;
  numerics::Matrix expand(numerics::ConstMatrixView alpha) const;

 private:
  // Sampled basis, its QR, and its conditioning, built together so the
  // sensor rows are extracted and rank-checked exactly once.
  struct SampledFactor {
    numerics::Matrix sampled;  // sensors x k sampled basis Psi~
    numerics::HouseholderQr solver;
    double condition;
  };
  static SampledFactor factor_sampled(const Basis& basis, std::size_t k,
                                      const SensorLocations& sensors);

  std::size_t k_;
  SensorLocations sensors_;
  numerics::Vector mean_map_;
  numerics::Vector mean_at_sensors_;
  ExpansionOptions expansion_;
  // The one fp64 copy of the leading basis columns, k x N: the dense GEMM's
  // operand, the single-map golden loop's, and subspace()'s source.
  numerics::Matrix subspace_t_;
  std::vector<float> f32_operator_;  // kFp32: k x N row-major
  std::vector<float> f32_bias_;      // kFp32: mean map, N floats
  double fp32_measured_error_ = 0.0;
  SampledFactor factor_;
};

}  // namespace eigenmaps::core

#endif  // EIGENMAPS_CORE_MODEL_H
