// Least-squares thermal-map reconstruction from sparse sensor readings.
#ifndef EIGENMAPS_CORE_RECONSTRUCTOR_H
#define EIGENMAPS_CORE_RECONSTRUCTOR_H

#include <memory>

#include "core/model.h"

namespace eigenmaps::core {

/// The single-model convenience front end: owns an immutable
/// ReconstructionModel and forwards to it. The figure harnesses and the
/// design-time pipeline work at this level; the serving stack
/// (runtime::ModelRegistry, core::FactorCache) shares the underlying
/// model() directly so many engines, caches, and threads can reference
/// one trained model without copying its subspace.
class Reconstructor {
 public:
  /// Expansion backend chosen per model (DESIGN.md §14); the default,
  /// dense fp64, is the golden path.
  Reconstructor(const Basis& basis, std::size_t k, SensorLocations sensors,
                numerics::Vector mean_map,
                const ExpansionOptions& expansion = {})
      : model_(std::make_shared<const ReconstructionModel>(
            basis, k, std::move(sensors), std::move(mean_map), expansion)) {}

  /// The shared immutable model; register this with a ModelRegistry or
  /// build a FactorCache on it for dropout-tolerant serving.
  const std::shared_ptr<const ReconstructionModel>& model() const {
    return model_;
  }

  std::size_t order() const { return model_->order(); }
  const SensorLocations& sensors() const { return model_->sensors(); }

  /// sigma_max / sigma_min of the sampled basis Psi~ — the conditioning of
  /// the inverse problem (drives noise amplification, Fig. 5).
  double condition_number() const { return model_->condition_number(); }

  /// Sensor readings for a full map (just the sampled entries).
  numerics::Vector sample(numerics::ConstVectorView map) const {
    return model_->sample(map);
  }

  /// Full-map estimate from readings: mean + V_k * lstsq(Psi~, y - mean~).
  numerics::Vector reconstruct(numerics::ConstVectorView readings) const {
    return model_->reconstruct(readings);
  }

  /// Allocation-free forms: caller-provided output and Workspace (see
  /// ReconstructionModel; bit-identical to the value-returning forms).
  void reconstruct_into(numerics::ConstVectorView readings,
                        numerics::VectorView out, Workspace& workspace) const {
    model_->reconstruct_into(readings, out, workspace);
  }
  void reconstruct_batch_into(numerics::ConstMatrixView readings,
                              numerics::MatrixView out,
                              Workspace& workspace) const {
    model_->reconstruct_batch_into(readings, out, workspace);
  }

  /// Batched reconstruction: row f of `readings` (frames x sensors) is one
  /// sensor frame, row f of the result (frames x N) its full-map estimate.
  /// Agrees with per-frame reconstruct() to ~1e-12 (the mean map seeds the
  /// GEMM accumulator, so rounding differs in the last bits); see
  /// ReconstructionModel::reconstruct_batch.
  numerics::Matrix reconstruct_batch(
      numerics::ConstMatrixView readings) const {
    return model_->reconstruct_batch(readings);
  }

 private:
  std::shared_ptr<const ReconstructionModel> model_;
};

}  // namespace eigenmaps::core

#endif  // EIGENMAPS_CORE_RECONSTRUCTOR_H
