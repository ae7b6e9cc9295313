// Lumped RC thermal model of the die on the extraction grid.
//
// Each grid cell is an RC node: lateral silicon conduction to its four
// neighbours, a vertical path to ambient through the package, and a thermal
// capacitance (scaled by a lumped package factor so the die shows
// millisecond-scale transients). Block power is spread uniformly over the
// block's cells. Steady state solves G u = p; the transient step is one
// backward-Euler solve of (C/dt + G) u' = C/dt u + p. Both use the
// Jacobi-preconditioned CG in sparse/.
#ifndef EIGENMAPS_THERMAL_RC_MODEL_H
#define EIGENMAPS_THERMAL_RC_MODEL_H

#include <utility>

#include "floorplan/grid.h"
#include "numerics/matrix.h"
#include "sparse/csr.h"

namespace eigenmaps::thermal {

struct RcModelOptions {
  double chip_width_m = 0.010;           // die edge, metres
  double chip_height_m = 0.010;
  double die_thickness_m = 5e-4;
  double silicon_conductivity = 148.0;   // W / (m K)
  double package_conductance = 2e4;      // vertical, W / (m^2 K)
  double volumetric_capacitance = 1.75e6;  // J / (m^3 K)
  double package_mass_factor = 4.0;      // lumped spreader + package mass
  double ambient = 45.0;                 // deg C
};

class RcModel {
 public:
  explicit RcModel(const floorplan::ThermalGrid& grid,
                   const RcModelOptions& options = {});

  std::size_t cell_count() const { return grid_.cell_count(); }
  double ambient() const { return options_.ambient; }
  const sparse::CsrMatrix& conductance() const { return conductance_; }
  const numerics::Vector& capacitance() const { return capacitance_; }

  /// Spreads per-block power (W) uniformly over each block's cells.
  numerics::Vector cell_power(const numerics::Vector& block_power) const;

  /// Equilibrium temperature map (deg C) for constant block power.
  numerics::Vector steady_state(const numerics::Vector& block_power) const;

  /// The backward-Euler system (C/dt + G) for one step length dt. Building
  /// it copies the conductance matrix, so a trace builds it once and passes
  /// it to every step. The model keeps no per-dt state of its own: a
  /// `const RcModel&` is read-only and safe to share across threads.
  class StepSystem {
    friend class RcModel;
    StepSystem(double dt, sparse::CsrMatrix matrix)
        : dt_(dt), matrix_(std::move(matrix)) {}
    double dt_;
    sparse::CsrMatrix matrix_;
  };

  /// Throws std::invalid_argument unless dt (s) is finite and > 0.
  StepSystem step_system(double dt) const;

  /// One backward-Euler step, of the length `system` was built for, from
  /// `state` (deg C); `system` must come from this model's step_system().
  numerics::Vector step(const numerics::Vector& state,
                        const numerics::Vector& block_power,
                        const StepSystem& system) const;

  /// Single-step form: builds the system for `dt`, then steps.
  numerics::Vector step(const numerics::Vector& state,
                        const numerics::Vector& block_power, double dt) const {
    return step(state, block_power, step_system(dt));
  }

 private:
  floorplan::ThermalGrid grid_;
  RcModelOptions options_;
  sparse::CsrMatrix conductance_;   // W / K, SPD
  numerics::Vector capacitance_;    // J / K per cell
};

}  // namespace eigenmaps::thermal

#endif  // EIGENMAPS_THERMAL_RC_MODEL_H
