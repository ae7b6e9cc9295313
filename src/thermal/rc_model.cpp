#include "thermal/rc_model.h"

#include <cmath>
#include <stdexcept>

#include "sparse/conjugate_gradient.h"

namespace eigenmaps::thermal {

RcModel::RcModel(const floorplan::ThermalGrid& grid,
                 const RcModelOptions& options)
    : grid_(grid), options_(options) {
  const std::size_t w = grid_.width();
  const std::size_t h = grid_.height();
  const double dx = options_.chip_width_m / static_cast<double>(w);
  const double dy = options_.chip_height_m / static_cast<double>(h);
  const double t = options_.die_thickness_m;
  const double k = options_.silicon_conductivity;

  const double g_x = k * (dy * t) / dx;  // between horizontal neighbours
  const double g_y = k * (dx * t) / dy;  // between vertical neighbours
  const double g_v = options_.package_conductance * dx * dy;  // to ambient

  std::vector<sparse::Triplet> triplets;
  triplets.reserve(grid_.cell_count() * 5);
  for (std::size_t r = 0; r < h; ++r) {
    for (std::size_t c = 0; c < w; ++c) {
      const std::size_t i = grid_.index(r, c);
      double diag = g_v;
      if (c + 1 < w) {
        const std::size_t j = grid_.index(r, c + 1);
        triplets.push_back({i, j, -g_x});
        triplets.push_back({j, i, -g_x});
        diag += g_x;
        // The neighbour's diagonal picks up its share when it is visited,
        // except for the edge coming back to us — add it here.
        triplets.push_back({j, j, g_x});
      }
      if (r + 1 < h) {
        const std::size_t j = grid_.index(r + 1, c);
        triplets.push_back({i, j, -g_y});
        triplets.push_back({j, i, -g_y});
        diag += g_y;
        triplets.push_back({j, j, g_y});
      }
      triplets.push_back({i, i, diag});
    }
  }
  conductance_ =
      sparse::CsrMatrix::from_triplets(grid_.cell_count(), grid_.cell_count(),
                                       std::move(triplets));

  const double c_cell = options_.volumetric_capacitance * dx * dy * t *
                        options_.package_mass_factor;
  capacitance_.assign(grid_.cell_count(), c_cell);
}

numerics::Vector RcModel::cell_power(
    const numerics::Vector& block_power) const {
  if (block_power.size() != grid_.block_count()) {
    throw std::invalid_argument("RcModel::cell_power: block count mismatch");
  }
  numerics::Vector p(grid_.cell_count(), 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const std::size_t b = grid_.block_of_index(i);
    const std::size_t cells = grid_.block_cell_count(b);
    if (cells > 0) p[i] = block_power[b] / static_cast<double>(cells);
  }
  return p;
}

numerics::Vector RcModel::steady_state(
    const numerics::Vector& block_power) const {
  const numerics::Vector p = cell_power(block_power);
  sparse::CgOptions cg;
  cg.tolerance = 1e-9;
  cg.max_iterations = 5000;
  const sparse::CgResult result = conjugate_gradient(conductance_, p, nullptr,
                                                     cg);
  numerics::Vector temps(result.x.size());
  for (std::size_t i = 0; i < temps.size(); ++i) {
    temps[i] = options_.ambient + result.x[i];
  }
  return temps;
}

RcModel::StepSystem RcModel::step_system(double dt) const {
  // Written so NaN fails too: every comparison with NaN is false.
  if (!(dt > 0.0 && std::isfinite(dt))) {
    throw std::invalid_argument("RcModel: dt must be finite and > 0");
  }
  numerics::Vector c_over_dt(capacitance_.size());
  for (std::size_t i = 0; i < c_over_dt.size(); ++i) {
    c_over_dt[i] = capacitance_[i] / dt;
  }
  return StepSystem(dt, conductance_.with_diagonal_added(c_over_dt));
}

numerics::Vector RcModel::step(const numerics::Vector& state,
                               const numerics::Vector& block_power,
                               const StepSystem& system) const {
  if (state.size() != grid_.cell_count()) {
    throw std::invalid_argument("RcModel::step: state size mismatch");
  }
  const double dt = system.dt_;
  const numerics::Vector p = cell_power(block_power);
  numerics::Vector rhs(state.size());
  numerics::Vector warm(state.size());
  for (std::size_t i = 0; i < state.size(); ++i) {
    const double u = state[i] - options_.ambient;
    rhs[i] = (capacitance_[i] / dt) * u + p[i];
    warm[i] = u;
  }
  sparse::CgOptions cg;
  cg.tolerance = 1e-9;
  cg.max_iterations = 5000;
  const sparse::CgResult result =
      conjugate_gradient(system.matrix_, rhs, &warm, cg);
  numerics::Vector temps(result.x.size());
  for (std::size_t i = 0; i < temps.size(); ++i) {
    temps[i] = options_.ambient + result.x[i];
  }
  return temps;
}

}  // namespace eigenmaps::thermal
