#include "core/order_selection.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/reconstructor.h"

namespace eigenmaps::core {

OrderSelection select_order(const Basis& basis, const SensorLocations& sensors,
                            const numerics::Vector& mean_map,
                            const numerics::Matrix& maps, std::size_t k_max,
                            const OrderSelectionOptions& options) {
  if (maps.rows() == 0) {
    throw std::invalid_argument("select_order: no validation maps");
  }
  // Shape errors fail here: inside the loop every std::invalid_argument
  // reads as "rank deficient at this order".
  const std::size_t cells = basis.cell_count();
  const auto check = [cells](bool ok, const char* what) {
    if (!ok) {
      throw std::invalid_argument("select_order: " + std::string(what) +
                                  " (the basis has " + std::to_string(cells) +
                                  " cells)");
    }
  };
  check(mean_map.size() == cells, "mean map size mismatch");
  check(maps.cols() == cells, "validation map width mismatch");
  for (const std::size_t s : sensors) check(s < cells, "sensor out of range");

  std::size_t stride = options.validation_stride;
  if (stride == 0) stride = std::max<std::size_t>(1, maps.rows() / 128);

  numerics::Matrix validation((maps.rows() + stride - 1) / stride,
                              maps.cols());
  for (std::size_t i = 0; i < validation.rows(); ++i) {
    const double* src = maps.row_data(i * stride);
    double* dst = validation.row_data(i);
    for (std::size_t j = 0; j < maps.cols(); ++j) dst[j] = src[j];
  }

  const bool noisy = std::isfinite(options.snr_db);
  const std::size_t top =
      std::min({k_max, sensors.size(), basis.max_order()});

  OrderSelection best;
  bool found = false;
  for (std::size_t k = 1; k <= top; ++k) {
    double mse = 0.0;
    try {
      const Reconstructor rec(basis, k, sensors, mean_map);
      if (noisy) {
        // Same seed for every k: candidates face identical noise draws.
        NoiseModel noise(options.snr_db, options.signal_energy_per_cell,
                         options.noise_seed);
        mse = evaluate_reconstruction(rec, validation, &noise).mse;
      } else {
        mse = evaluate_reconstruction(rec, validation).mse;
      }
    } catch (const std::invalid_argument&) {
      continue;  // rank deficient at this order
    }
    if (!found || mse < best.validation_mse) {
      best.k = k;
      best.validation_mse = mse;
      found = true;
    }
  }
  if (!found) {
    throw std::runtime_error(
        "select_order: no feasible estimation order for this placement");
  }
  return best;
}

}  // namespace eigenmaps::core
