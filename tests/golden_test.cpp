// Golden regression tests: small reference outputs serialized under
// tests/golden/ and compared bit for bit. Numerics refactors (kernel
// blocking, threading, reordering) must not shift the figure pipeline's
// numbers; anything that legitimately changes them regenerates the files
// with EIGENMAPS_REGOLD=1 and the diff shows up in review.
//
// All kernels accumulate in a thread-count-independent order (see
// numerics/blas.h), so these comparisons are exact, not toleranced.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/allocation.h"
#include "core/dct_basis.h"
#include "core/metrics.h"
#include "core/order_selection.h"
#include "core/pca_basis.h"
#include "core/pipeline.h"
#include "core/reconstructor.h"
#include "core/snapshot_set.h"
#include "numerics/blas.h"
#include "numerics/rng.h"

namespace {

using namespace eigenmaps;

#ifndef EIGENMAPS_GOLDEN_DIR
#error "EIGENMAPS_GOLDEN_DIR must point at tests/golden"
#endif

std::string golden_path(const std::string& name) {
  return std::string(EIGENMAPS_GOLDEN_DIR) + "/" + name;
}

bool regold() { return std::getenv("EIGENMAPS_REGOLD") != nullptr; }

std::string format_value(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

void write_golden(const std::string& name,
                  const std::vector<std::string>& lines) {
  std::ofstream out(golden_path(name));
  ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
  for (const std::string& line : lines) out << line << "\n";
}

std::vector<std::string> read_golden(const std::string& name) {
  std::ifstream in(golden_path(name));
  EXPECT_TRUE(in.good()) << "missing golden file " << golden_path(name)
                         << " — regenerate with EIGENMAPS_REGOLD=1";
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

/// Writes on EIGENMAPS_REGOLD=1, otherwise compares the serialized lines
/// exactly: a one-ulp shift in any value is a test failure by design.
void check_golden(const std::string& name,
                  const std::vector<std::string>& actual) {
  if (regold()) {
    write_golden(name, actual);
    return;
  }
  const std::vector<std::string> expected = read_golden(name);
  ASSERT_EQ(expected.size(), actual.size()) << "line count drifted: " << name;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << name << " line " << i + 1;
  }
}

/// FNV-1a over the %.17g rendering of every value, one per line: a digest
/// of a large array that reads the same on any byte order.
std::string fnv1a_hex(const std::vector<double>& values) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const double v : values) {
    for (const char ch : format_value(v) + "\n") {
      hash ^= static_cast<unsigned char>(ch);
      hash *= 1099511628211ull;
    }
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// Low-rank synthetic snapshot ensemble, fully determined by the seeds.
core::SnapshotSet synthetic_snapshots(std::size_t t, std::size_t n) {
  numerics::Rng coeff_rng(7);
  numerics::Rng mode_rng(11);
  const std::size_t rank = 8;
  numerics::Matrix modes(rank, n);
  for (std::size_t r = 0; r < rank; ++r) {
    for (std::size_t i = 0; i < n; ++i) modes(r, i) = mode_rng.normal();
  }
  numerics::Matrix maps(t, n);
  for (std::size_t j = 0; j < t; ++j) {
    for (std::size_t r = 0; r < rank; ++r) {
      const double c = coeff_rng.normal() * static_cast<double>(rank - r);
      for (std::size_t i = 0; i < n; ++i) maps(j, i) += c * modes(r, i);
    }
  }
  return core::SnapshotSet(std::move(maps));
}

TEST(Golden, PcaLeadingEigenvalues) {
  const core::SnapshotSet set = synthetic_snapshots(48, 240);
  core::PcaOptions options;
  options.max_order = 12;
  const core::PcaBasis basis(set, options);
  ASSERT_GE(basis.eigenvalues().size(), 8u);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 8; ++i) {
    lines.push_back(format_value(basis.eigenvalues()[i]));
  }
  check_golden("pca_eigenvalues.txt", lines);
}

TEST(Golden, GreedySensorPicks) {
  const core::DctBasis basis(12, 10, 8);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 8, 14);
  std::vector<std::string> lines;
  for (const std::size_t s : sensors) lines.push_back(std::to_string(s));
  check_golden("greedy_sensors.txt", lines);
}

TEST(Golden, ReconstructionErrorFixedSeed) {
  const core::DctBasis basis(12, 10, 8);
  const numerics::Vector mean(basis.cell_count(), 45.0);
  const core::SensorLocations sensors = core::allocate_greedy(basis, 8, 14);
  const core::Reconstructor rec(basis, 8, sensors, mean);

  numerics::Rng rng(5);
  numerics::Matrix maps(10, basis.cell_count());
  for (std::size_t f = 0; f < maps.rows(); ++f) {
    for (std::size_t i = 0; i < maps.cols(); ++i) {
      maps(f, i) = 45.0 + 3.0 * rng.normal();
    }
  }
  const core::ReconstructionErrors errors =
      core::evaluate_reconstruction(rec, maps);
  check_golden("reconstruction_error.txt",
               {format_value(errors.mse), format_value(errors.max_sq)});
}

/// The design-time pipeline at the fig2_smoke size, bit for bit: the
/// simulated maps, the per-cell energy and the snapshot-Gram basis as
/// digests, the leading spectrum, and Algorithm-1 sensors at K = 8,
/// M = 12. Five scenarios split unevenly over 2, 3 and 4 threads; every
/// thread count must reproduce the one file.
TEST(Golden, DesignPipelineBits) {
  core::ExperimentConfig config;
  config.grid_width = 20;
  config.grid_height = 18;
  config.scenario_count = 5;
  config.steps_per_scenario = 40;
  config.training_stride = 2;
  config.pca_max_order = 24;
  config.dct_max_order = 24;
  config.seed = 42;
  for (const std::size_t threads : {1, 2, 3, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    numerics::set_blas_threads(threads);
    const core::Experiment e = core::simulate_experiment(config);
    const core::PcaBasis& basis = e.eigenmaps_basis();
    ASSERT_GE(basis.eigenvalues().size(), 8u);
    std::vector<std::string> lines = {
        "maps " + fnv1a_hex(e.snapshots().data().storage()),
        "energy " + fnv1a_hex(e.energy()),
        "basis " + fnv1a_hex(basis.vectors().storage()),
    };
    for (std::size_t i = 0; i < 8; ++i) {
      lines.push_back("eigenvalue " + format_value(basis.eigenvalues()[i]));
    }
    std::string sensors = "sensors";
    for (const std::size_t s : core::allocate_greedy(basis, 8, 12)) {
      sensors += " " + std::to_string(s);
    }
    lines.push_back(sensors);
    check_golden("design_pipeline.txt", lines);
  }
  numerics::set_blas_threads(0);
}

/// Fig. 3(b) at reduced size, the paper's accuracy claim as a regression
/// gate: on the Pipeline tests' 14 x 12 experiment, for M = 4, 6, ..., 16,
/// each basis gets greedy Algorithm-1 placement and a validated order K.
/// The EigenMaps rows (M, K, MSE, MAX, cond) are pinned byte for byte; the
/// science is asserted too, so regenerating the file cannot accept a worse
/// curve.
TEST(Golden, PaperAccuracyCurve) {
  core::ExperimentConfig config;
  config.grid_width = 14;
  config.grid_height = 12;
  config.scenario_count = 3;
  config.steps_per_scenario = 30;
  config.training_stride = 2;
  config.pca_max_order = 16;
  config.dct_max_order = 16;
  const core::Experiment e = core::simulate_experiment(config);
  const numerics::Matrix& maps = e.snapshots().data();

  struct Point {
    std::size_t k;
    core::ReconstructionErrors errors;
    double cond;
  };
  const auto evaluate = [&](const core::Basis& basis, std::size_t m) {
    const std::size_t k_max = std::min(m, basis.max_order());
    const core::SensorLocations sensors =
        core::allocate_greedy(basis, k_max, m);
    const core::OrderSelection selection =
        core::select_order(basis, sensors, e.mean_map(), maps, k_max);
    const core::Reconstructor rec(basis, selection.k, sensors, e.mean_map());
    return Point{selection.k, core::evaluate_reconstruction(rec, maps),
                 rec.condition_number()};
  };

  std::vector<std::string> lines;
  double previous_mse = std::numeric_limits<double>::infinity();
  for (std::size_t m = 4; m <= 16; m += 2) {
    SCOPED_TRACE("M = " + std::to_string(m));
    const Point eig = evaluate(e.eigenmaps_basis(), m);
    const Point dct = evaluate(e.dct_basis(), m);
    lines.push_back(std::to_string(m) + " " + std::to_string(eig.k) + " " +
                    format_value(eig.errors.mse) + " " +
                    format_value(eig.errors.max_sq) + " " +
                    format_value(eig.cond));
    EXPECT_LT(eig.errors.mse, dct.errors.mse);
    EXPECT_LE(eig.errors.mse, previous_mse);
    previous_mse = eig.errors.mse;
    EXPECT_LT(eig.cond, 10.0);
    EXPECT_LT(dct.cond, 10.0);
    if (m == 4) {
      // The paper's headline: below 1 (deg C)^2 with four sensors.
      EXPECT_LT(eig.errors.mse, 1.0);
      EXPECT_LT(eig.errors.max_sq, 1.0);
    }
  }
  check_golden("paper_accuracy.txt", lines);
}

}  // namespace
