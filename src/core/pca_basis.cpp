#include "core/pca_basis.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/blas.h"
#include "numerics/rng.h"
#include "numerics/symmetric_eigen.h"

namespace eigenmaps::core {

namespace {

// Centered training matrix X (T x N).
numerics::Matrix centered_maps(const SnapshotSet& training) {
  numerics::Matrix x = training.data();
  numerics::subtract_row_mean(x, training.mean());
  return x;
}

// Its transpose X^T (N x T), built straight from the maps: the same
// x - mean per element, and the only copy of the ensemble the snapshot-Gram
// path holds. Square tiles keep both the reads and the writes in cache.
numerics::Matrix centered_maps_transposed(const SnapshotSet& training) {
  const numerics::Matrix& maps = training.data();
  const numerics::Vector& mean = training.mean();
  const std::size_t t = maps.rows();
  const std::size_t n = maps.cols();
  numerics::Matrix xt(n, t);
  constexpr std::size_t kTile = 32;
  for (std::size_t i0 = 0; i0 < t; i0 += kTile) {
    const std::size_t i1 = std::min(i0 + kTile, t);
    for (std::size_t c0 = 0; c0 < n; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, n);
      for (std::size_t c = c0; c < c1; ++c) {
        double* dst = xt.row_data(c);
        for (std::size_t i = i0; i < i1; ++i) dst[i] = maps(i, c) - mean[c];
      }
    }
  }
  return xt;
}

struct Spectrum {
  numerics::Matrix vectors;     // N x retained
  numerics::Vector eigenvalues; // full known spectrum, descending
  std::size_t iterations = 0;   // orthogonal-iteration sweeps (0 if exact)
};

// Exact PCA from the T x T Gram matrix G = X X^T: covariance eigenvalues are
// mu / T and basis vectors are X^T u / sqrt(mu). Takes xt = X^T (N x T), so
// G is gram_into(X^T): each g(i, j) sums x(i, c) x(j, c) from 0.0 with c
// ascending, the plain row-dot order, on contiguous rows and threaded.
Spectrum train_snapshot_gram(const numerics::Matrix& xt,
                             const PcaOptions& options) {
  const std::size_t n = xt.rows();
  const std::size_t t = xt.cols();
  numerics::Matrix g(t, t);
  numerics::gram_into(xt.view(), g.view());
  const numerics::SymmetricEigen eig = numerics::symmetric_eigen(g);

  const double inv_t = 1.0 / static_cast<double>(t);
  const double top = std::max(eig.eigenvalues[0], 0.0);
  Spectrum out;
  out.eigenvalues.reserve(t);
  std::size_t usable = 0;
  for (std::size_t j = 0; j < t; ++j) {
    const double mu = eig.eigenvalues[j];
    if (mu <= 0.0 || mu < options.rank_tolerance * top) break;
    out.eigenvalues.push_back(mu * inv_t);
    ++usable;
  }
  const std::size_t order = std::min(options.max_order, usable);
  // w(i, j) = u_j(i) / sqrt(mu_j), so v_j = X^T w_j.
  numerics::Matrix w(t, order);
  for (std::size_t j = 0; j < order; ++j) {
    const double inv_sqrt_mu = 1.0 / std::sqrt(eig.eigenvalues[j]);
    for (std::size_t i = 0; i < t; ++i) {
      w(i, j) = eig.eigenvectors(i, j) * inv_sqrt_mu;
    }
  }
  // v(c, j) accumulates w(i, j) x(i, c) with i ascending, skipping zero
  // weights; the inner loop runs along the contiguous rows of V and W.
  out.vectors = numerics::Matrix(n, order);
  for (std::size_t c = 0; c < n; ++c) {
    const double* xrow = xt.row_data(c);
    double* vrow = out.vectors.row_data(c);
    for (std::size_t i = 0; i < t; ++i) {
      const double x = xrow[i];
      const double* wrow = w.row_data(i);
      for (std::size_t j = 0; j < order; ++j) {
        if (wrow[j] != 0.0) vrow[j] += wrow[j] * x;
      }
    }
  }
  return out;
}

// Exact PCA from the N x N covariance C = X^T X / T.
Spectrum train_dense_covariance(const numerics::Matrix& x,
                                const PcaOptions& options) {
  const std::size_t t = x.rows();
  const std::size_t n = x.cols();
  numerics::Matrix c = numerics::gram(x);
  const double inv_t = 1.0 / static_cast<double>(t);
  for (double& v : c.storage()) v *= inv_t;
  const numerics::SymmetricEigen eig = numerics::symmetric_eigen(c);

  const double top = std::max(eig.eigenvalues[0], 0.0);
  Spectrum out;
  std::size_t usable = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double lambda = eig.eigenvalues[j];
    if (lambda <= 0.0 || lambda < options.rank_tolerance * top) break;
    out.eigenvalues.push_back(lambda);
    ++usable;
  }
  const std::size_t order = std::min(options.max_order, usable);
  out.vectors = numerics::Matrix(n, order);
  for (std::size_t j = 0; j < order; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      out.vectors(i, j) = eig.eigenvectors(i, j);
    }
  }
  return out;
}

// Matrix-free block orthogonal iteration: Q <- orth(X^T (X Q) / T).
Spectrum train_orthogonal_iteration(const numerics::Matrix& x,
                                    const PcaOptions& options) {
  const std::size_t t = x.rows();
  const std::size_t n = x.cols();
  const std::size_t block =
      std::min(options.max_order + 4, std::min(t, n));
  numerics::Rng rng(options.seed);
  numerics::Matrix q(n, block);
  for (double& v : q.storage()) v = rng.normal();
  if (options.warm_start != nullptr && options.warm_start->rows() == n) {
    // Seed the leading columns from the previous basis; the trailing
    // (random) columns keep the block exploring directions the old basis
    // missed. Orthonormalisation below blends both.
    const numerics::Matrix& warm = *options.warm_start;
    const std::size_t seeded = std::min(block, warm.cols());
    for (std::size_t c = 0; c < n; ++c) {
      const double* src = warm.row_data(c);
      double* dst = q.row_data(c);
      for (std::size_t j = 0; j < seeded; ++j) dst[j] = src[j];
    }
  }
  numerics::orthonormalize_columns(q);

  const double inv_t = 1.0 / static_cast<double>(t);
  numerics::Vector estimates(block, 0.0);
  std::size_t iterations = 0;
  for (std::size_t iter = 0; iter < options.iteration_limit; ++iter) {
    // Z = X^T (X Q) / T without forming the covariance.
    numerics::Matrix xq = numerics::matmul(x, q);        // T x block
    numerics::Matrix z(n, block);
    for (std::size_t i = 0; i < t; ++i) {
      const double* xrow = x.row_data(i);
      const double* brow = xq.row_data(i);
      for (std::size_t c = 0; c < n; ++c) {
        const double xv = xrow[c];
        if (xv == 0.0) continue;
        double* zrow = z.row_data(c);
        for (std::size_t j = 0; j < block; ++j) zrow[j] += xv * brow[j];
      }
    }
    for (double& v : z.storage()) v *= inv_t;

    // Rayleigh estimates before orthonormalisation: lambda_j ~ ||z_j||.
    numerics::Vector next(block, 0.0);
    for (std::size_t j = 0; j < block; ++j) {
      double s = 0.0;
      for (std::size_t c = 0; c < n; ++c) s += z(c, j) * z(c, j);
      next[j] = std::sqrt(s);
    }
    q = std::move(z);
    numerics::orthonormalize_columns(q);

    // Convergence is judged on the estimates that will be retained; the
    // extra exploratory columns chase near-degenerate tail eigenvalues
    // and would otherwise keep a converged block iterating forever.
    const std::size_t tracked = std::min(options.max_order, block);
    double drift = 0.0;
    for (std::size_t j = 0; j < tracked; ++j) {
      const double denom = std::max(next[j], 1e-300);
      drift = std::max(drift, std::fabs(next[j] - estimates[j]) / denom);
    }
    estimates = std::move(next);
    iterations = iter + 1;
    if (drift < options.iteration_tolerance) break;
  }

  // Final eigenvalues via the Rayleigh quotient lambda_j = ||X q_j||^2 / T,
  // then sort the block (orthogonal iteration usually orders it already).
  numerics::Matrix xq = numerics::matmul(x, q);
  std::vector<std::pair<double, std::size_t>> ranked(block);
  for (std::size_t j = 0; j < block; ++j) {
    double s = 0.0;
    for (std::size_t i = 0; i < t; ++i) s += xq(i, j) * xq(i, j);
    ranked[j] = {s * inv_t, j};
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });

  const double top = std::max(ranked[0].first, 0.0);
  std::size_t usable = 0;
  for (std::size_t j = 0; j < block; ++j) {
    if (ranked[j].first <= 0.0 ||
        ranked[j].first < options.rank_tolerance * top) {
      break;
    }
    ++usable;
  }
  const std::size_t order = std::min(options.max_order, usable);
  Spectrum out;
  out.vectors = numerics::Matrix(n, order);
  out.eigenvalues.resize(order);
  out.iterations = iterations;
  for (std::size_t j = 0; j < order; ++j) {
    out.eigenvalues[j] = ranked[j].first;
    for (std::size_t c = 0; c < n; ++c) {
      out.vectors(c, j) = q(c, ranked[j].second);
    }
  }
  return out;
}

}  // namespace

PcaBasis::PcaBasis(const SnapshotSet& training, const PcaOptions& options) {
  if (training.count() == 0 || training.cell_count() == 0) {
    throw std::invalid_argument("PcaBasis: empty training set");
  }
  Spectrum s;
  switch (options.method) {
    case PcaMethod::kSnapshotGram:
      s = train_snapshot_gram(centered_maps_transposed(training), options);
      break;
    case PcaMethod::kDenseCovariance:
      s = train_dense_covariance(centered_maps(training), options);
      break;
    case PcaMethod::kOrthogonalIteration:
      s = train_orthogonal_iteration(centered_maps(training), options);
      break;
  }
  vectors_ = std::move(s.vectors);
  eigenvalues_ = std::move(s.eigenvalues);
  iterations_used_ = s.iterations;
  if (vectors_.cols() == 0) {
    throw std::invalid_argument("PcaBasis: training set has zero variance");
  }
}

std::size_t PcaBasis::order_for_energy_fraction(double tail_fraction) const {
  const double total = numerics::sum(eigenvalues_);
  if (total <= 0.0) return 0;
  double tail = total;
  for (std::size_t k = 0; k < eigenvalues_.size(); ++k) {
    if (tail / total <= tail_fraction) return k;
    tail -= eigenvalues_[k];
  }
  return eigenvalues_.size();
}

double PcaBasis::theoretical_approximation_mse(std::size_t k) const {
  double tail = 0.0;
  for (std::size_t j = k; j < eigenvalues_.size(); ++j) {
    tail += eigenvalues_[j];
  }
  return tail / static_cast<double>(cell_count());
}

}  // namespace eigenmaps::core
