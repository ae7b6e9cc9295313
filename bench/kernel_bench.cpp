// Accuracy / performance harness for the numerics kernels (DESIGN.md §13),
// styled after SparseLib-type kernel benchmarks:
//
//   kernel_bench acc  [kernel [shape...]]   verify each runnable ISA tier
//   kernel_bench perf [kernel [shape...]]   GFLOP/s per tier; the full
//                                           sweep writes BENCH_kernels.json
//   kernel_bench check [json]               re-run the perf sweep and fail
//                                           on a >10% same-ISA speedup
//                                           regression vs the committed file
//   kernel_bench list-isas                  runnable tiers, one per line
//                                           (CI iterates EIGENMAPS_FORCE_ISA
//                                           over these)
//
// acc compares the library against the contraction-free scalar references
// in reference_kernels.h: ULP-bounded for the -ffp-contract=fast GEMM
// family (matmul, matmul_bias, matmul_acc; float-epsilon-bounded for
// gemm_f32) on every tier, bit-for-bit for the golden-path kernels (gram,
// matvec, matvec_t, qr, eigen), which have no tiers (see dispatched()).
// GEMM, gram and gemm_f32 acc also run on strided views (row stride >
// cols) to exercise the masked edge columns. This translation unit must
// stay -ffp-contract=off so the references define exact bit patterns.
//
// Kernels and shapes:
//   matmul m k n | matmul_bias m k n | matmul_acc m k n | gemm_f32 m k n
//   gram m n | matvec m n | matvec_t m n | qr m n | eigen n
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "numerics/blas.h"
#include "numerics/gemm_f32.h"
#include "numerics/isa.h"
#include "numerics/qr.h"
#include "numerics/rng.h"
#include "numerics/symmetric_eigen.h"
#include "reference_kernels.h"

namespace {

using namespace eigenmaps;
using numerics::ConstMatrixView;
using numerics::Isa;
using numerics::Matrix;
using numerics::MatrixView;
using numerics::Vector;

Matrix random_matrix(std::size_t rows, std::size_t cols,
                     std::uint64_t seed) {
  numerics::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = rng.normal();
  }
  return m;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---- sweep table --------------------------------------------------------

enum class Mode { kBoth, kAccOnly };

struct Case {
  const char* kernel;
  std::vector<std::size_t> dims;
  Mode mode;
};

/// The built-in sweep: the serving shapes (Niagara expansion 16 -> 3360
/// tall-skinny B, batch 1/32/128 multi-RHS, the 24 x 16 QR every model
/// build and FactorCache refactor runs), larger QRs and square GEMMs for
/// context, and acc-only edge shapes that stress the masked tails
/// (cols % 8/16 != 0, rows % tile != 0). matvec and matvec_t are
/// acc-only: nothing in the library calls them, so their speed serves no
/// caller. The design-time setup kernels close the list: the snapshot Gram
/// (3360 x 663 at paper size), its 663 x 663 eigendecomposition and the
/// 16 x 16 one every singular_values call runs (model build, greedy rank
/// guard, refactor).
const std::vector<Case>& sweep() {
  static const std::vector<Case> kSweep = {
      {"matmul_bias", {1, 16, 3360}, Mode::kBoth},
      {"matmul_bias", {32, 16, 3360}, Mode::kBoth},
      {"matmul_bias", {128, 16, 3360}, Mode::kBoth},
      {"matmul_bias", {5, 7, 13}, Mode::kAccOnly},
      {"matmul_bias", {17, 3, 29}, Mode::kAccOnly},
      {"matmul", {64, 64, 64}, Mode::kBoth},
      {"matmul", {128, 128, 128}, Mode::kBoth},
      {"matmul", {32, 48, 3360}, Mode::kBoth},
      {"matmul", {9, 5, 21}, Mode::kAccOnly},
      {"matmul_acc", {32, 16, 3360}, Mode::kBoth},
      {"matmul_acc", {11, 13, 7}, Mode::kAccOnly},
      {"gemm_f32", {1, 16, 3360}, Mode::kBoth},
      {"gemm_f32", {32, 16, 3360}, Mode::kBoth},
      {"gemm_f32", {128, 16, 3360}, Mode::kBoth},
      {"gemm_f32", {64, 64, 64}, Mode::kBoth},
      {"gemm_f32", {5, 7, 13}, Mode::kAccOnly},
      {"gemm_f32", {17, 3, 29}, Mode::kAccOnly},
      {"gram", {3360, 16}, Mode::kBoth},
      {"gram", {3360, 48}, Mode::kBoth},
      {"gram", {256, 64}, Mode::kBoth},
      {"gram", {97, 37}, Mode::kAccOnly},
      {"matvec", {3360, 16}, Mode::kAccOnly},
      {"matvec", {16, 3360}, Mode::kAccOnly},
      {"matvec", {1024, 64}, Mode::kAccOnly},
      {"matvec", {129, 23}, Mode::kAccOnly},
      {"matvec_t", {3360, 16}, Mode::kAccOnly},
      {"matvec_t", {1024, 64}, Mode::kAccOnly},
      {"matvec_t", {129, 23}, Mode::kAccOnly},
      {"qr", {24, 16}, Mode::kBoth},
      {"qr", {3360, 16}, Mode::kBoth},
      {"qr", {256, 48}, Mode::kBoth},
      {"qr", {100, 37}, Mode::kAccOnly},
      {"gram", {3360, 663}, Mode::kBoth},
      {"eigen", {16}, Mode::kBoth},
      {"eigen", {663}, Mode::kBoth},
      {"eigen", {1}, Mode::kAccOnly},
      {"eigen", {2}, Mode::kAccOnly},
      {"eigen", {3}, Mode::kAccOnly},
      {"eigen", {24}, Mode::kAccOnly},
      {"eigen", {97}, Mode::kAccOnly},
  };
  return kSweep;
}

/// Kernels with per-ISA code: the expansion GEMMs, the only callers of
/// active_isa() (DESIGN.md §13). acc and perf sweep every runnable tier
/// for these; every other kernel is one compiled loop, so it gets a scalar
/// row plus one library row. check gates these alone: their speedups
/// dwarf timer noise, while the small O(n^2) kernels swing tens of
/// percent run-to-run on a busy host and would make the gate flaky.
bool dispatched(const std::string& kernel) {
  return kernel == "matmul" || kernel == "matmul_bias" ||
         kernel == "matmul_acc" || kernel == "gemm_f32";
}

/// The tiers acc and perf run `kernel` under: `tiers` for a dispatched
/// kernel, the portable tier alone for the rest.
std::vector<Isa> tiers_for(const std::string& kernel,
                           const std::vector<Isa>& tiers) {
  if (dispatched(kernel)) return tiers;
  return {Isa::kPortable};
}

std::string shape_name(const std::vector<std::size_t>& dims) {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i != 0) out += 'x';
    out += std::to_string(dims[i]);
  }
  return out;
}

double flops_for(const std::string& kernel,
                 const std::vector<std::size_t>& d) {
  if (kernel == "matmul" || kernel == "matmul_bias" ||
      kernel == "matmul_acc" || kernel == "gemm_f32") {
    return 2.0 * static_cast<double>(d[0]) * static_cast<double>(d[1]) *
           static_cast<double>(d[2]);
  }
  if (kernel == "gram") {
    return static_cast<double>(d[0]) * static_cast<double>(d[1]) *
           static_cast<double>(d[1] + 1);
  }
  if (kernel == "matvec" || kernel == "matvec_t") {
    return 2.0 * static_cast<double>(d[0]) * static_cast<double>(d[1]);
  }
  if (kernel == "qr") {
    const double m = static_cast<double>(d[0]);
    const double n = static_cast<double>(d[1]);
    return 2.0 * n * n * (m - n / 3.0);
  }
  // eigen: the usual ~9 n^3 for tridiagonalisation plus QL with
  // eigenvectors.
  const double n = static_cast<double>(d[0]);
  return 9.0 * n * n * n;
}

// ---- accuracy mode ------------------------------------------------------

struct AccStats {
  bool pass = true;
  double max_rel_tol_used = 0.0;  // worst |diff| / tol over elements (GEMM)
};

/// Compares a GEMM-family result against the scalar reference: per element
/// |c - ref| <= (2k + 8) eps |A||B| — the standard bound for reassociation-
/// free contraction differences along an ascending-k chain of length k.
/// `eps` defaults to double precision; the fp32 kernels pass float epsilon
/// (their accumulation, conversion and reassociation all round at fp32).
AccStats check_gemm(ConstMatrixView c, ConstMatrixView ref,
                    ConstMatrixView absprod, std::size_t inner,
                    double eps = std::numeric_limits<double>::epsilon()) {
  AccStats st;
  const double scale = (2.0 * static_cast<double>(inner) + 8.0) * eps;
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      const double tol = scale * absprod(i, j);
      const double diff = std::abs(c(i, j) - ref(i, j));
      if (diff > tol) st.pass = false;
      if (tol > 0.0) {
        st.max_rel_tol_used = std::max(st.max_rel_tol_used, diff / tol);
      }
    }
  }
  return st;
}

bool check_bitwise(ConstMatrixView c, ConstMatrixView ref) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      if (!bits_equal(c(i, j), ref(i, j))) return false;
    }
  }
  return true;
}

/// Wraps the rows x cols prefix of a padded (rows x (cols + pad)) parent,
/// giving a view whose row stride exceeds its width.
MatrixView strided_view(Matrix& parent, std::size_t rows, std::size_t cols) {
  return MatrixView(parent.row_data(0), rows, cols, parent.cols());
}

void copy_into_strided(MatrixView dst, ConstMatrixView src) {
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) dst(i, j) = src(i, j);
  }
}

/// One acc run of `kernel` at `dims` under the currently active tier.
/// Returns pass/fail and prints one line. `strided` routes the GEMM/gram
/// inputs and outputs through views with row stride > cols.
bool run_acc_case(const std::string& kernel,
                  const std::vector<std::size_t>& dims, bool strided) {
  const std::string label =
      kernel + " " + shape_name(dims) + (strided ? " (strided)" : "");
  const char* tier = numerics::isa_name();
  bool pass = true;
  std::string detail;

  if (kernel == "matmul" || kernel == "matmul_bias" ||
      kernel == "matmul_acc") {
    const std::size_t m = dims[0], k = dims[1], n = dims[2];
    const Matrix a = random_matrix(m, k, 11);
    const Matrix b = random_matrix(k, n, 22);
    const Vector bias = numerics::Rng(33).normal_vector(n);
    const Matrix c0 = random_matrix(m, n, 44);
    Matrix ref(m, n), absprod(m, n), c(m, n);
    const bool accumulate = kernel == "matmul_acc";
    const double* bias_ptr = kernel == "matmul_bias" ? bias.data() : nullptr;
    if (accumulate) {
      for (std::size_t i = 0; i < m; ++i) {
        ref.set_row(i, c0.row_view(i));
        absprod.set_row(i, c0.row_view(i));
      }
    }
    bench::ref_matmul(a.view(), b.view(), ref.view(), bias_ptr, accumulate);
    bench::ref_matmul_abs(a.view(), b.view(), absprod.view(), bias_ptr,
                          accumulate);
    AccStats st;
    if (strided) {
      Matrix pa(m, k + 3), pc(m, n + 5);
      copy_into_strided(strided_view(pa, m, k), a.view());
      MatrixView cv = strided_view(pc, m, n);
      if (accumulate) copy_into_strided(cv, c0.view());
      if (kernel == "matmul_bias") {
        numerics::matmul_bias_into(strided_view(pa, m, k), b.view(), bias,
                                   cv);
      } else if (accumulate) {
        numerics::matmul_accumulate(strided_view(pa, m, k), b.view(), cv);
      } else {
        numerics::matmul_into(strided_view(pa, m, k), b.view(), cv);
      }
      st = check_gemm(cv, ref.view(), absprod.view(), k);
    } else {
      if (accumulate) {
        for (std::size_t i = 0; i < m; ++i) c.set_row(i, c0.row_view(i));
        numerics::matmul_accumulate(a.view(), b.view(), c.view());
      } else if (kernel == "matmul_bias") {
        numerics::matmul_bias_into(a.view(), b.view(), bias, c.view());
      } else {
        numerics::matmul_into(a.view(), b.view(), c.view());
      }
      st = check_gemm(c.view(), ref.view(), absprod.view(), k);
    }
    pass = st.pass;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "max |diff|/tol %.3f",
                  st.max_rel_tol_used);
    detail = buf;
  } else if (kernel == "gemm_f32") {
    const std::size_t m = dims[0], k = dims[1], n = dims[2];
    const Matrix a = random_matrix(m, k, 11);
    const Matrix b = random_matrix(k, n, 22);
    const Vector bias = numerics::Rng(33).normal_vector(n);
    // Converted-once fp32 operator and bias, exactly like the fp32 model
    // backend; the fp64 reference runs over the *widened* fp32 operands so
    // the comparison isolates the kernel's fp32 accumulation.
    std::vector<float> bf(k * n), biasf(n);
    Matrix bw(k, n);
    Vector biasw(n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        bf[i * n + j] = static_cast<float>(b(i, j));
        bw(i, j) = static_cast<double>(bf[i * n + j]);
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      biasf[j] = static_cast<float>(bias[j]);
      biasw[j] = static_cast<double>(biasf[j]);
    }
    const numerics::ConstF32MatrixView bview{bf.data(), k, n, n};
    Matrix ref(m, n), absprod(m, n), c(m, n);
    bench::ref_matmul(a.view(), bw.view(), ref.view(), biasw.data(), false);
    bench::ref_matmul_abs(a.view(), bw.view(), absprod.view(), biasw.data(),
                          false);
    AccStats st;
    if (strided) {
      Matrix pa(m, k + 3), pc(m, n + 5);
      copy_into_strided(strided_view(pa, m, k), a.view());
      MatrixView cv = strided_view(pc, m, n);
      numerics::matmul_bias_f32_into(strided_view(pa, m, k), bview,
                                     biasf.data(), cv);
      st = check_gemm(cv, ref.view(), absprod.view(), k,
                      std::numeric_limits<float>::epsilon());
    } else {
      numerics::matmul_bias_f32_into(a.view(), bview, biasf.data(), c.view());
      st = check_gemm(c.view(), ref.view(), absprod.view(), k,
                      std::numeric_limits<float>::epsilon());
    }
    pass = st.pass;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "max |diff|/tol %.3f (fp32)",
                  st.max_rel_tol_used);
    detail = buf;
  } else if (kernel == "gram") {
    const std::size_t m = dims[0], n = dims[1];
    const Matrix a = random_matrix(m, n, 55);
    Matrix ref(n, n), g(n, n);
    bench::ref_gram(a.view(), ref.view());
    if (strided) {
      Matrix pa(m, n + 3), pg(n, n + 5);
      copy_into_strided(strided_view(pa, m, n), a.view());
      MatrixView gv = strided_view(pg, n, n);
      numerics::gram_into(strided_view(pa, m, n), gv);
      pass = check_bitwise(gv, ref.view());
    } else {
      numerics::gram_into(a.view(), g.view());
      pass = check_bitwise(g.view(), ref.view());
    }
    detail = "bitwise";
  } else if (kernel == "matvec" || kernel == "matvec_t") {
    const std::size_t m = dims[0], n = dims[1];
    const Matrix a = random_matrix(m, n, 66);
    const bool transpose = kernel == "matvec_t";
    const std::size_t xs = transpose ? m : n;
    const std::size_t ys = transpose ? n : m;
    const Vector x = numerics::Rng(77).normal_vector(xs);
    Vector ref(ys), y(ys);
    if (transpose) {
      bench::ref_matvec_transpose(a.view(), x.data(), ref.data());
      numerics::matvec_transpose_into(a.view(), x, y);
    } else {
      bench::ref_matvec(a.view(), x.data(), ref.data());
      numerics::matvec_into(a.view(), x, y);
    }
    for (std::size_t i = 0; i < ys; ++i) {
      if (!bits_equal(y[i], ref[i])) pass = false;
    }
    detail = "bitwise";
  } else if (kernel == "qr") {
    const std::size_t m = dims[0], n = dims[1];
    const Matrix a = random_matrix(m, n, 88);
    Matrix packed(m, n);
    for (std::size_t i = 0; i < m; ++i) packed.set_row(i, a.row_view(i));
    std::vector<double> tau, diag;
    bench::ref_householder_qr(packed.view(), tau, diag);
    Matrix ref_r(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      ref_r(i, i) = diag[i];
      for (std::size_t j = i + 1; j < n; ++j) ref_r(i, j) = packed(i, j);
    }
    const Matrix ref_q = bench::ref_thin_q(packed.view(), tau);
    const numerics::HouseholderQr qr(a);
    pass = check_bitwise(qr.r().view(), ref_r.view()) &&
           check_bitwise(qr.thin_q().view(), ref_q.view());
    detail = "bitwise (R and thin Q)";
  } else if (kernel == "eigen") {
    // A symmetric input; a block-diagonal one, whose uncoupled leading
    // block sends tridiagonalisation through its scale == 0 branch; and a
    // non-symmetric one, of which only the lower triangle is read.
    const std::size_t n = dims[0];
    const Matrix general = random_matrix(n, n, 111);
    Matrix symmetric(n, n), block(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        symmetric(i, j) = i >= j ? general(i, j) : general(j, i);
        block(i, j) = (i < n / 2) == (j < n / 2) ? symmetric(i, j) : 0.0;
      }
    }
    const Matrix* inputs[] = {&symmetric, &block, &general};
    for (const Matrix* input : inputs) {
      const numerics::SymmetricEigen ref = bench::ref_symmetric_eigen(*input);
      const numerics::SymmetricEigen lib = numerics::symmetric_eigen(*input);
      for (std::size_t j = 0; j < n; ++j) {
        pass = pass && bits_equal(lib.eigenvalues[j], ref.eigenvalues[j]);
      }
      pass = pass && check_bitwise(lib.eigenvectors.view(),
                                   ref.eigenvectors.view());
    }
    detail = "bitwise (symmetric, block-diagonal, non-symmetric)";
  } else {
    std::fprintf(stderr, "unknown kernel: %s\n", kernel.c_str());
    return false;
  }

  std::printf("acc  %-8s %-28s %s  (%s)\n", tier, label.c_str(),
              pass ? "PASS" : "FAIL", detail.c_str());
  return pass;
}

// ---- perf mode ----------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Doubles the iteration count until one batch of fn() runs for at least
/// `target` seconds.
template <typename Fn>
std::size_t calibrate_iters(const Fn& fn, double target) {
  std::size_t iters = 1;
  for (;;) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    if (now_seconds() - t0 >= target || iters >= (1u << 22)) return iters;
    iters *= 2;
  }
}

/// Median GFLOP/s: calibrates an iteration count to ~50 ms, then takes
/// the median of five timed repetitions — robust in both directions
/// against scheduler noise on shared hosts, where a best-of estimator
/// keeps whichever repetition got the quietest slice.
template <typename Fn>
double measure_gflops(double flops, const Fn& fn) {
  const std::size_t iters = calibrate_iters(fn, 0.05);
  double elapsed[5];
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_seconds();
    for (std::size_t i = 0; i < iters; ++i) fn();
    elapsed[rep] = now_seconds() - t0;
  }
  std::sort(elapsed, elapsed + 5);
  return flops * static_cast<double>(iters) / elapsed[2] / 1e9;
}

/// Paired speedup measurement: times five alternating (reference, tier)
/// block pairs back-to-back and takes the median of the per-pair time
/// ratios, plus the median tier GFLOP/s. On a shared host the background
/// load drifts on a scale of seconds, so a ratio of two measurements
/// taken at different moments is far noisier than either measurement
/// alone; adjacent ~30 ms blocks see the same load level and the drift
/// cancels out of the ratio.
template <typename RefFn, typename TierFn>
std::pair<double, double> measure_speedup(double flops, const RefFn& ref,
                                          const TierFn& fn) {
  const std::size_t ref_iters = calibrate_iters(ref, 0.03);
  const std::size_t tier_iters = calibrate_iters(fn, 0.03);
  double ratio[5];
  double tier_gflops[5];
  for (int rep = 0; rep < 5; ++rep) {
    double t0 = now_seconds();
    for (std::size_t i = 0; i < ref_iters; ++i) ref();
    const double ref_elapsed = now_seconds() - t0;
    t0 = now_seconds();
    for (std::size_t i = 0; i < tier_iters; ++i) fn();
    const double tier_elapsed = now_seconds() - t0;
    tier_gflops[rep] =
        flops * static_cast<double>(tier_iters) / tier_elapsed / 1e9;
    ratio[rep] = (ref_elapsed / static_cast<double>(ref_iters)) /
                 (tier_elapsed / static_cast<double>(tier_iters));
  }
  std::sort(ratio, ratio + 5);
  std::sort(tier_gflops, tier_gflops + 5);
  return {tier_gflops[2], ratio[2]};
}

struct PerfRecord {
  std::string kernel;
  std::string shape;
  std::string tier;  // "scalar" or an ISA name
  double gflops = 0.0;
  double speedup_vs_scalar = 1.0;
};

/// One timing round of a kernel/shape: allocates fresh inputs, times the
/// scalar reference and the library under tiers_for(), and appends one
/// record per timing (scalar first, then tiers in runnable_isas() order).
void run_perf_round(const std::string& kernel,
                    const std::vector<std::size_t>& dims,
                    std::vector<PerfRecord>& out) {
  const double flops = flops_for(kernel, dims);
  const std::string shape = shape_name(dims);

  // Inputs shared by reference and library timings.
  std::function<void()> ref_fn, lib_fn;
  Matrix a, b, c, ref_c;
  Vector bias, x, y;
  std::vector<float> bf, biasf;
  if (kernel == "matmul" || kernel == "matmul_bias" ||
      kernel == "matmul_acc") {
    a = random_matrix(dims[0], dims[1], 11);
    b = random_matrix(dims[1], dims[2], 22);
    bias = numerics::Rng(33).normal_vector(dims[2]);
    c = Matrix(dims[0], dims[2]);
    ref_c = Matrix(dims[0], dims[2]);
    const bool accumulate = kernel == "matmul_acc";
    const double* bias_ptr = kernel == "matmul_bias" ? bias.data() : nullptr;
    ref_fn = [&, accumulate, bias_ptr] {
      bench::ref_matmul(a.view(), b.view(), ref_c.view(), bias_ptr,
                        accumulate);
    };
    lib_fn = [&, accumulate] {
      if (accumulate) {
        numerics::matmul_accumulate(a.view(), b.view(), c.view());
      } else if (kernel == "matmul_bias") {
        numerics::matmul_bias_into(a.view(), b.view(), bias, c.view());
      } else {
        numerics::matmul_into(a.view(), b.view(), c.view());
      }
    };
  } else if (kernel == "gemm_f32") {
    const std::size_t m = dims[0], k = dims[1], n = dims[2];
    a = random_matrix(m, k, 11);
    b = random_matrix(k, n, 22);
    bias = numerics::Rng(33).normal_vector(n);
    bf.resize(k * n);
    biasf.resize(n);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        bf[i * n + j] = static_cast<float>(b(i, j));
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      biasf[j] = static_cast<float>(bias[j]);
    }
    c = Matrix(m, n);
    ref_c = Matrix(m, n);
    // The scalar baseline is the fp64 reference GEMM, so speedup_vs_scalar
    // reads as "fp32 tier vs fp64 scalar" — the precision win and the SIMD
    // win together, which is what the serving tail actually gains.
    ref_fn = [&] {
      bench::ref_matmul(a.view(), b.view(), ref_c.view(), bias.data(), false);
    };
    lib_fn = [&, k, n] {
      const numerics::ConstF32MatrixView bview{bf.data(), k, n, n};
      numerics::matmul_bias_f32_into(a.view(), bview, biasf.data(), c.view());
    };
  } else if (kernel == "gram") {
    a = random_matrix(dims[0], dims[1], 55);
    c = Matrix(dims[1], dims[1]);
    ref_c = Matrix(dims[1], dims[1]);
    ref_fn = [&] { bench::ref_gram(a.view(), ref_c.view()); };
    lib_fn = [&] { numerics::gram_into(a.view(), c.view()); };
  } else if (kernel == "matvec" || kernel == "matvec_t") {
    a = random_matrix(dims[0], dims[1], 66);
    const bool transpose = kernel == "matvec_t";
    x = numerics::Rng(77).normal_vector(transpose ? dims[0] : dims[1]);
    y = Vector(transpose ? dims[1] : dims[0]);
    if (transpose) {
      ref_fn = [&] {
        bench::ref_matvec_transpose(a.view(), x.data(), y.data());
      };
      lib_fn = [&] { numerics::matvec_transpose_into(a.view(), x, y); };
    } else {
      ref_fn = [&] { bench::ref_matvec(a.view(), x.data(), y.data()); };
      lib_fn = [&] { numerics::matvec_into(a.view(), x, y); };
    }
  } else if (kernel == "qr") {
    a = random_matrix(dims[0], dims[1], 88);
    ref_fn = [&] {
      Matrix packed(a.rows(), a.cols());
      for (std::size_t i = 0; i < a.rows(); ++i) {
        packed.set_row(i, a.row_view(i));
      }
      std::vector<double> tau, diag;
      bench::ref_householder_qr(packed.view(), tau, diag);
    };
    lib_fn = [&] { numerics::HouseholderQr qr(a); (void)qr; };
  } else if (kernel == "eigen") {
    const Matrix general = random_matrix(dims[0], dims[0], 111);
    a = numerics::gram(general);  // symmetric PSD, like the snapshot Gram
    ref_fn = [&] { bench::ref_symmetric_eigen(a); };
    lib_fn = [&] { numerics::symmetric_eigen(a); };
  } else {
    std::fprintf(stderr, "unknown kernel: %s\n", kernel.c_str());
    return;
  }

  out.push_back(PerfRecord{kernel, shape, "scalar",
                           measure_gflops(flops, ref_fn), 1.0});
  for (const Isa isa : tiers_for(kernel, numerics::runnable_isas())) {
    numerics::set_isa_override(isa);
    const auto [gflops, speedup] = measure_speedup(flops, ref_fn, lib_fn);
    numerics::clear_isa_override();
    out.push_back(
        PerfRecord{kernel, shape, numerics::isa_name(isa), gflops, speedup});
  }
}

/// Median over three independently allocated rounds. The paired ratios
/// inside a round cancel load drift, but where the allocator places the
/// matrices is a constant for the lifetime of the allocation — cache and
/// TLB conflict luck worth 10-20% on some shapes — so one round is one
/// draw from that distribution. Re-allocating per round and taking the
/// per-tier median turns the reported speedup into a property of the
/// kernel rather than of a single layout.
void run_perf_case(const std::string& kernel,
                   const std::vector<std::size_t>& dims,
                   std::vector<PerfRecord>& out) {
  constexpr int kRounds = 3;
  std::vector<PerfRecord> rounds[kRounds];
  for (int r = 0; r < kRounds; ++r) run_perf_round(kernel, dims, rounds[r]);
  for (std::size_t i = 0; i < rounds[0].size(); ++i) {
    PerfRecord rec = rounds[0][i];
    double gflops[kRounds], speedup[kRounds];
    for (int r = 0; r < kRounds; ++r) {
      gflops[r] = rounds[r][i].gflops;
      speedup[r] = rounds[r][i].speedup_vs_scalar;
    }
    std::sort(gflops, gflops + kRounds);
    std::sort(speedup, speedup + kRounds);
    rec.gflops = gflops[kRounds / 2];
    rec.speedup_vs_scalar = speedup[kRounds / 2];
    if (rec.tier == "scalar") {
      std::printf("perf %-8s %-22s %8.3f GFLOP/s\n", "scalar",
                  (rec.kernel + " " + rec.shape).c_str(), rec.gflops);
    } else {
      std::printf("perf %-8s %-22s %8.3f GFLOP/s  %6.2fx vs scalar\n",
                  rec.tier.c_str(), (rec.kernel + " " + rec.shape).c_str(),
                  rec.gflops, rec.speedup_vs_scalar);
    }
    out.push_back(rec);
  }
}

void write_json(const char* path, const std::vector<PerfRecord>& records) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"kernels\",\n");
  std::fprintf(out, "  \"isa\": \"%s\",\n", numerics::isa_name());
  std::fprintf(out, "  \"cpu_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const PerfRecord& r = records[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"tier\": "
                 "\"%s\", \"gflops\": %.3f, \"speedup_vs_scalar\": %.3f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.tier.c_str(),
                 r.gflops, r.speedup_vs_scalar,
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("# wrote %s\n", path);
}

// ---- check mode (perf regression gate) ----------------------------------

/// Minimal scan of our own BENCH_kernels.json format: the file-level "isa"
/// plus one PerfRecord per result line.
bool parse_bench_json(const std::string& text, std::string& isa,
                      std::vector<PerfRecord>& records) {
  auto find_string = [&](const std::string& hay, const char* key,
                         std::size_t from) -> std::string {
    const std::string pat = std::string("\"") + key + "\": \"";
    const std::size_t at = hay.find(pat, from);
    if (at == std::string::npos) return std::string();
    const std::size_t begin = at + pat.size();
    const std::size_t end = hay.find('"', begin);
    if (end == std::string::npos) return std::string();
    return hay.substr(begin, end - begin);
  };
  isa = find_string(text, "isa", 0);
  if (isa.empty()) return false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"kernel\"") == std::string::npos) continue;
    PerfRecord rec;
    rec.kernel = find_string(line, "kernel", 0);
    rec.shape = find_string(line, "shape", 0);
    rec.tier = find_string(line, "tier", 0);
    const std::size_t at = line.find("\"speedup_vs_scalar\": ");
    if (rec.kernel.empty() || rec.shape.empty() || rec.tier.empty() ||
        at == std::string::npos) {
      return false;
    }
    rec.speedup_vs_scalar =
        std::strtod(line.c_str() + at + std::strlen("\"speedup_vs_scalar\": "),
                    nullptr);
    records.push_back(rec);
  }
  return !records.empty();
}

int run_check(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "check: cannot read %s\n", path);
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string committed_isa;
  std::vector<PerfRecord> committed;
  if (!parse_bench_json(buffer.str(), committed_isa, committed)) {
    std::fprintf(stderr, "check: cannot parse %s\n", path);
    return 1;
  }
  if (committed_isa != numerics::isa_name()) {
    std::printf("check: committed file is %s, this machine runs %s; "
                "skipping perf comparison\n",
                committed_isa.c_str(), numerics::isa_name());
    return 0;
  }
  std::vector<PerfRecord> fresh;
  for (const Case& c : sweep()) {
    if (c.mode != Mode::kBoth || !dispatched(c.kernel)) continue;
    run_perf_case(c.kernel, c.dims, fresh);
  }
  // What the gate compares, and why two different noise bands:
  //
  //  * avx2/avx512: tier GFLOP/s divided by the SAME record set's portable
  //    GFLOP/s. Within a run every tier times the same allocations seconds
  //    apart, so allocation layout and background load cancel out of the
  //    ratio — measured cross-run spread is a few percent, and a real
  //    kernel or dispatch regression moves it by 15%+ on at least one
  //    gated shape. Band: 15%.
  //  * portable: speedup_vs_scalar. The naive scalar reference is
  //    deliberately cache-oblivious and on some shapes pathologically
  //    layout-sensitive, so this cross-process ratio spreads up to ~35%
  //    even after paired timing and multi-round medians. Band: 30% — wide
  //    enough to be stable, tight enough to catch the halving that losing
  //    the vectorised path costs.
  constexpr double kTierBand = 0.15;
  constexpr double kPortableBand = 0.30;
  auto metric = [](const std::vector<PerfRecord>& records,
                   const PerfRecord& rec) -> double {
    if (rec.tier == "portable") return rec.speedup_vs_scalar;
    for (const PerfRecord& p : records) {
      if (p.kernel == rec.kernel && p.shape == rec.shape &&
          p.tier == "portable" && p.gflops > 0.0) {
        return rec.gflops / p.gflops;
      }
    }
    return 0.0;
  };
  int failures = 0;
  for (const PerfRecord& old : committed) {
    if (old.tier == "scalar" || !dispatched(old.kernel)) continue;
    const double band = old.tier == "portable" ? kPortableBand : kTierBand;
    const double committed_metric = metric(committed, old);
    if (committed_metric <= 0.0) continue;
    const double floor = committed_metric * (1.0 - band);
    double measured = -1.0;
    for (const PerfRecord& now : fresh) {
      if (now.kernel == old.kernel && now.shape == old.shape &&
          now.tier == old.tier) {
        measured = metric(fresh, now);
        break;
      }
    }
    if (measured < 0.0) continue;  // shape no longer in the sweep
    // Up to two retries before failing: re-measure the whole case fresh
    // so one noisy round cannot fail the gate alone. A real regression
    // stays below the floor on every attempt; a load burst on a shared
    // host clears it on a later one.
    for (int attempt = 0; attempt < 2 && measured < floor; ++attempt) {
      std::vector<std::size_t> dims;
      {
        std::stringstream ss(old.shape);
        std::string part;
        while (std::getline(ss, part, 'x')) {
          dims.push_back(static_cast<std::size_t>(
              std::strtoull(part.c_str(), nullptr, 10)));
        }
      }
      std::vector<PerfRecord> again;
      run_perf_case(old.kernel, dims, again);
      for (const PerfRecord& re : again) {
        if (re.kernel == old.kernel && re.shape == old.shape &&
            re.tier == old.tier) {
          measured = std::max(measured, metric(again, re));
        }
      }
    }
    if (measured < floor) {
      std::printf("check: REGRESSION %s %s %s: %s %.2fx < %.2fx "
                  "(committed %.2fx - %.0f%%)\n",
                  old.kernel.c_str(), old.shape.c_str(), old.tier.c_str(),
                  old.tier == "portable" ? "speedup vs scalar"
                                         : "throughput vs portable",
                  measured, floor, committed_metric, band * 100.0);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf(
        "check: OK (no same-ISA GEMM regression beyond noise bands)\n");
  }
  return failures == 0 ? 0 : 1;
}

// ---- driver -------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: kernel_bench <acc|perf|check|list-isas> "
               "[kernel [shape...]]\n"
               "  kernels: matmul m k n | matmul_bias m k n | "
               "matmul_acc m k n |\n"
               "           gemm_f32 m k n | gram m n | matvec m n |\n"
               "           matvec_t m n | qr m n | eigen n\n");
  return 2;
}

std::vector<Case> cases_from_args(int argc, char** argv) {
  std::vector<Case> out;
  const std::string kernel = argv[0];
  std::vector<std::size_t> dims;
  for (int i = 1; i < argc; ++i) {
    dims.push_back(static_cast<std::size_t>(std::strtoull(argv[i], nullptr,
                                                          10)));
  }
  static std::string kernel_storage;
  kernel_storage = kernel;
  out.push_back(Case{kernel_storage.c_str(), dims, Mode::kBoth});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  // One thread: these are single-kernel measurements, and acc must see
  // deterministic partitioning regardless of the host's core count.
  numerics::set_blas_threads(1);

  if (mode == "list-isas") {
    for (const Isa isa : numerics::runnable_isas()) {
      std::printf("%s\n", numerics::isa_name(isa));
    }
    return 0;
  }
  if (mode == "check") {
    std::printf("# kernel_bench check, active isa %s\n",
                numerics::isa_name());
    return run_check(argc >= 3 ? argv[2] : "BENCH_kernels.json");
  }
  if (mode != "acc" && mode != "perf") return usage();

  const std::vector<Case> cases =
      argc >= 3 ? cases_from_args(argc - 2, argv + 2) : sweep();

  if (mode == "acc") {
    // With EIGENMAPS_FORCE_ISA set, test that tier alone (active_isa()
    // already resolved and validated it) — that is what lets CI iterate
    // the tiers one forced process at a time. Unset, sweep all runnable.
    std::vector<Isa> tiers;
    if (std::getenv("EIGENMAPS_FORCE_ISA") != nullptr) {
      tiers.push_back(numerics::active_isa());
    } else {
      tiers = numerics::runnable_isas();
    }
    std::printf("# kernel_bench acc, tiers:");
    for (const Isa isa : tiers) {
      std::printf(" %s", numerics::isa_name(isa));
    }
    std::printf("\n");
    bool all_pass = true;
    for (const Case& c : cases) {
      for (const Isa isa : tiers_for(c.kernel, tiers)) {
        numerics::set_isa_override(isa);
        all_pass &= run_acc_case(c.kernel, c.dims, false);
        if (dispatched(c.kernel) || std::string(c.kernel) == "gram") {
          all_pass &= run_acc_case(c.kernel, c.dims, true);
        }
        numerics::clear_isa_override();
      }
    }
    std::printf("acc: %s\n", all_pass ? "ALL PASS" : "FAILURES");
    return all_pass ? 0 : 1;
  }

  // perf
  std::printf("# kernel_bench perf, active isa %s, %u cores\n",
              numerics::isa_name(), std::thread::hardware_concurrency());
  std::vector<PerfRecord> records;
  for (const Case& c : cases) {
    if (argc < 3 && c.mode != Mode::kBoth) continue;
    run_perf_case(c.kernel, c.dims, records);
  }
  if (argc < 3) write_json("BENCH_kernels.json", records);
  return 0;
}
