// Shared internals of the dense-kernel translation units (blas.cpp,
// blas_gemm.cpp): deterministic work partitioning and the ISA-dispatch
// macro. Not part of the public numerics API.
#ifndef EIGENMAPS_NUMERICS_BLAS_INTERNAL_H
#define EIGENMAPS_NUMERICS_BLAS_INTERNAL_H

#include <algorithm>
#include <cstddef>
#include <thread>
#include <vector>

#include "numerics/blas.h"

// Runtime ISA dispatch for the hot kernels: the linker picks the widest
// clone the CPU supports (ifunc), so one binary runs everywhere and still
// uses AVX2/AVX-512 where present. Not under -fsanitize=thread (gcc's
// __SANITIZE_THREAD__): ifunc resolvers run before the TSan runtime.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define EIGENMAPS_KERNEL_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define EIGENMAPS_KERNEL_CLONES
#endif

namespace eigenmaps::numerics::detail {

// Panel sizes shared by every GEMM path (portable and the explicit SIMD
// kernels): a kBlockK x kBlockJ panel of B is 256 KiB — resident in L2
// while the i-loop sweeps over it — and a kBlockJ row segment of C is
// 2 KiB, hot in L1 across the whole k-panel. See DESIGN.md §8.
constexpr std::size_t kBlockK = 128;
constexpr std::size_t kBlockJ = 256;

// Below this many multiply-adds a product runs on the calling thread; the
// work would not amortise thread start-up.
constexpr std::size_t kThreadFlopThreshold = 1u << 20;

inline std::size_t threads_for(std::size_t flops) {
  if (flops < kThreadFlopThreshold) return 1;
  return blas_threads();
}

/// Runs fn(begin, end) over [0, count) split into at most `threads`
/// contiguous ranges. The partition depends only on `count` and `threads`,
/// never on scheduling, so deterministic kernels stay deterministic.
template <typename Fn>
void parallel_ranges(std::size_t count, std::size_t threads, const Fn& fn) {
  threads = std::min(threads, count);
  if (threads <= 1) {
    fn(std::size_t{0}, count);
    return;
  }
  const std::size_t chunk = (count + threads - 1) / threads;
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  std::size_t begin = chunk;
  for (std::size_t t = 1; t < threads && begin < count; ++t) {
    const std::size_t end = std::min(begin + chunk, count);
    pool.emplace_back([&fn, begin, end] { fn(begin, end); });
    begin = end;
  }
  fn(std::size_t{0}, std::min(chunk, count));
  for (std::thread& th : pool) th.join();
}

/// Like parallel_ranges but with explicit range boundaries (ascending,
/// bounds.size() == parts + 1); used when per-row cost is not uniform.
template <typename Fn>
void parallel_bounded(const std::vector<std::size_t>& bounds, const Fn& fn) {
  const std::size_t parts = bounds.size() - 1;
  if (parts <= 1) {
    fn(bounds.front(), bounds.back());
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(parts - 1);
  for (std::size_t t = 1; t < parts; ++t) {
    const std::size_t begin = bounds[t];
    const std::size_t end = bounds[t + 1];
    pool.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  fn(bounds[0], bounds[1]);
  for (std::thread& th : pool) th.join();
}

}  // namespace eigenmaps::numerics::detail

#endif  // EIGENMAPS_NUMERICS_BLAS_INTERNAL_H
