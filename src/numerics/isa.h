// Runtime ISA selection for the hand-written SIMD micro-kernels.
//
// Three tiers: kPortable (the target_clones auto-vectorised C++ loops —
// also the NEON / non-x86 path), kAvx2 (explicit 256-bit FMA kernels) and
// kAvx512 (explicit 512-bit masked kernels). The widest tier that is both
// compiled into this binary and supported by the CPU wins; the
// EIGENMAPS_FORCE_ISA environment variable ("portable"/"scalar", "avx2",
// "avx512") narrows the choice for testing, and forcing a tier the machine
// cannot run throws instead of silently falling back (DESIGN.md §13).
//
// Only the two expansion GEMMs dispatch on the tier: the fp64 family
// (already -ffp-contract=fast) differs across tiers within its documented
// ULP bound, the fp32 backend within its error budget. Every golden-path
// kernel (gram, matvec, QR, the eigensolver) is one compiled loop, so the
// selection never changes a golden byte.
#ifndef EIGENMAPS_NUMERICS_ISA_H
#define EIGENMAPS_NUMERICS_ISA_H

#include <vector>

namespace eigenmaps::numerics {

enum class Isa {
  kPortable = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Stable lowercase name ("portable" / "avx2" / "avx512").
const char* isa_name(Isa isa);

/// The tier the hot kernels dispatch to right now: the per-process
/// override if set, else the EIGENMAPS_FORCE_ISA resolution, else the
/// widest compiled-and-supported tier. Throws std::invalid_argument when
/// EIGENMAPS_FORCE_ISA names an unknown or unrunnable tier.
Isa active_isa();

/// isa_name(active_isa()) — what benches and BENCH_*.json record.
const char* isa_name();

/// True when the explicit kernels for `isa` were compiled into this
/// binary (kPortable is always true).
bool isa_compiled(Isa isa);

/// True when `isa` is compiled and this CPU can execute it.
bool isa_runnable(Isa isa);

/// Every runnable tier, narrowest first ({kPortable, ...}); the sweep
/// space for per-ISA accuracy tests and benches.
std::vector<Isa> runnable_isas();

/// Overrides active_isa() for this process (test hook, same shape as
/// set_blas_threads). Throws std::invalid_argument if `isa` is not
/// runnable. clear_isa_override() restores env/default resolution.
void set_isa_override(Isa isa);
void clear_isa_override();

}  // namespace eigenmaps::numerics

#endif  // EIGENMAPS_NUMERICS_ISA_H
