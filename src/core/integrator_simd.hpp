#pragma once

// SIMD-batched DOPRI5 advection (DESIGN.md §14).
//
// Tracer::advance_batch's focus round advances every pending particle
// resident in one block through that block's grid.  The kernel here runs
// that round 4 particles at a time in AVX2 double lanes: stage-position
// accumulation, the cell locate, the trilinear blend and the solution /
// error-estimate sums are elementwise vector ops, while everything
// data-dependent per particle — the step controller (std::pow), budget
// checks, block ownership, termination classification, recording and
// lane refill — stays scalar per lane.
//
// The contract is *bit-identity per particle* with the scalar round of
// Tracer::advance_batch under the same focus-only access: every lane
// executes the exact scalar operation sequence — same left-associated
// sums, same zero-weight terms, same clamp/truncate kernels — and the
// TU is compiled with FMA off and FP contraction pinned off, so IEEE
// semantics make each lane's arithmetic identical to the scalar oracle.
// Trajectories, statuses, step counts and evaluation counts all match;
// the golden tests in tests/test_fast_path.cpp hold this to zero
// tolerance.  Only recorder *interleaving* across particles differs
// (records arrive round-robin across lanes); recorders are keyed by
// particle id, so recorded geometry is unchanged.
//
// The implementation TU is compiled with -mavx2 only when the compiler
// supports it (SF_SIMD_AVX2); otherwise a stub is linked and
// sf::simd_kernel_available() reports false, so forcing
// AdvectionKernel::kSimd on any host degrades to scalar instead of
// crashing.

#include <cstddef>
#include <span>

#include "core/tracer.hpp"

namespace sf::simd {

// Cohorts narrower than this stay scalar under AdvectionKernel::kAuto:
// below one full lane group the setup cost outweighs the vector win.
inline constexpr std::uint32_t kMinAutoCohort = 4;

// Everything one focus round needs, borrowed from the Tracer.  All
// pointers are non-owning; `grid` is blocks(focus) and must be non-null
// and alive for the duration of the call (advance_batch pins it).
struct FocusCohortArgs {
  const BlockDecomposition* decomp = nullptr;
  BlockId focus = kInvalidBlock;
  const StructuredGrid* grid = nullptr;
  const IntegratorParams* iparams = nullptr;
  const TraceLimits* limits = nullptr;
  const QueryCancelSet* cancels = nullptr;  // may be null
  TraceRecorder* recorder = nullptr;        // may be null
};

// Advance every particle in `cohort` (indices into `batch`, in pending
// order, each owned by `args.focus`) until it terminates or leaves the
// focus block, accumulating into `out` exactly as the scalar round
// does: out[i].steps/evals grow, status/blocking_block are overwritten.
// Callable only when sf::simd_kernel_available() is true.
void advance_focus_cohort_avx2(std::span<Particle> batch,
                               std::span<const std::size_t> cohort,
                               std::span<AdvanceOutcome> out,
                               const FocusCohortArgs& args);

}  // namespace sf::simd
