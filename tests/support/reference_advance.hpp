#pragma once

// The frozen advection oracle: the per-step virtual-dispatch tracer loop
// and the looped DOPRI5 step it runs, as they shipped before the fast
// advection core.  Nothing in the library calls them.  The golden tests
// (tests/test_fast_path.cpp) hold Tracer::advance_batch to them at zero
// tolerance, and bench/advect_throughput times them as its `reference`
// row.  Header-only, so the tests and the bench each build it with no
// library target of its own.  Do not "optimize" anything here — its
// value is being the unchanged reference.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/block_decomposition.hpp"
#include "core/integrator.hpp"
#include "core/particle.hpp"
#include "core/tracer.hpp"

namespace sf {
namespace integrator_detail {

// Historical adaptive-step body; Sampler is bool(const Vec3&, double,
// Vec3&).  The triangular stage loop below is the kernel as it shipped
// before the fast advection core: kept verbatim as the oracle for the
// golden bit-identity test and as the performance baseline behind
// dopri5_step_reference / advance_reference.  Production
// overloads use dopri5_step_impl_fast instead.
template <typename Sampler>
StepResult dopri5_step_impl(Sampler&& sample, const Vec3& p, double t,
                            double h, const IntegratorParams& params) {
  StepResult r;
  h = std::clamp(h, params.h_min, params.h_max);

  for (;;) {
    Vec3 k[7];
    bool sample_ok = true;
    for (int s = 0; s < 7 && sample_ok; ++s) {
      Vec3 ps = p;
      for (int j = 0; j < s; ++j) ps += k[j] * (h * kA[s][j]);
      ++r.n_evals;
      sample_ok = sample(ps, t + kC[s] * h, k[s]);
    }

    if (!sample_ok) {
      // A stage left the data; shrink and retry, fail below h_min.
      if (h <= params.h_min * (1.0 + 1e-12)) {
        r.status = StepStatus::kSampleFailed;
        r.h_next = h;
        return r;
      }
      h = std::max(h * kShrink, params.h_min);
      continue;
    }

    Vec3 p_new = p;
    Vec3 err{};
    for (int s = 0; s < 7; ++s) {
      p_new += k[s] * (h * kB5[s]);
      err += k[s] * (h * kE[s]);
    }

    // Scaled RMS error against tol * (1 + |p|) per component.
    double sum = 0.0;
    for (int c = 0; c < 3; ++c) {
      const double scale =
          params.tol * (1.0 + std::max(std::abs(p[c]), std::abs(p_new[c])));
      const double q = err[c] / scale;
      sum += q * q;
    }
    const double enorm = std::sqrt(sum / 3.0);

    if (enorm <= 1.0 || h <= params.h_min * (1.0 + 1e-12)) {
      // Accept (steps at h_min are always accepted to guarantee progress).
      r.status = StepStatus::kOk;
      r.p = p_new;
      r.t = t + h;
      r.h_used = h;
      const double scale =
          enorm > 0.0
              ? std::clamp(kSafety * std::pow(enorm, -0.2), kMinScale,
                           kMaxScale)
              : kMaxScale;
      r.h_next = std::clamp(h * scale, params.h_min, params.h_max);
      return r;
    }

    // Reject: shrink per the controller and retry.
    const double scale =
        std::clamp(kSafety * std::pow(enorm, -0.2), kMinScale, 1.0);
    h = std::max(h * scale, params.h_min);
  }
}

}  // namespace integrator_detail

// The historical kernel (triangular stage loop, virtual dispatch per
// stage), bit-identical in results to dopri5_step but without its
// codegen improvements.  The step behind advance_reference.
inline StepResult dopri5_step_reference(const VectorField& field,
                                        const Vec3& p, double t, double h,
                                        const IntegratorParams& params) {
  return integrator_detail::dopri5_step_impl(
      [&field](const Vec3& ps, double, Vec3& out) {
        return field.sample(ps, out);
      },
      p, t, h, params);
}

// The historical tracer loop: virtual VectorField::sample per stage,
// BlockAccessFn lookup per step.  Same contract as advancing `particle`
// alone through Tracer::advance_batch, except that it ignores query
// cancellation.  The parameters keep the names of the Tracer members
// this loop once read, so its body stays the text it always was.
inline AdvanceOutcome advance_reference(const BlockDecomposition* decomp_,
                                        const IntegratorParams& iparams_,
                                        const TraceLimits& limits_,
                                        Particle& particle,
                                        const BlockAccessFn& blocks,
                                        TraceRecorder* recorder = nullptr) {
  AdvanceOutcome out;
  if (is_terminal(particle.status)) {
    out.status = particle.status;
    return out;
  }

  if (particle.steps == 0 && recorder != nullptr) {
    recorder->reserve_hint(static_cast<std::size_t>(limits_.max_steps) + 1);
    recorder->record(particle, particle.pos);  // seed vertex
  }
  if (particle.h <= 0.0) particle.h = iparams_.h_init;

  for (;;) {
    // Budget checks first so hand-offs can't dodge them.
    if (particle.time >= limits_.max_time) {
      particle.status = ParticleStatus::kMaxTime;
      break;
    }
    if (particle.steps >= limits_.max_steps) {
      particle.status = ParticleStatus::kMaxSteps;
      break;
    }

    const BlockId owner = decomp_->block_of(particle.pos);
    if (owner == kInvalidBlock) {
      particle.status = ParticleStatus::kExitedDomain;
      break;
    }

    const StructuredGrid* grid = blocks(owner);
    if (grid == nullptr) {
      // Edge of the available data: the caller must fetch `owner` (or
      // hand the particle to whoever has it).
      out.blocking_block = owner;
      out.status = ParticleStatus::kActive;
      return out;
    }

    // Stagnation check at the current position.
    Vec3 v{};
    ++out.evals;
    if (!grid->sample(particle.pos, v)) {
      // The owner grid must cover its own core extent; failure here is a
      // dataset construction bug, not a flow condition.
      particle.status = ParticleStatus::kError;
      break;
    }
    if (norm(v) < limits_.min_speed) {
      particle.status = ParticleStatus::kStagnant;
      break;
    }

    // Cap the trial step so the remaining time budget is never overshot
    // by more than one step.
    double h = particle.h;
    const double remaining = limits_.max_time - particle.time;
    if (h > remaining) h = std::max(remaining, iparams_.h_min);

    const StepResult step = dopri5_step_reference(*grid, particle.pos,
                                                  particle.time, h, iparams_);
    out.evals += static_cast<std::uint64_t>(step.n_evals);

    if (step.status == StepStatus::kSampleFailed) {
      // Even the smallest step sampled outside the block's ghost region.
      // Boundary-block grids extend (clamped) beyond the global domain,
      // so this only happens at the very rim of the data; classify by
      // whether a nudge along the flow leaves the domain.
      const Vec3 probe = particle.pos + normalized(v) * (iparams_.h_min * 10);
      particle.status = decomp_->block_of(probe) == kInvalidBlock
                            ? ParticleStatus::kExitedDomain
                            : ParticleStatus::kError;
      break;
    }

    particle.pos = step.p;
    particle.time = step.t;
    particle.h = step.h_next;
    particle.steps += 1;
    particle.geometry_points += 1;
    out.steps += 1;
    if (recorder != nullptr) recorder->record(particle, particle.pos);
  }

  out.status = particle.status;
  return out;
}

}  // namespace sf
