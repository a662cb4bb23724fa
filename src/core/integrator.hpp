#pragma once

// Numerical integration of streamlines.
//
// The production scheme is the Dormand–Prince embedded Runge–Kutta 5(4)
// pair with adaptive step-size control (the scheme the paper uses, citing
// Prince & Dormand 1981).
//
// The step body is a template over a sampler callable (see
// integrator_detail below) so the advection fast path can instantiate
// it against a non-virtual GridSampler cursor; the VectorField and
// UnsteadySampleFn overloads wrap the same body and are bit-identical
// in arithmetic.

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/field.hpp"

namespace sf {

class GridSampler;

struct IntegratorParams {
  double h_init = 1e-2;  // first trial step for fresh particles
  double h_min = 1e-9;   // below this, a failing step is a hard error
  double h_max = 0.25;   // cap on accepted steps
  double tol = 1e-6;     // error tolerance (used as both abs and rel)
};

enum class StepStatus : std::uint8_t {
  kOk = 0,
  // A stage evaluation left the field's domain even at h_min.  For block
  // grids (whose domain is the ghost-inflated block) this means the
  // particle is at the edge of the available data.
  kSampleFailed = 1,
};

struct StepResult {
  StepStatus status = StepStatus::kOk;
  Vec3 p{};             // accepted position (valid when kOk)
  double t = 0.0;       // time after the step
  double h_used = 0.0;  // the accepted step size
  double h_next = 0.0;  // controller's suggestion for the next step
  int n_evals = 0;      // field evaluations spent (incl. rejected tries)
  // DOPRI5 is FSAL (first-same-as-last): the 7th stage of an accepted
  // step is evaluated exactly at the accepted point, i.e. at the next
  // step's first-stage position.  The fast body hands it back here so
  // the tracer can reuse it (valid only while sampling the same grid).
  Vec3 k_last{};
  bool has_k_last = false;
};

namespace integrator_detail {

// Dormand–Prince 5(4) coefficients (Prince & Dormand 1981, the DOPRI5
// tableau).  b gives the 5th-order solution, e = b - b4 the embedded
// error estimator.
inline constexpr double kC[7] = {0.0,     1.0 / 5, 3.0 / 10, 4.0 / 5,
                                 8.0 / 9, 1.0,     1.0};

inline constexpr double kA[7][6] = {
    {},
    {1.0 / 5},
    {3.0 / 40, 9.0 / 40},
    {44.0 / 45, -56.0 / 15, 32.0 / 9},
    {19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
    {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176,
     -5103.0 / 18656},
    {35.0 / 384, 0.0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
};

inline constexpr double kB5[7] = {35.0 / 384,      0.0,          500.0 / 1113,
                                  125.0 / 192,     -2187.0 / 6784, 11.0 / 84,
                                  0.0};

// b5 - b4: error-estimator weights.
inline constexpr double kE[7] = {71.0 / 57600,    0.0,           -71.0 / 16695,
                                 71.0 / 1920,     -17253.0 / 339200, 22.0 / 525,
                                 -1.0 / 40};

inline constexpr double kShrink = 0.5;  // factor applied on sample failure
inline constexpr double kSafety = 0.9;
inline constexpr double kMinScale = 0.2;
inline constexpr double kMaxScale = 5.0;

// Adaptive DOPRI5 step with the stage positions hand-unrolled.
// Arithmetic is IDENTICAL to the looped oracle in
// tests/support/reference_advance.hpp — each stage position is the same
// left-associated sum p + k[0]*(h*a0) + k[1]*(h*a1) + ... that its
// triangular `ps += ...` loop produces, in the same term order — so the
// results are bit-identical (the golden test enforces it).  What changes
// is codegen: with the loop structure gone the optimizer keeps the k[]
// stages in registers instead of re-walking an indexed triangular loop,
// which roughly halves the non-sampling cost per step.
// `k0_pre`, when non-null, is the field value at (p, t) — the caller
// already sampled it (the tracer's stagnation check does).  The sampler
// is deterministic, so reusing it instead of re-evaluating stage one is
// bit-identical; it is also reused across shrink-retries, which
// re-sample an unchanged position in the reference body.  n_evals then
// counts only the evaluations actually performed.
template <typename Sampler>
StepResult dopri5_step_impl_fast(Sampler&& sample, const Vec3& p, double t,
                                 double h, const IntegratorParams& params,
                                 const Vec3* k0_pre = nullptr) {
  StepResult r;
  h = std::clamp(h, params.h_min, params.h_max);

  for (;;) {
    Vec3 k0, k1, k2, k3, k4, k5, k6;
    bool ok = true;
    if (k0_pre != nullptr) {
      k0 = *k0_pre;
    } else {
      ++r.n_evals;
      ok = sample(p, t + kC[0] * h, k0);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[1][0]);
      ++r.n_evals;
      ok = sample(ps, t + kC[1] * h, k1);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[2][0]) + k1 * (h * kA[2][1]);
      ++r.n_evals;
      ok = sample(ps, t + kC[2] * h, k2);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[3][0]) + k1 * (h * kA[3][1]) +
                      k2 * (h * kA[3][2]);
      ++r.n_evals;
      ok = sample(ps, t + kC[3] * h, k3);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[4][0]) + k1 * (h * kA[4][1]) +
                      k2 * (h * kA[4][2]) + k3 * (h * kA[4][3]);
      ++r.n_evals;
      ok = sample(ps, t + kC[4] * h, k4);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[5][0]) + k1 * (h * kA[5][1]) +
                      k2 * (h * kA[5][2]) + k3 * (h * kA[5][3]) +
                      k4 * (h * kA[5][4]);
      ++r.n_evals;
      ok = sample(ps, t + kC[5] * h, k5);
    }
    if (ok) {
      const Vec3 ps = p + k0 * (h * kA[6][0]) + k1 * (h * kA[6][1]) +
                      k2 * (h * kA[6][2]) + k3 * (h * kA[6][3]) +
                      k4 * (h * kA[6][4]) + k5 * (h * kA[6][5]);
      ++r.n_evals;
      ok = sample(ps, t + kC[6] * h, k6);
    }

    if (!ok) {
      if (h <= params.h_min * (1.0 + 1e-12)) {
        r.status = StepStatus::kSampleFailed;
        r.h_next = h;
        return r;
      }
      h = std::max(h * kShrink, params.h_min);
      continue;
    }

    // Solution and error estimate, in the reference accumulation order
    // (zero-weight terms included: dropping `+ k * 0.0` could flip the
    // sign of a zero).
    const Vec3 p_new = p + k0 * (h * kB5[0]) + k1 * (h * kB5[1]) +
                       k2 * (h * kB5[2]) + k3 * (h * kB5[3]) +
                       k4 * (h * kB5[4]) + k5 * (h * kB5[5]) +
                       k6 * (h * kB5[6]);
    const Vec3 err = Vec3{} + k0 * (h * kE[0]) + k1 * (h * kE[1]) +
                     k2 * (h * kE[2]) + k3 * (h * kE[3]) +
                     k4 * (h * kE[4]) + k5 * (h * kE[5]) + k6 * (h * kE[6]);

    double sum = 0.0;
    for (int c = 0; c < 3; ++c) {
      const double scale =
          params.tol * (1.0 + std::max(std::abs(p[c]), std::abs(p_new[c])));
      const double q = err[c] / scale;
      sum += q * q;
    }
    const double enorm = std::sqrt(sum / 3.0);

    if (enorm <= 1.0 || h <= params.h_min * (1.0 + 1e-12)) {
      r.status = StepStatus::kOk;
      r.p = p_new;
      r.t = t + h;
      r.h_used = h;
      r.k_last = k6;  // FSAL: sampled at (p_new, t + h)
      r.has_k_last = true;
      const double scale =
          enorm > 0.0
              ? std::clamp(kSafety * std::pow(enorm, -0.2), kMinScale,
                           kMaxScale)
              : kMaxScale;
      r.h_next = std::clamp(h * scale, params.h_min, params.h_max);
      return r;
    }

    const double scale =
        std::clamp(kSafety * std::pow(enorm, -0.2), kMinScale, 1.0);
    h = std::max(h * scale, params.h_min);
  }
}

}  // namespace integrator_detail

// Take one *accepted* adaptive DoPri5(4) step from (p, t) with trial step
// size h.  Rejected trials (error too large, or a stage sampling outside
// the field domain) shrink h and retry inside this call; the step only
// fails once h would drop below h_min.
StepResult dopri5_step(const VectorField& field, const Vec3& p, double t,
                       double h, const IntegratorParams& params);

// Time-varying right-hand side: v = f(p, t), false outside the domain.
using UnsteadySampleFn =
    std::function<bool(const Vec3& p, double t, Vec3& out)>;

// The same scheme for non-autonomous systems dx/dt = f(x, t): stages are
// evaluated at t + c_s * h, keeping full 5th order for pathlines.
StepResult dopri5_step(const UnsteadySampleFn& f, const Vec3& p, double t,
                       double h, const IntegratorParams& params);

// Fast path: the same step against a non-virtual grid cursor.  The
// cursor keeps its cell cache warm across the 7 stages (and across the
// consecutive steps of a trace); results are bit-identical to the
// VectorField overload on the cursor's grid.  Defined inline in
// grid_sampler.hpp so it folds into the tracer's advance loop.
StepResult dopri5_step(GridSampler& sampler, const Vec3& p, double t,
                       double h, const IntegratorParams& params);

}  // namespace sf
