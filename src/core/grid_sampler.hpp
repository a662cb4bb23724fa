#pragma once

// Cell-cursor sampler over one StructuredGrid — the non-virtual fast
// path of the advection core.
//
// A DOPRI5 step evaluates the field at 7 nearby stage positions, and
// consecutive accepted steps stay within one grid cell for many steps at
// typical tolerances.  The cursor exploits that: it remembers the current
// cell anchor and keeps the cell's 8 corner values (per component) in 24
// registers-worth of locals, revalidating only when the located cell
// anchor changes.  Cell location and the trilinear blend go through the
// same grid_detail kernels as StructuredGrid::sample, so a cursor sample
// is bit-identical to the virtual slow path — the golden test in
// tests/test_fast_path.cpp holds this to zero tolerance.

#include "core/integrator.hpp"
#include "core/structured_grid.hpp"

namespace sf {

class GridSampler {
 public:
  GridSampler() = default;
  explicit GridSampler(const StructuredGrid& grid) { reset(&grid); }

  // Rebind to another grid (or detach with nullptr); invalidates the
  // cached cell.
  void reset(const StructuredGrid* grid) {
    grid_ = grid;
    ci_ = cj_ = ck_ = -1;
    if (grid_ != nullptr) {
      bounds_ = grid_->bounds();
      inv_cell_ = grid_->inv_cell_size();
      nx_ = grid_->nx();
      ny_ = grid_->ny();
      nz_ = grid_->nz();
    }
  }

  const StructuredGrid* grid() const { return grid_; }

  // Same contract as StructuredGrid::sample: trilinear interpolation,
  // false outside the grid bounds.
  bool sample(const Vec3& p, Vec3& out) {
    if (!bounds_.contains(p)) return false;
    const grid_detail::CellCoords cc =
        grid_detail::locate_cell(p, bounds_.lo, inv_cell_, nx_, ny_, nz_);
    if (cc.i != ci_ || cc.j != cj_ || cc.k != ck_) refill(cc.i, cc.j, cc.k);
    out.x = grid_detail::trilinear(cx_, cc.tx, cc.ty, cc.tz);
    out.y = grid_detail::trilinear(cy_, cc.tx, cc.ty, cc.tz);
    out.z = grid_detail::trilinear(cz_, cc.tx, cc.ty, cc.tz);
    return true;
  }

 private:
  void refill(int i, int j, int k) {
    const std::size_t base = grid_->index(i, j, k);
    const std::size_t rowy = static_cast<std::size_t>(nx_);
    const std::size_t rowz = static_cast<std::size_t>(nx_) * ny_;
    const std::size_t n[8] = {base,
                              base + 1,
                              base + rowy,
                              base + rowy + 1,
                              base + rowz,
                              base + rowz + 1,
                              base + rowz + rowy,
                              base + rowz + rowy + 1};
    const double* xs = grid_->comp_x();
    const double* ys = grid_->comp_y();
    const double* zs = grid_->comp_z();
    for (int c = 0; c < 8; ++c) {
      cx_[c] = xs[n[c]];
      cy_[c] = ys[n[c]];
      cz_[c] = zs[n[c]];
    }
    ci_ = i;
    cj_ = j;
    ck_ = k;
  }

  const StructuredGrid* grid_ = nullptr;
  AABB bounds_{};
  Vec3 inv_cell_{};
  int nx_ = 0, ny_ = 0, nz_ = 0;
  // Cached cell: anchor node plus the 8 corner values per component.
  int ci_ = -1, cj_ = -1, ck_ = -1;
  double cx_[8] = {}, cy_[8] = {}, cz_[8] = {};
};

// Cursor overloads of the stepper, defined inline here (not in
// integrator.cpp) so the whole step — stage arithmetic and cursor
// sampling — inlines into the tracer's advance loop.  The declarations
// live in integrator.hpp; callers need this header for the definitions.
inline StepResult dopri5_step(GridSampler& sampler, const Vec3& p, double t,
                              double h, const IntegratorParams& params) {
  return integrator_detail::dopri5_step_impl_fast(
      [&sampler](const Vec3& ps, double, Vec3& out) {
        return sampler.sample(ps, out);
      },
      p, t, h, params);
}

// Step with the stage-one value already in hand (see dopri5_step_impl_fast):
// the tracer passes the velocity it just sampled for the stagnation check.
inline StepResult dopri5_step(GridSampler& sampler, const Vec3& k0,
                              const Vec3& p, double t, double h,
                              const IntegratorParams& params) {
  return integrator_detail::dopri5_step_impl_fast(
      [&sampler](const Vec3& ps, double, Vec3& out) {
        return sampler.sample(ps, out);
      },
      p, t, h, params, &k0);
}

}  // namespace sf
