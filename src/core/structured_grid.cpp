#include "core/structured_grid.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sf {

StructuredGrid::StructuredGrid(const AABB& bounds, int nx, int ny, int nz)
    : bounds_(bounds), nx_(nx), ny_(ny), nz_(nz) {
  if (nx < 2 || ny < 2 || nz < 2) {
    throw std::invalid_argument("StructuredGrid needs >= 2 nodes per axis");
  }
  if (!bounds.valid() || bounds.volume() <= 0.0) {
    throw std::invalid_argument("StructuredGrid needs a positive-volume box");
  }
  const Vec3 e = bounds_.extent();
  cell_ = {e.x / (nx_ - 1), e.y / (ny_ - 1), e.z / (nz_ - 1)};
  inv_cell_ = {1.0 / cell_.x, 1.0 / cell_.y, 1.0 / cell_.z};
  const std::size_t n = static_cast<std::size_t>(nx_) * ny_ * nz_;
  xs_.resize(n);
  ys_.resize(n);
  zs_.resize(n);
}

Vec3 StructuredGrid::node_position(int i, int j, int k) const {
  return {bounds_.lo.x + i * cell_.x, bounds_.lo.y + j * cell_.y,
          bounds_.lo.z + k * cell_.z};
}

void StructuredGrid::sample_from(const VectorField& field) {
  const AABB domain = field.bounds();
  for (int k = 0; k < nz_; ++k) {
    for (int j = 0; j < ny_; ++j) {
      for (int i = 0; i < nx_; ++i) {
        const Vec3 p = node_position(i, j, k);
        Vec3 v{};
        if (!field.sample(p, v)) {
          // Ghost node outside the global domain: clamp so boundary cells
          // still interpolate sensibly.
          field.sample(domain.clamp(p), v);
        }
        set_node(i, j, k, v);
      }
    }
  }
}

bool StructuredGrid::sample(const Vec3& p, Vec3& out) const {
  if (!bounds_.contains(p)) return false;

  const grid_detail::CellCoords cc =
      grid_detail::locate_cell(p, bounds_.lo, inv_cell_, nx_, ny_, nz_);

  // Gather the cell's 8 corners per component, x-fastest order.
  const std::size_t base = index(cc.i, cc.j, cc.k);
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
  double cx[8], cy[8], cz[8];
  for (int c = 0; c < 8; ++c) {
    cx[c] = xs_[n[c]];
    cy[c] = ys_[n[c]];
    cz[c] = zs_[n[c]];
  }
  out.x = grid_detail::trilinear(cx, cc.tx, cc.ty, cc.tz);
  out.y = grid_detail::trilinear(cy, cc.tx, cc.ty, cc.tz);
  out.z = grid_detail::trilinear(cz, cc.tx, cc.ty, cc.tz);
  return true;
}

std::vector<Vec3> StructuredGrid::data() const {
  std::vector<Vec3> nodes(xs_.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    nodes[n] = {xs_[n], ys_[n], zs_[n]};
  }
  return nodes;
}

}  // namespace sf
