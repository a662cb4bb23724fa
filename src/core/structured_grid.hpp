#pragma once

// Uniform structured grid of node-centered vectors with trilinear
// interpolation.  This is the in-memory representation of one dataset
// block (the unit of I/O, caching and ownership in all three parallel
// algorithms).
//
// Storage is SoA: one contiguous double array per vector component, in
// k-major node order.  The advection hot loop (GridSampler) gathers the
// 8 cell corners of one component from one contiguous array at a time
// instead of striding across 24-byte Vec3s, and both the slow virtual
// sample() and the cursor fast path go through the same inline kernels
// below so their results are bit-identical.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/field.hpp"

namespace sf {

namespace grid_detail {

// Continuous cell coordinates of p relative to (lo, inv_cell): cell
// anchor (i, j, k) plus fractional offsets in [0, 1].  Points exactly on
// the high face land in the last cell.  Every sampling path must locate
// cells through this one function (same multiply-by-reciprocal, same
// clamp) or results stop being bit-identical across paths.
struct CellCoords {
  int i, j, k;
  double tx, ty, tz;
};

inline CellCoords locate_cell(const Vec3& p, const Vec3& lo,
                              const Vec3& inv_cell, int nx, int ny, int nz) {
  const double fx = (p.x - lo.x) * inv_cell.x;
  const double fy = (p.y - lo.y) * inv_cell.y;
  const double fz = (p.z - lo.z) * inv_cell.z;
  int i = static_cast<int>(fx);
  int j = static_cast<int>(fy);
  int k = static_cast<int>(fz);
  if (i >= nx - 1) i = nx - 2;
  if (j >= ny - 1) j = ny - 2;
  if (k >= nz - 1) k = nz - 2;
  return {i, j, k, fx - i, fy - j, fz - k};
}

// Trilinear blend over one component's 8 corner values, gathered in
// x-fastest order: 000, 100, 010, 110, 001, 101, 011, 111.
inline double trilinear(const double c[8], double tx, double ty, double tz) {
  const double sx = 1.0 - tx;
  const double c00 = c[0] * sx + c[1] * tx;
  const double c10 = c[2] * sx + c[3] * tx;
  const double c01 = c[4] * sx + c[5] * tx;
  const double c11 = c[6] * sx + c[7] * tx;
  const double sy = 1.0 - ty;
  const double c0 = c00 * sy + c10 * ty;
  const double c1 = c01 * sy + c11 * ty;
  return c0 * (1.0 - tz) + c1 * tz;
}

}  // namespace grid_detail

class StructuredGrid final : public VectorField {
 public:
  // A grid with nx*ny*nz nodes spanning `bounds`.  Each axis needs at
  // least 2 nodes so a trilinear cell exists.
  StructuredGrid(const AABB& bounds, int nx, int ny, int nz);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  std::size_t num_nodes() const { return xs_.size(); }

  // Physical size of one cell, and its precomputed reciprocal (the hot
  // paths multiply; nothing divides per sample).
  Vec3 cell_size() const { return cell_; }
  Vec3 inv_cell_size() const { return inv_cell_; }

  std::size_t index(int i, int j, int k) const {
    return static_cast<std::size_t>(k) * nx_ * ny_ +
           static_cast<std::size_t>(j) * nx_ + static_cast<std::size_t>(i);
  }

  Vec3 at(int i, int j, int k) const {
    const std::size_t n = index(i, j, k);
    return {xs_[n], ys_[n], zs_[n]};
  }
  void set_node(int i, int j, int k, const Vec3& v) {
    const std::size_t n = index(i, j, k);
    xs_[n] = v.x;
    ys_[n] = v.y;
    zs_[n] = v.z;
  }

  // SoA component arrays, k-major node order (the GridSampler cursor
  // gathers cell corners straight from these).
  const double* comp_x() const { return xs_.data(); }
  const double* comp_y() const { return ys_.data(); }
  const double* comp_z() const { return zs_.data(); }

  // Physical position of node (i, j, k).
  Vec3 node_position(int i, int j, int k) const;

  // Fill every node by sampling `field` at the node position.  Nodes
  // outside the field's domain (possible for ghost nodes of boundary
  // blocks) are set to the field value at the clamped position, so
  // interpolation near the domain boundary stays well defined.
  void sample_from(const VectorField& field);

  // Trilinear interpolation.  Positions outside `bounds()` fail.
  bool sample(const Vec3& p, Vec3& out) const override;
  AABB bounds() const override { return bounds_; }

  // The component arrays x, y, z as spans, k-major node order.  The
  // mutable overload is the one way to fill a grid in place: BlockStore
  // reads its on-disk payload (these three arrays, in this order)
  // straight into it.
  std::array<std::span<const double>, 3> components() const {
    return {xs_, ys_, zs_};
  }
  std::array<std::span<double>, 3> components() { return {xs_, ys_, zs_}; }

  // AoS snapshot of the nodes, x0 y0 z0 x1 y1 z1 ... in k-major order.
  std::vector<Vec3> data() const;

  // Bytes of node payload (what BlockStore writes for this grid).
  std::size_t payload_bytes() const { return xs_.size() * sizeof(Vec3); }

 private:
  AABB bounds_;
  int nx_, ny_, nz_;
  Vec3 cell_;
  Vec3 inv_cell_;
  std::vector<double> xs_, ys_, zs_;
};

}  // namespace sf
