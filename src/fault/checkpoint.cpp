#include "fault/checkpoint.hpp"

#include <cstring>

namespace sf {

namespace {
void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ULL;  // FNV-1a
  }
}

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(d));
  std::memcpy(&u, &d, sizeof(u));
  return u;
}
}  // namespace

std::uint64_t dataset_topology_hash(const BlockDecomposition& decomp) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, static_cast<std::uint64_t>(decomp.nbx()));
  mix(h, static_cast<std::uint64_t>(decomp.nby()));
  mix(h, static_cast<std::uint64_t>(decomp.nbz()));
  const AABB& d = decomp.domain();
  mix(h, bits_of(d.lo.x));
  mix(h, bits_of(d.lo.y));
  mix(h, bits_of(d.lo.z));
  mix(h, bits_of(d.hi.x));
  mix(h, bits_of(d.hi.y));
  mix(h, bits_of(d.hi.z));
  return h;
}

}  // namespace sf
