#include "io/checksum.hpp"

#include <bit>
#include <cstring>

namespace sf {

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

// One lane step.  The multiplies are by odd constants, so this is a
// bijection in `acc` and injective in `w`; the rotate moves a bit-63
// difference down, so flips in bit 63 of two words cannot cancel.
std::uint64_t lane_step(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

std::uint64_t word_at(const unsigned char* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

std::uint64_t checksum64(const void* data, std::size_t bytes,
                         std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    for (int l = 0; l < 4; ++l) {
      lane[l] = lane_step(lane[l], word_at(p + i + 8 * l));
    }
  }
  // Fold: each step is a bijection in h and in the value it takes.
  std::uint64_t h = seed + kP5;
  for (const std::uint64_t v : lane) h = (h ^ lane_step(0, v)) * kP1 + kP4;
  for (; i + 8 <= bytes; i += 8) {
    h = std::rotl(h ^ lane_step(0, word_at(p + i)), 27) * kP1 + kP4;
  }
  for (; i < bytes; ++i) h = std::rotl(h ^ (p[i] * kP5), 11) * kP1;
  h ^= bytes;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace sf
