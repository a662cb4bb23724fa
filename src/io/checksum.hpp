#pragma once

// Payload checksum shared by block files and checkpoints (DESIGN.md §16).
//
// A 64-bit, word-parallel checksum in the style of xxHash64: 8-byte
// words feed four independent lanes, so the serial multiply chain of a
// bytewise hash becomes four chains the CPU runs side by side.  Every
// step is a bijection in the running state and injective in the word it
// takes, so any change confined to one aligned 8-byte word, or to one
// byte of the tail, always changes the result.  The seed enters only
// after the lanes, which makes the result a bijection of the seed:
// chaining buffers through it (checksum64(b, n, checksum64(a, m)))
// keeps that guarantee for every buffer in the chain.

#include <cstddef>
#include <cstdint>

namespace sf {

std::uint64_t checksum64(const void* data, std::size_t bytes,
                         std::uint64_t seed = 0);

}  // namespace sf
