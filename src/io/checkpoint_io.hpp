#pragma once

// Binary checkpoint files.
//
// Layout: 8-byte magic, a fixed header carrying the payload size and a
// checksum of the payload (io/checksum.hpp), then the payload itself —
// field-by-field little-endian particle records and per-rank sections
// (no struct padding on disk, unlike block files, because a Checkpoint
// nests vectors).
// Writes go through a temp file + rename so a crash mid-write never
// leaves a truncated checkpoint behind the latest good one.

#include <filesystem>

#include "fault/checkpoint.hpp"

namespace sf {

void write_checkpoint(const std::filesystem::path& path, const Checkpoint& ck);

// Size of the file write_checkpoint writes for `ck`, counted by the same
// writer without storing a byte (what the checkpoint-write cost model
// charges).
std::size_t checkpoint_bytes(const Checkpoint& ck);

// Throws std::runtime_error on missing file, bad magic, truncation or
// checksum mismatch.
Checkpoint read_checkpoint(const std::filesystem::path& path);

}  // namespace sf
