#pragma once

// Typed block-read errors (DESIGN.md §16).
//
// Every failure mode of a BlockStore read carries a machine-readable
// kind, so a caller can tell a structural fault (a block file that
// simply is not there) from a damaged one (bad magic, a short payload,
// a checksum mismatch) and name it in its report.  On ThreadRuntime a
// BlockReadError from a demand read ends the run: it reaches the caller
// of run().  The simulated disk never reads a file; its faults are
// drawn by the fault plane and walk its own capped-backoff retry ladder
// (kDiskMaxRetries in sim_runtime.cpp).  Raw std::runtime_error from the
// I/O layer is reserved for genuinely unrecoverable states.

#include <stdexcept>
#include <string>

#include "core/block_decomposition.hpp"

namespace sf {

class BlockReadError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    kMissing,    // block file absent or unopenable
    kBadMagic,   // header magic mismatch (wrong or clobbered file)
    kTruncated,  // payload shorter than the header promises
    kCorrupt,    // payload checksum mismatch (silent bit-flip caught)
  };

  BlockReadError(Kind kind, BlockId block, const std::string& detail)
      : std::runtime_error(detail), kind_(kind), block_(block) {}

  Kind kind() const { return kind_; }
  BlockId block() const { return block_; }

 private:
  Kind kind_;
  BlockId block_;
};

const char* to_string(BlockReadError::Kind k);

}  // namespace sf
