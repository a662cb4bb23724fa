#pragma once

// Typed block-read errors (DESIGN.md §16).
//
// Every failure mode of a BlockStore read carries a machine-readable
// kind, so the retry machinery can tell recoverable faults (a corrupted
// payload that a re-read may fix, an injected transient fault) from
// structural ones (a block file that simply is not there).  The async
// loader and the simulated disk route recoverable kinds through the
// capped-backoff retry ladder and escalate to the rank-crash recovery
// path only after their retry limit (kDiskMaxRetries on the simulated
// disk); raw std::runtime_error from the I/O layer is reserved for
// genuinely unrecoverable states.

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
    kInjected,   // injected transient fault (tests / fault hooks)
  };

  BlockReadError(Kind kind, BlockId block, const std::string& detail)
      : std::runtime_error(detail), kind_(kind), block_(block) {}

  Kind kind() const { return kind_; }
  BlockId block() const { return block_; }

  // A retry may succeed: the bytes on disk are (believed) good and the
  // failure happened on the way in.  Missing/short files will not grow
  // back, but a bad header could be a torn read too — everything except
  // kMissing is worth the retry ladder.
  bool recoverable() const { return kind_ != Kind::kMissing; }

 private:
  Kind kind_;
  BlockId block_;
};

const char* to_string(BlockReadError::Kind k);

}  // namespace sf
