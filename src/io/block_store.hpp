#pragma once

// On-disk block storage.
//
// The paper's datasets live on a parallel filesystem, pre-partitioned into
// blocks that are fetched one at a time.  BlockStore reproduces that
// contract: a directory with a manifest and one binary file per block,
// loaded independently.  The ThreadRuntime performs *real* reads through
// this store; the discrete-event runtime charges modelled I/O cost instead
// but can also be pointed at a store for end-to-end realism.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "core/dataset.hpp"

namespace sf {

class BlockStore {
 public:
  // Serialize `dataset` to `dir` (created if needed): a `manifest.txt`
  // plus `block_<id>.blk` files.  Existing files are overwritten.
  static void write(const std::filesystem::path& dir,
                    const BlockedDataset& dataset);

  // Open an existing store; throws on missing/corrupt manifest.
  explicit BlockStore(std::filesystem::path dir);

  const BlockDecomposition& decomposition() const {
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access): every ctor
    // either engages decomp_ or throws, so it is never nullopt here.
    return *decomp_;
  }
  int nodes_per_axis() const { return nodes_per_axis_; }
  int ghost_cells() const { return ghost_cells_; }
  int num_blocks() const {
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access): see above.
    return decomp_->num_blocks();
  }

  // Read one block from disk, straight into the grid's component arrays.
  // Checks the header against the manifest and the file size before
  // allocating, then verifies the payload checksum; throws a typed
  // BlockReadError (io/io_error.hpp) on a missing file, bad magic, a
  // header that disagrees with the manifest, truncation or checksum
  // mismatch, so a caller can tell a missing file from a damaged one.
  GridPtr load_block(BlockId id) const;

  // Size of the block file on disk.
  std::size_t block_file_bytes(BlockId id) const;

  std::filesystem::path block_path(BlockId id) const;

 private:
  std::filesystem::path dir_;
  std::optional<BlockDecomposition> decomp_;
  int nodes_per_axis_ = 0;
  int ghost_cells_ = 0;
};

// BlockSource over a BlockStore (real disk reads on every load, no
// process-level memoization — redundant loads really hit the disk, as in
// the Load On Demand discussion).
class DiskBlockSource final : public BlockSource {
 public:
  explicit DiskBlockSource(std::shared_ptr<const BlockStore> store,
                           std::size_t modelled_bytes = 0)
      : store_(std::move(store)), modelled_bytes_(modelled_bytes) {}

  GridPtr load(BlockId id) const override { return store_->load_block(id); }

  std::size_t block_bytes(BlockId id) const override {
    return modelled_bytes_ != 0 ? modelled_bytes_
                                : store_->block_file_bytes(id);
  }

  int num_blocks() const override { return store_->num_blocks(); }

 private:
  std::shared_ptr<const BlockStore> store_;
  std::size_t modelled_bytes_;
};

}  // namespace sf
