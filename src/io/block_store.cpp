#include "io/block_store.hpp"

#include <fstream>
#include <limits>
#include <span>
#include <stdexcept>

#include "io/checksum.hpp"
#include "io/io_error.hpp"

namespace sf {

namespace {

// v2 stores the payload as the grid's three SoA component arrays, x then
// y then z, under the word-parallel checksum; v1 files (AoS payload,
// bytewise FNV-1a) are rejected as bad magic.
constexpr char kMagic[8] = {'S', 'F', 'B', 'L', 'K', '0', '2', '\n'};

struct BlockHeader {
  char magic[8];
  double lo[3];
  double hi[3];
  std::int32_t nx, ny, nz;
  std::int32_t pad = 0;
  std::uint64_t payload_checksum;
};

// The three component arrays chained through the checksum seed, in file
// order, so a change in any one word of any array is detected.
std::uint64_t payload_checksum(const StructuredGrid& grid) {
  std::uint64_t h = 0;
  for (const std::span<const double> c : grid.components()) {
    h = checksum64(c.data(), c.size_bytes(), h);
  }
  return h;
}

}  // namespace

void BlockStore::write(const std::filesystem::path& dir,
                       const BlockedDataset& dataset) {
  std::filesystem::create_directories(dir);

  const BlockDecomposition& d = dataset.decomposition();
  {
    std::ofstream manifest(dir / "manifest.txt");
    if (!manifest) {
      throw std::runtime_error("BlockStore: cannot write manifest in " +
                               dir.string());
    }
    manifest.precision(17);
    manifest << "streamflow-block-store 1\n";
    manifest << "domain " << d.domain().lo.x << ' ' << d.domain().lo.y << ' '
             << d.domain().lo.z << ' ' << d.domain().hi.x << ' '
             << d.domain().hi.y << ' ' << d.domain().hi.z << '\n';
    manifest << "blocks " << d.nbx() << ' ' << d.nby() << ' ' << d.nbz()
             << '\n';
    manifest << "nodes_per_axis " << dataset.nodes_per_axis() << '\n';
    manifest << "ghost_cells " << dataset.ghost_cells() << '\n';
  }

  for (BlockId id = 0; id < d.num_blocks(); ++id) {
    const GridPtr grid = dataset.block(id);
    const AABB b = grid->bounds();

    BlockHeader h{};
    std::copy(std::begin(kMagic), std::end(kMagic), h.magic);
    h.lo[0] = b.lo.x;
    h.lo[1] = b.lo.y;
    h.lo[2] = b.lo.z;
    h.hi[0] = b.hi.x;
    h.hi[1] = b.hi.y;
    h.hi[2] = b.hi.z;
    h.nx = grid->nx();
    h.ny = grid->ny();
    h.nz = grid->nz();
    h.payload_checksum = payload_checksum(*grid);

    std::ofstream f(dir / ("block_" + std::to_string(id) + ".blk"),
                    std::ios::binary);
    if (!f) {
      throw std::runtime_error("BlockStore: cannot write block " +
                               std::to_string(id));
    }
    f.write(reinterpret_cast<const char*>(&h), sizeof(h));
    for (const std::span<const double> c : grid->components()) {
      f.write(reinterpret_cast<const char*>(c.data()),
              static_cast<std::streamsize>(c.size_bytes()));
    }
  }
}

BlockStore::BlockStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::ifstream manifest(dir_ / "manifest.txt");
  if (!manifest) {
    throw std::runtime_error("BlockStore: no manifest in " + dir_.string());
  }
  std::string line, key;
  std::getline(manifest, line);
  if (line != "streamflow-block-store 1") {
    throw std::runtime_error("BlockStore: bad manifest header: " + line);
  }
  Vec3 lo, hi;
  int nbx = 0, nby = 0, nbz = 0;
  while (manifest >> key) {
    if (key == "domain") {
      manifest >> lo.x >> lo.y >> lo.z >> hi.x >> hi.y >> hi.z;
    } else if (key == "blocks") {
      manifest >> nbx >> nby >> nbz;
    } else if (key == "nodes_per_axis") {
      manifest >> nodes_per_axis_;
    } else if (key == "ghost_cells") {
      manifest >> ghost_cells_;
    } else {
      std::getline(manifest, line);  // skip unknown keys
    }
  }
  if (nbx < 1 || nodes_per_axis_ < 2 || ghost_cells_ < 0) {
    throw std::runtime_error("BlockStore: manifest incomplete");
  }
  // A block's payload (n^3 nodes) must be addressable; load_block sizes
  // its reads from this.
  const std::uint64_t n = static_cast<std::uint64_t>(nodes_per_axis_) +
                          2 * static_cast<std::uint64_t>(ghost_cells_);
  const std::uint64_t max_nodes =
      (std::numeric_limits<std::uint64_t>::max() - sizeof(BlockHeader)) /
      sizeof(Vec3);
  if (n > max_nodes / n / n) {
    throw std::runtime_error("BlockStore: manifest block size overflows");
  }
  decomp_.emplace(AABB{lo, hi}, nbx, nby, nbz);
}

std::filesystem::path BlockStore::block_path(BlockId id) const {
  return dir_ / ("block_" + std::to_string(id) + ".blk");
}

GridPtr BlockStore::load_block(BlockId id) const {
  if (id < 0 || id >= num_blocks()) {
    throw std::out_of_range("BlockStore::load_block: bad id");
  }
  const std::filesystem::path path = block_path(id);
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw BlockReadError(BlockReadError::Kind::kMissing, id,
                         "BlockStore: missing block file " + path.string());
  }
  BlockHeader h{};
  f.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!f || !std::equal(std::begin(kMagic), std::end(kMagic), h.magic)) {
    throw BlockReadError(BlockReadError::Kind::kBadMagic, id,
                         "BlockStore: bad magic in " + path.string());
  }
  // The checksum does not cover the header: check its dims and bounds
  // against the manifest, and the file size against header plus payload,
  // before allocating anything.
  const int n = nodes_per_axis_ + 2 * ghost_cells_;
  const AABB bounds{{h.lo[0], h.lo[1], h.lo[2]}, {h.hi[0], h.hi[1], h.hi[2]}};
  if (h.nx != n || h.ny != n || h.nz != n ||
      bounds != decomp_->ghost_bounds(id, nodes_per_axis_, ghost_cells_)) {
    throw BlockReadError(BlockReadError::Kind::kCorrupt, id,
                         "BlockStore: header does not match the manifest in " +
                             path.string());
  }
  const std::uint64_t nodes = static_cast<std::uint64_t>(n) * n * n;
  const std::uint64_t expected = sizeof(h) + nodes * sizeof(Vec3);
  std::error_code ec;
  const std::uint64_t actual = std::filesystem::file_size(path, ec);
  if (ec || actual < expected) {
    throw BlockReadError(BlockReadError::Kind::kTruncated, id,
                         "BlockStore: truncated block " + path.string());
  }
  if (actual > expected) {
    throw BlockReadError(BlockReadError::Kind::kCorrupt, id,
                         "BlockStore: trailing bytes in " + path.string());
  }
  auto grid = std::make_shared<StructuredGrid>(bounds, n, n, n);
  for (const std::span<double> c : grid->components()) {
    f.read(reinterpret_cast<char*>(c.data()),
           static_cast<std::streamsize>(c.size_bytes()));
  }
  if (!f) {
    throw BlockReadError(BlockReadError::Kind::kTruncated, id,
                         "BlockStore: truncated block " + path.string());
  }
  if (payload_checksum(*grid) != h.payload_checksum) {
    throw BlockReadError(BlockReadError::Kind::kCorrupt, id,
                         "BlockStore: checksum mismatch in " + path.string());
  }
  return grid;
}

const char* to_string(BlockReadError::Kind k) {
  switch (k) {
    case BlockReadError::Kind::kMissing: return "missing";
    case BlockReadError::Kind::kBadMagic: return "bad-magic";
    case BlockReadError::Kind::kTruncated: return "truncated";
    case BlockReadError::Kind::kCorrupt: return "corrupt";
  }
  return "unknown";
}

std::size_t BlockStore::block_file_bytes(BlockId id) const {
  return static_cast<std::size_t>(std::filesystem::file_size(block_path(id)));
}

}  // namespace sf
