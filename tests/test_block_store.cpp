#include "io/block_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "core/analytic_fields.hpp"
#include "io/checksum.hpp"
#include "io/io_error.hpp"

namespace sf {
namespace {

namespace fs = std::filesystem;

class BlockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sf_store_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  DatasetPtr make_dataset() {
    auto field = std::make_shared<ABCField>();
    const BlockDecomposition decomp(field->bounds(), 2, 2, 2);
    return std::make_shared<BlockedDataset>(field, decomp, 5, 1);
  }

  fs::path dir_;
};

// Block file layout (DESIGN.md §16): an 80-byte header (8-byte magic,
// lo[3], hi[3], nx, ny, nz, pad, checksum), then the x, y and z
// component arrays.
constexpr std::streamoff kMagicVersionByte = 6;
constexpr std::streamoff kNxOffset = 8 + 24 + 24;
constexpr std::streamoff kHeaderBytes = 80;

void overwrite(const fs::path& file, std::streamoff at, const void* bytes,
               std::size_t n) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(at);
  f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
}

void flip_bit(const fs::path& file, std::streamoff at, int bit) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(at);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ (1 << bit));
  f.seekp(at);
  f.write(&c, 1);
}

// The kind of BlockReadError load_block throws for `id`, nullopt if it
// does not throw.
std::optional<BlockReadError::Kind> load_error(const BlockStore& store,
                                               BlockId id) {
  try {
    (void)store.load_block(id);
  } catch (const BlockReadError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "expected load_block(" << id << ") to throw";
  return std::nullopt;
}

// A checksum chained over three arrays, as BlockStore checksums the x,
// y and z component arrays.
std::uint64_t chained(const std::vector<std::vector<std::uint64_t>>& arrays) {
  std::uint64_t h = 0;
  for (const auto& a : arrays) h = checksum64(a.data(), a.size() * 8, h);
  return h;
}

TEST(Checksum, EverySingleBitFlipInEveryWordIsDetected) {
  // 37 words per array: nine full 4-lane stripes plus one tail word.
  std::vector<std::vector<std::uint64_t>> arrays(
      3, std::vector<std::uint64_t>(37));
  std::uint64_t v = 0x0123456789abcdefULL;
  for (auto& a : arrays) {
    for (std::uint64_t& w : a) w = (v = v * 6364136223846793005ULL + 1);
  }
  const std::uint64_t clean = chained(arrays);
  for (auto& a : arrays) {
    for (std::uint64_t& w : a) {
      for (int bit = 0; bit < 64; ++bit) {
        w ^= std::uint64_t{1} << bit;
        EXPECT_NE(chained(arrays), clean) << "bit " << bit;
        w ^= std::uint64_t{1} << bit;
      }
    }
  }
  EXPECT_EQ(chained(arrays), clean);
}

TEST(Checksum, EverySingleBitFlipInTheByteTailIsDetected) {
  std::vector<unsigned char> buf(8 * 9 + 7);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  const std::uint64_t clean = checksum64(buf.data(), buf.size());
  for (std::size_t i = 8 * 9; i < buf.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[i] = static_cast<unsigned char>(buf[i] ^ (1u << bit));
      EXPECT_NE(checksum64(buf.data(), buf.size()), clean)
          << "byte " << i << " bit " << bit;
      buf[i] = static_cast<unsigned char>(buf[i] ^ (1u << bit));
    }
  }
  // The length is covered too: a zero byte appended is a change.
  buf.push_back(0);
  EXPECT_NE(checksum64(buf.data(), buf.size()), clean);
}

TEST(Checksum, BitSixtyThreeFlipsInTwoWordsOfOneLaneAreDetected) {
  // Without the rotate, a bit-63 difference survives the lane's
  // multiply unchanged and a second one in the same lane cancels it.
  std::vector<std::uint64_t> words(64);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i * 0x9e37u;
  const std::uint64_t clean = checksum64(words.data(), words.size() * 8);
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  for (std::size_t i = 0; i < words.size(); ++i) {
    for (std::size_t j = i + 4; j < words.size(); j += 4) {  // same lane
      words[i] ^= kTop;
      words[j] ^= kTop;
      EXPECT_NE(checksum64(words.data(), words.size() * 8), clean)
          << "words " << i << " and " << j;
      words[i] ^= kTop;
      words[j] ^= kTop;
    }
  }
}

TEST_F(BlockStoreTest, RoundTripPreservesEverything) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);

  const BlockStore store(dir_);
  EXPECT_EQ(store.num_blocks(), 8);
  EXPECT_EQ(store.nodes_per_axis(), 5);
  EXPECT_EQ(store.ghost_cells(), 1);
  EXPECT_EQ(store.decomposition().nbx(), 2);

  for (BlockId id = 0; id < 8; ++id) {
    const GridPtr original = ds->block(id);
    const GridPtr loaded = store.load_block(id);
    ASSERT_EQ(loaded->num_nodes(), original->num_nodes());
    EXPECT_EQ(loaded->bounds(), original->bounds());
    EXPECT_EQ(loaded->data(), original->data());
  }
}

TEST_F(BlockStoreTest, MissingManifestThrows) {
  EXPECT_THROW(BlockStore(dir_ / "nope"), std::runtime_error);
}

TEST_F(BlockStoreTest, BadBlockIdThrows) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  EXPECT_THROW(store.load_block(-1), std::out_of_range);
  EXPECT_THROW(store.load_block(8), std::out_of_range);
}

TEST_F(BlockStoreTest, CorruptionIsDetected) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  // Flip a payload byte in block 3.
  const fs::path victim = store.block_path(3);
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-8, std::ios::end);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  EXPECT_THROW(store.load_block(3), std::runtime_error);
  // Other blocks stay readable.
  EXPECT_NO_THROW(store.load_block(2));
}

TEST_F(BlockStoreTest, TruncationIsDetected) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  const fs::path victim = store.block_path(1);
  fs::resize_file(victim, fs::file_size(victim) / 2);
  EXPECT_THROW(store.load_block(1), std::runtime_error);
}

TEST_F(BlockStoreTest, PayloadIsTheComponentArraysInOrder) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);
  const BlockStore store(dir_);
  const GridPtr grid = ds->block(5);
  std::ifstream f(store.block_path(5), std::ios::binary);
  f.seekg(kHeaderBytes);
  for (const std::span<const double> c : grid->components()) {
    std::vector<double> on_disk(c.size());
    f.read(reinterpret_cast<char*>(on_disk.data()),
           static_cast<std::streamsize>(c.size_bytes()));
    ASSERT_TRUE(f);
    EXPECT_EQ(0, std::memcmp(on_disk.data(), c.data(), c.size_bytes()));
  }
  EXPECT_EQ(f.peek(), std::ifstream::traits_type::eof());
}

TEST_F(BlockStoreTest, BitFlipInAComponentArrayIsCorrupt) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);
  const BlockStore store(dir_);
  // Bit 63 (the sign) of a word in the middle of the y array.
  const auto n = static_cast<std::streamoff>(ds->block(3)->num_nodes());
  flip_bit(store.block_path(3), kHeaderBytes + 8 * (n + n / 2) + 7, 7);
  EXPECT_EQ(load_error(store, 3), BlockReadError::Kind::kCorrupt);
  EXPECT_NO_THROW(store.load_block(2));
}

TEST_F(BlockStoreTest, VersionOneFileIsBadMagic) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  const char v1 = '1';
  overwrite(store.block_path(4), kMagicVersionByte, &v1, 1);
  EXPECT_EQ(load_error(store, 4), BlockReadError::Kind::kBadMagic);
}

TEST_F(BlockStoreTest, HeaderDimsThatDisagreeWithTheManifestAreCorrupt) {
  // The dims size the reads and are not under the checksum: a huge one
  // must not reach an allocation, a tiny one not the grid constructor.
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  for (const std::int32_t nx : {std::int32_t{1} << 20, std::int32_t{1}}) {
    overwrite(store.block_path(6), kNxOffset, &nx, sizeof(nx));
    EXPECT_EQ(load_error(store, 6), BlockReadError::Kind::kCorrupt) << nx;
  }
}

TEST_F(BlockStoreTest, HeaderBoundsThatDisagreeWithTheManifestAreCorrupt) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  const double hi_x = -1.0;  // lo.x > hi.x: not a box at all
  overwrite(store.block_path(0), 8 + 24, &hi_x, sizeof(hi_x));
  EXPECT_EQ(load_error(store, 0), BlockReadError::Kind::kCorrupt);
}

TEST_F(BlockStoreTest, FileSizeIsCheckedAgainstTheHeader) {
  BlockStore::write(dir_, *make_dataset());
  const BlockStore store(dir_);
  const std::uintmax_t size = fs::file_size(store.block_path(1));
  fs::resize_file(store.block_path(1), size - 1);
  EXPECT_EQ(load_error(store, 1), BlockReadError::Kind::kTruncated);
  fs::resize_file(store.block_path(2), size + 8);
  EXPECT_EQ(load_error(store, 2), BlockReadError::Kind::kCorrupt);
}

TEST_F(BlockStoreTest, FileBytesAreHeaderPlusPayload) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);
  const BlockStore store(dir_);
  EXPECT_GT(store.block_file_bytes(0), ds->block_payload_bytes());
  EXPECT_LT(store.block_file_bytes(0), ds->block_payload_bytes() + 256);
}

TEST_F(BlockStoreTest, DiskBlockSourceLoadsFreshCopies) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);
  auto store = std::make_shared<BlockStore>(dir_);
  const DiskBlockSource source(store);
  EXPECT_EQ(source.num_blocks(), 8);
  // Every load is a real read: distinct objects (no hidden memoization,
  // redundant I/O really happens — the Load On Demand cost).
  EXPECT_NE(source.load(0).get(), source.load(0).get());
  EXPECT_EQ(source.load(0)->data(), ds->block(0)->data());
  EXPECT_EQ(source.block_bytes(0), store->block_file_bytes(0));

  const DiskBlockSource modelled(store, 1 << 20);
  EXPECT_EQ(modelled.block_bytes(5), 1u << 20);
}

TEST_F(BlockStoreTest, RewriteOverwritesCleanly) {
  auto ds = make_dataset();
  BlockStore::write(dir_, *ds);
  BlockStore::write(dir_, *ds);  // second write over the same directory
  const BlockStore store(dir_);
  EXPECT_NO_THROW(store.load_block(7));
}

}  // namespace
}  // namespace sf
