// Corrupted checkpoint files must be rejected by the payload checksum
// (io/checksum.hpp), or the structural checks around it, with a clear
// error — never deserialized into garbage particles.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fault/checkpoint.hpp"
#include "io/checkpoint_io.hpp"

namespace sf {
namespace {

namespace fs = std::filesystem;

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.sim_time = 12.5;
  ck.num_ranks = 3;
  for (std::uint32_t i = 0; i < 8; ++i) {
    Particle p;
    p.id = i;
    p.pos = {0.25 * i, 0.5, 0.75};
    p.time = 0.1 * i;
    p.h = 0.01;
    p.steps = 10 * i;
    p.geometry_points = i + 1;
    if (i < 3) {
      p.status = ParticleStatus::kMaxTime;
      ck.done.push_back(p);
    } else {
      ck.active.push_back(p);
      ck.active_owner.push_back(static_cast<int>(i) % 3);
    }
  }
  for (int r = 0; r < 3; ++r) {
    CheckpointRankState rs;
    rs.rank = r;
    rs.alive = r != 1;
    rs.resident = {r, r + 3};
    ck.ranks.push_back(rs);
  }
  return ck;
}

class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs the fixture's tests as separate
    // processes in parallel, and a shared directory lets one test's
    // TearDown remove another's checkpoint mid-read.
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("sf_ckpt_corruption_") + info->name());
    fs::create_directories(dir_);
    path_ = dir_ / "ck.bin";
    write_checkpoint(path_, sample_checkpoint());
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::vector<char> slurp() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  void dump(const std::vector<char>& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The error message read_checkpoint throws for the current file.
  std::string read_error() const {
    try {
      (void)read_checkpoint(path_);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    ADD_FAILURE() << "expected read_checkpoint to throw";
    return {};
  }

  fs::path dir_;
  fs::path path_;
};

TEST_F(CheckpointCorruptionTest, RoundTripBaseline) {
  const Checkpoint ck = read_checkpoint(path_);
  EXPECT_EQ(ck.sim_time, 12.5);
  EXPECT_EQ(ck.num_ranks, 3);
  EXPECT_EQ(ck.done.size(), 3u);
  EXPECT_EQ(ck.active.size(), 5u);
  EXPECT_EQ(ck.ranks.size(), 3u);
}

// The checkpoint-write cost model charges exactly the bytes on disk.
TEST_F(CheckpointCorruptionTest, ModelledSizeIsTheFileSize) {
  EXPECT_EQ(checkpoint_bytes(sample_checkpoint()), fs::file_size(path_));
}

TEST_F(CheckpointCorruptionTest, TruncatedPayloadRejected) {
  std::vector<char> bytes = slurp();
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() - 33);  // chop the tail off the payload
  dump(bytes);
  const std::string err = read_error();
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST_F(CheckpointCorruptionTest, TruncatedHeaderRejected) {
  std::vector<char> bytes = slurp();
  bytes.resize(12);  // not even a full header survives
  dump(bytes);
  // A half-header reads as a failed/bad magic; either way it must be a
  // clear checkpoint error, not garbage data.
  const std::string err = read_error();
  EXPECT_NE(err.find("checkpoint:"), std::string::npos) << err;
}

TEST_F(CheckpointCorruptionTest, BitFlippedPayloadRejected) {
  // Flip a single bit in every byte position across the payload region,
  // one file at a time, and require the checksum to catch each one.
  const std::vector<char> pristine = slurp();
  ASSERT_GT(pristine.size(), 64u);
  // Header = 8-byte magic + sizes/checksum; flip well inside the payload.
  for (std::size_t pos = 32; pos < pristine.size(); pos += 97) {
    std::vector<char> bytes = pristine;
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
    dump(bytes);
    const std::string err = read_error();
    EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
        << "flip at byte " << pos << ": " << err;
  }
}

TEST_F(CheckpointCorruptionTest, BitFlippedMagicRejected) {
  std::vector<char> bytes = slurp();
  bytes[0] = static_cast<char>(bytes[0] ^ 0x01);
  dump(bytes);
  const std::string err = read_error();
  EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
}

TEST_F(CheckpointCorruptionTest, OlderFormatVersionRejected) {
  // An SFCKPT3 file (bytewise FNV-1a checksum) gets the version error,
  // not a checksum mismatch.
  std::vector<char> bytes = slurp();
  ASSERT_EQ(bytes[6], '4');
  bytes[6] = '3';
  dump(bytes);
  const std::string err = read_error();
  EXPECT_NE(err.find("unsupported format version"), std::string::npos)
      << err;
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageRejected) {
  std::vector<char> bytes = slurp();
  bytes.push_back('\0');
  bytes.push_back('!');
  dump(bytes);
  const std::string err = read_error();
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST_F(CheckpointCorruptionTest, MissingFileRejected) {
  fs::remove(path_);
  EXPECT_THROW((void)read_checkpoint(path_), std::runtime_error);
}

}  // namespace
}  // namespace sf
