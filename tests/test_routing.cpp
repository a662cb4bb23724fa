#include "algorithms/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "core/analytic_fields.hpp"
#include "core/rng.hpp"

namespace sf {
namespace {

Particle particle(std::uint32_t id, std::uint32_t geometry = 1) {
  Particle p;
  p.id = id;
  p.geometry_points = geometry;
  return p;
}

TEST(ParticlePool, AddTakeCounts) {
  ParticlePool pool;
  EXPECT_TRUE(pool.empty());
  pool.add(3, particle(0));
  pool.add(3, particle(1));
  pool.add(7, particle(2));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.count_in(3), 2u);
  EXPECT_EQ(pool.count_in(7), 1u);
  EXPECT_EQ(pool.count_in(99), 0u);

  const auto p = pool.take_from(3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 0u);  // FIFO within a block
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.take_from(42).has_value());
}

TEST(ParticlePool, TakeDrainsBlockEntry) {
  ParticlePool pool;
  pool.add(5, particle(0));
  ASSERT_TRUE(pool.take_from(5).has_value());
  EXPECT_FALSE(pool.take_from(5).has_value());
  EXPECT_TRUE(pool.empty());
  EXPECT_TRUE(pool.census().empty());
}

TEST(ParticlePool, DensestBlockBreaksTiesLow) {
  ParticlePool pool;
  EXPECT_EQ(pool.densest_block(), kInvalidBlock);
  pool.add(9, particle(0));
  pool.add(2, particle(1));
  pool.add(2, particle(2));
  pool.add(5, particle(3));
  pool.add(5, particle(4));
  EXPECT_EQ(pool.densest_block(), 2);
}

TEST(ParticlePool, CensusIsSortedByBlock) {
  ParticlePool pool;
  pool.add(9, particle(0));
  pool.add(1, particle(1));
  pool.add(9, particle(2));
  const auto census = pool.census();
  ASSERT_EQ(census.size(), 2u);
  EXPECT_EQ(census[0], (std::pair<BlockId, std::uint32_t>{1, 1}));
  EXPECT_EQ(census[1], (std::pair<BlockId, std::uint32_t>{9, 2}));
}

TEST(ParticlePool, DrainBlockRemovesAll) {
  ParticlePool pool;
  for (std::uint32_t i = 0; i < 5; ++i) pool.add(4, particle(i));
  pool.add(6, particle(99));
  const auto drained = pool.drain_block(4);
  EXPECT_EQ(drained.size(), 5u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool.drain_block(4).empty());
}

TEST(ParticlePool, FirstBlockWhereRespectsPredicate) {
  ParticlePool pool;
  pool.add(2, particle(0));
  pool.add(5, particle(1));
  EXPECT_EQ(pool.first_block_where([](BlockId b) { return b == 5; }), 5);
  EXPECT_EQ(pool.first_block_where([](BlockId) { return true; }), 2);
  EXPECT_EQ(pool.first_block_where([](BlockId) { return false; }),
            kInvalidBlock);
}

TEST(ResidentBytes, OverheadPlusGeometry) {
  MachineModel m;
  m.particle_overhead_bytes = 1000;
  EXPECT_EQ(resident_particle_bytes(particle(0, 1), m),
            1000 + sizeof(Vec3));
  EXPECT_EQ(resident_particle_bytes(particle(0, 100), m),
            1000 + 100 * sizeof(Vec3));
}

TEST(MakeParticles, SplitsValidAndRejected) {
  const BlockDecomposition decomp({{0, 0, 0}, {1, 1, 1}}, 2, 2, 2);
  const std::vector<Vec3> seeds{
      {0.5, 0.5, 0.5}, {2, 2, 2}, {0.1, 0.1, 0.1}, {-1, 0, 0}};
  std::vector<Particle> rejected;
  const auto valid = make_particles(decomp, seeds, rejected);
  ASSERT_EQ(valid.size(), 2u);
  ASSERT_EQ(rejected.size(), 2u);
  // Ids are seed indices, preserved across the split.
  EXPECT_EQ(valid[0].id, 0u);
  EXPECT_EQ(valid[1].id, 2u);
  EXPECT_EQ(rejected[0].id, 1u);
  EXPECT_EQ(rejected[1].id, 3u);
  for (const Particle& p : rejected) {
    EXPECT_EQ(p.status, ParticleStatus::kExitedDomain);
  }
  for (const Particle& p : valid) {
    EXPECT_EQ(p.status, ParticleStatus::kActive);
  }
}

TEST(SplitEvenly, DealsEqualContiguousChunks) {
  std::vector<Particle> ps(10);
  for (int i = 0; i < 10; ++i) ps[static_cast<std::size_t>(i)].id = i;
  const auto parts = split_evenly(3, std::move(ps));
  ASSERT_EQ(parts.size(), 3u);
  // Balanced contiguous split of 10 over 3: 3 + 3 + 4.
  EXPECT_EQ(parts[0].size(), 3u);
  EXPECT_EQ(parts[1].size(), 3u);
  EXPECT_EQ(parts[2].size(), 4u);
}

TEST(TerminationBoard, MergeReportsOnlyARise) {
  TerminationBoard board;
  EXPECT_TRUE(board.merge(2, 5));
  EXPECT_TRUE(board.merge(0, 3));
  EXPECT_EQ(board.sum(), 8u);
  EXPECT_FALSE(board.merge(2, 5));  // duplicate
  EXPECT_FALSE(board.merge(2, 4));  // stale (lower)
  EXPECT_FALSE(board.merge(1, 0));  // zero
  EXPECT_EQ(board.sum(), 8u);
  EXPECT_EQ(board.totals().count(1), 0u);  // a zero report adds no entry
  EXPECT_TRUE(board.merge(2, 7));
  EXPECT_EQ(board.sum(), 10u);
}

TEST(TerminationBoard, ReorderedReportsReachTheSameBoard) {
  const std::vector<std::pair<int, std::uint32_t>> reports{
      {0, 1}, {1, 4}, {0, 3}, {2, 2}, {1, 6}, {2, 2}};
  TerminationBoard in_order;
  TerminationBoard reversed;
  for (const auto& [rank, total] : reports) in_order.merge(rank, total);
  for (auto it = reports.rbegin(); it != reports.rend(); ++it) {
    reversed.merge(it->first, it->second);
  }
  EXPECT_EQ(in_order.sum(), 11u);
  EXPECT_EQ(reversed.sum(), 11u);
  EXPECT_EQ(in_order.totals(), reversed.totals());
}

using Report = std::vector<std::pair<int, std::uint32_t>>;

std::uint64_t sum_of(const std::map<int, std::uint32_t>& totals) {
  std::uint64_t n = 0;
  for (const auto& [rank, total] : totals) n += total;
  return n;
}

// Apply one report: a single entry through merge(rank, total), anything
// longer through the whole-board merge.
bool apply(TerminationBoard& board, const Report& report) {
  if (report.size() == 1) {
    return board.merge(report[0].first, report[0].second);
  }
  return board.merge(report);
}

// Thousands of random reports as the coordinators see them: single
// entries and whole boards (sorted by rank like a published board, or
// not), from ranks up to 16K, carrying rising, duplicated, stale and zero
// totals.
std::vector<Report> random_reports(Rng& rng) {
  constexpr int kRanks = 16384;
  std::vector<std::uint32_t> truth(kRanks, 0);  // each rank's real total
  std::vector<Report> reports;
  for (int i = 0; i < 2000; ++i) {
    Report report;
    const bool board = rng.next_below(3) == 0;
    const int first = static_cast<int>(rng.next_below(kRanks));
    const int len = board ? 1 + static_cast<int>(rng.next_below(64)) : 1;
    for (int k = 0; k < len; ++k) {
      // Boards cover a run of nearby ranks, with gaps, like a subtree.
      const int offset = k * (1 + static_cast<int>(rng.next_below(3)));
      const int rank = (first + offset) % kRanks;
      std::uint32_t& real = truth[static_cast<std::size_t>(rank)];
      std::uint32_t total = 0;
      switch (rng.next_below(4)) {
        case 0:  // rising
          real += 1 + static_cast<std::uint32_t>(rng.next_below(50));
          total = real;
          break;
        case 1:  // duplicate
          total = real;
          break;
        case 2:  // stale
          total = static_cast<std::uint32_t>(rng.next_below(real + 1));
          break;
        default:  // zero
          break;
      }
      report.emplace_back(rank, total);
    }
    if (board && rng.next_below(2) == 0) {
      std::sort(report.begin(), report.end());
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

TEST(TerminationBoard, RandomReportsKeepTheSumAndTheMaximum) {
  Rng rng(2009);
  const std::vector<Report> reports = random_reports(rng);
  TerminationBoard board;
  std::map<int, std::uint32_t> expected;  // max-merge, done by hand
  for (const Report& report : reports) {
    bool should_rise = false;
    for (const auto& [rank, total] : report) {
      if (total == 0) continue;
      std::uint32_t& e = expected[rank];
      if (total > e) {
        e = total;
        should_rise = true;
      }
    }
    ASSERT_EQ(apply(board, report), should_rise);
    ASSERT_EQ(board.sum(), sum_of(board.totals()));
  }
  EXPECT_EQ(board.totals(), expected);
  EXPECT_GT(board.totals().size(), 2000u);

  // Any order of the same reports reaches the same board.
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::size_t> order(reports.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    TerminationBoard shuffled;
    for (const std::size_t i : order) {
      apply(shuffled, reports[i]);
      ASSERT_EQ(shuffled.sum(), sum_of(shuffled.totals()));
    }
    EXPECT_EQ(shuffled.totals(), board.totals()) << "trial " << trial;
    EXPECT_EQ(shuffled.sum(), board.sum()) << "trial " << trial;
  }
}

TEST(TerminationBoard, BoardMergeEqualsEntryByEntryMerge) {
  // A published board merged whole lands where its entries merged one at
  // a time land, including entries the receiving board lacks and ranks
  // it has that the report skips.
  TerminationBoard whole;
  TerminationBoard single;
  for (const auto& [rank, total] : Report{{1, 5}, {4, 2}, {9, 7}}) {
    whole.merge(rank, total);
    single.merge(rank, total);
  }
  const Report board{{0, 3}, {1, 4}, {2, 6}, {4, 9}, {5, 0}, {12, 1}};
  EXPECT_TRUE(whole.merge(board));
  for (const auto& [rank, total] : board) single.merge(rank, total);
  EXPECT_EQ(whole.totals(), single.totals());
  EXPECT_EQ(whole.sum(), 3u + 5u + 6u + 9u + 7u + 1u);
  EXPECT_FALSE(whole.merge(board));  // a re-report raises nothing
}

}  // namespace
}  // namespace sf
