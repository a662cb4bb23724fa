#include "algorithms/hybrid.hpp"

#include <gtest/gtest.h>

#include "algorithms/driver.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

using sf::testing::test_config;

TEST(HybridLayout, MastersPerW) {
  const HybridLayout l = HybridLayout::make(33, 32);
  EXPECT_EQ(l.num_masters, 1);
  EXPECT_EQ(l.num_slaves(), 32);

  const HybridLayout big = HybridLayout::make(66, 32);
  EXPECT_EQ(big.num_masters, 2);
  EXPECT_EQ(big.num_slaves(), 64);

  // Even tiny allocations keep at least one master and one slave.
  const HybridLayout tiny = HybridLayout::make(2, 32);
  EXPECT_EQ(tiny.num_masters, 1);
  EXPECT_EQ(tiny.num_slaves(), 1);
}

TEST(HybridLayout, SlaveGroupsPartition) {
  const HybridLayout l = HybridLayout::make(40, 8);
  int covered = 0;
  for (int m = 0; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    EXPECT_GE(first, l.num_masters);
    EXPECT_LE(last, l.num_ranks);
    for (int s = first; s < last; ++s) {
      EXPECT_EQ(l.master_of(s), m);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_slaves());
}

TEST(HybridLayout, Validation) {
  EXPECT_THROW(HybridLayout::make(1, 32), std::invalid_argument);
  EXPECT_THROW(HybridLayout::make(8, 0), std::invalid_argument);
}

TEST(HybridLayout, NonDivisibleGroupsDifferByAtMostOne) {
  // 23 ranks at W=4: 4 masters, 19 slaves — groups of 4 or 5, never
  // worse, and the contiguous split covers every slave exactly once.
  const HybridLayout l = HybridLayout::make(23, 4);
  ASSERT_EQ(l.num_masters, 4);
  for (int m = 0; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    EXPECT_GE(last - first, 4) << "master " << m;
    EXPECT_LE(last - first, 5) << "master " << m;
  }
}

TEST(HybridLayout, ClampsMastersForExtremeW) {
  // W far beyond the rank count still yields one master, one+ slaves.
  const HybridLayout wide = HybridLayout::make(3, 1000);
  EXPECT_EQ(wide.num_masters, 1);
  EXPECT_EQ(wide.num_slaves(), 2);
  // W = 1 wants a master per slave; the clamp keeps at least one slave.
  const HybridLayout narrow = HybridLayout::make(2, 1);
  EXPECT_EQ(narrow.num_masters, 1);
  EXPECT_EQ(narrow.num_slaves(), 1);
}

TEST(HybridLayout, FlatWhenFanoutNotExceeded) {
  // 40 ranks at W=8 is 4 masters; a fanout of 100 never engages the tree
  // and the layout is field-for-field the two-arg (flat) one.
  const HybridLayout l = HybridLayout::make(40, 8, 100);
  const HybridLayout flat = HybridLayout::make(40, 8);
  EXPECT_EQ(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, flat.num_masters);
  for (int s = l.num_masters; s < l.num_ranks; ++s) {
    EXPECT_EQ(l.master_of(s), flat.master_of(s));
  }
}

TEST(HybridLayout, DefaultFanoutKeepsPaperScalesFlat) {
  // The <= 512-rank bit-identity contract is structural: at the default
  // W=32 / fanout=32 the root tier only appears past ~1K ranks.
  for (const int ranks : {64, 128, 512, 1056}) {
    EXPECT_EQ(HybridLayout::make(ranks, 32, 32).num_roots, 0) << ranks;
  }
  EXPECT_GT(HybridLayout::make(2048, 32, 32).num_roots, 0);
  EXPECT_GT(HybridLayout::make(16384, 32, 32).num_roots, 0);
}

TEST(HybridLayout, TreeTierPartitionsAndInverts) {
  const HybridLayout l = HybridLayout::make(4096, 32, 32);
  ASSERT_GT(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, l.num_roots + l.num_leaves());
  // Roots own no slave group.
  for (int r = 0; r < l.num_roots; ++r) {
    const auto [first, last] = l.slaves_of(r);
    EXPECT_EQ(first, last) << "root " << r;
  }
  // leaves_of partitions the leaf tier; root_of inverts it; no subtree
  // exceeds the fanout.
  int covered = 0;
  for (int r = 0; r < l.num_roots; ++r) {
    const auto [first, last] = l.leaves_of(r);
    EXPECT_GE(first, l.num_roots);
    EXPECT_LE(last, l.num_masters);
    EXPECT_LE(last - first, 32) << "root " << r;
    for (int m = first; m < last; ++m) {
      EXPECT_EQ(l.root_of(m), r);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_leaves());
  // Slaves map to leaf masters only, covering every slave exactly once.
  covered = 0;
  for (int m = l.num_roots; m < l.num_masters; ++m) {
    const auto [first, last] = l.slaves_of(m);
    for (int s = first; s < last; ++s) {
      EXPECT_EQ(l.master_of(s), m);
      ++covered;
    }
  }
  EXPECT_EQ(covered, l.num_slaves());
}

TEST(HybridLayout, TreeStaysFlatWhenRootsWouldStarveSlaves) {
  // 4 ranks at W=1 is 2 flat masters; fanout 1 would want 2 roots, which
  // leaves no slaves at all — the tree must decline and stay flat.
  const HybridLayout l = HybridLayout::make(4, 1, 1);
  EXPECT_EQ(l.num_roots, 0);
  EXPECT_EQ(l.num_masters, 2);
  EXPECT_EQ(l.num_slaves(), 2);
}

TEST(Hybrid, AllParticlesTerminate) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(7);
  const auto seeds = random_seeds(w.dataset->bounds(), 50, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), seeds.size());
  for (const Particle& p : m.particles) EXPECT_TRUE(is_terminal(p.status));
}

TEST(Hybrid, MastersDoNotCompute) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(9);
  const auto seeds = random_seeds(w.dataset->bounds(), 30, rng);
  auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const HybridLayout layout =
      HybridLayout::make(6, cfg.hybrid.slaves_per_master);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  for (int r = 0; r < layout.num_masters; ++r) {
    EXPECT_EQ(m.ranks[static_cast<std::size_t>(r)].steps, 0u);
    EXPECT_EQ(m.ranks[static_cast<std::size_t>(r)].blocks_loaded, 0u);
  }
  // Masters do communicate.
  EXPECT_GT(m.ranks[0].messages_sent, 0u);
}

TEST(Hybrid, WorkSpreadsAcrossSlaves) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(13);
  const auto seeds = random_seeds(w.dataset->bounds(), 80, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 6);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  int slaves_used = 0;
  for (std::size_t r = 1; r < m.ranks.size(); ++r) {
    if (m.ranks[r].steps > 0) ++slaves_used;
  }
  EXPECT_GE(slaves_used, 3);
}

TEST(Hybrid, DenseClusterDoesNotOomWhereStaticDoes) {
  // The headline adaptive behaviour: the same configuration that kills
  // Static Allocation (dense seeds on one owner) completes under the
  // hybrid because the master doles work out in batches of N.
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds =
      cluster_seeds({1.0, 1.0, 1.0}, 0.05, 400, rng, w.dataset->bounds());

  auto cfg = test_config(Algorithm::kStaticAllocation, 6);
  cfg.runtime.model.particle_memory_bytes = 64 << 10;
  const RunMetrics st = run_experiment(cfg, w.decomp(), *w.source, seeds);
  EXPECT_TRUE(st.failed_oom);

  cfg.algorithm = Algorithm::kHybridMasterSlave;
  // Masters hold the full seed pool; give them room for the pool itself
  // but far less than static's per-rank blow-up needed.
  cfg.runtime.model.particle_memory_bytes = 2u << 20;
  const RunMetrics hy = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(hy.failed_oom);
  EXPECT_EQ(hy.particles.size(), seeds.size());
}

TEST(Hybrid, MultipleMastersBalanceSeeds) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(21);
  const auto seeds = random_seeds(w.dataset->bounds(), 60, rng);
  auto cfg = test_config(Algorithm::kHybridMasterSlave, 10);
  cfg.hybrid.slaves_per_master = 4;  // forces 2 masters
  const HybridLayout layout = HybridLayout::make(10, 4);
  ASSERT_EQ(layout.num_masters, 2);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  EXPECT_EQ(m.particles.size(), seeds.size());
}

TEST(Hybrid, AssignBatchSizeIsBehaviorPreserving) {
  // N changes scheduling granularity only: any batch size yields the
  // same terminated streamlines, bit for bit.
  auto w = sf::testing::rotor_world(2);
  Rng rng(31);
  const auto seeds = random_seeds(w.dataset->bounds(), 100, rng);

  std::vector<Particle> reference;
  for (const int n : {1, 10, 50}) {
    auto cfg = test_config(Algorithm::kHybridMasterSlave, 4);
    cfg.hybrid.assign_batch = n;
    const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
    ASSERT_FALSE(m.failed_oom);
    ASSERT_EQ(m.particles.size(), seeds.size()) << "N=" << n;
    if (reference.empty()) {
      reference = m.particles;
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].steps, m.particles[i].steps) << "N=" << n;
      EXPECT_EQ(reference[i].pos.x, m.particles[i].pos.x) << "N=" << n;
    }
  }
}

TEST(Hybrid, TreeLayoutIsBehaviorPreserving) {
  // The master tree moves coordination traffic, never integration work:
  // a run with a root tier terminates the same streamlines, bit for
  // bit, as the flat layout at the same rank count.  13 ranks at W=2 /
  // fanout=2 gives roots {0, 1}, leaf masters {2..5}, slaves {6..12}.
  auto w = sf::testing::rotor_world(2);
  Rng rng(53);
  const auto seeds = random_seeds(w.dataset->bounds(), 60, rng);

  auto flat_cfg = test_config(Algorithm::kHybridMasterSlave, 13);
  flat_cfg.hybrid.slaves_per_master = 2;
  flat_cfg.hybrid.root_fanout = 0;  // force flat
  const RunMetrics flat = run_experiment(flat_cfg, w.decomp(), *w.source,
                                         seeds);
  ASSERT_FALSE(flat.failed_oom);
  ASSERT_EQ(flat.particles.size(), seeds.size());

  auto tree_cfg = flat_cfg;
  tree_cfg.hybrid.root_fanout = 2;
  ASSERT_EQ(HybridLayout::make(13, 2, 2).num_roots, 2);
  const RunMetrics tree = run_experiment(tree_cfg, w.decomp(), *w.source,
                                         seeds);
  ASSERT_FALSE(tree.failed_oom);
  ASSERT_EQ(tree.particles.size(), seeds.size());

  for (std::size_t i = 0; i < flat.particles.size(); ++i) {
    EXPECT_EQ(flat.particles[i].id, tree.particles[i].id) << "i=" << i;
    EXPECT_EQ(flat.particles[i].steps, tree.particles[i].steps) << "i=" << i;
    EXPECT_EQ(flat.particles[i].pos.x, tree.particles[i].pos.x) << "i=" << i;
  }
  // Roots coordinate; they never integrate a streamline themselves.
  EXPECT_EQ(tree.ranks[0].steps, 0u);
  EXPECT_EQ(tree.ranks[1].steps, 0u);
}

TEST(Hybrid, TreeLayoutModelledOutputIsPinned) {
  // Golden: the hybrid's modelled output on a tree layout, pinned to the
  // exact values so a change to the coordinators' bookkeeping cannot move
  // a single message.  150 ranks at W=4 / fanout=4 give 8 roots, 30 leaf
  // masters and 112 slaves; a dense cluster plus a random spread over a
  // small cache, with NL lowered, makes every rule of §4.3 fire.
  auto w = sf::testing::rotor_world(4);
  Rng rng(77);
  auto seeds = random_seeds(w.dataset->bounds(), 600, rng);
  const auto cluster =
      cluster_seeds({1.0, 1.0, 1.0}, 0.1, 400, rng, w.dataset->bounds());
  seeds.insert(seeds.end(), cluster.begin(), cluster.end());

  auto cfg = test_config(Algorithm::kHybridMasterSlave, 150);
  cfg.runtime.cache_blocks = 4;
  cfg.hybrid.slaves_per_master = 4;
  cfg.hybrid.root_fanout = 4;
  cfg.hybrid.load_threshold = 8;
  ASSERT_EQ(HybridLayout::make(150, 4, 4).num_roots, 8);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), seeds.size());

  EXPECT_EQ(m.wall_clock, 0.36796619600000074);
  EXPECT_EQ(m.total_messages(), 21832u);
  EXPECT_EQ(m.total_control_messages(), 18498u);
  EXPECT_EQ(m.total_bytes_sent(), 31258312u);
  EXPECT_EQ(m.ranks[0].bytes_received, 28976u);
  EXPECT_EQ(m.total_steps(), 92566u);
}

TEST(Hybrid, FlatLayoutModelledOutputIsPinned) {
  // Golden for the paper's flat layout: 72 ranks at W=8 give 8 masters and
  // 64 slaves.  A dense cluster plus a random spread over a 4-block cache,
  // with NL lowered, makes rules 1-7 of §4.3 all fire, so a change to how
  // the rules book their orders cannot move a single message.
  auto w = sf::testing::rotor_world(4);
  Rng rng(78);
  auto seeds = random_seeds(w.dataset->bounds(), 500, rng);
  const auto cluster =
      cluster_seeds({1.0, 1.0, 1.0}, 0.1, 400, rng, w.dataset->bounds());
  seeds.insert(seeds.end(), cluster.begin(), cluster.end());

  auto cfg = test_config(Algorithm::kHybridMasterSlave, 72);
  cfg.runtime.cache_blocks = 4;
  cfg.hybrid.slaves_per_master = 8;
  cfg.hybrid.root_fanout = 0;
  cfg.hybrid.load_threshold = 8;
  ASSERT_EQ(HybridLayout::make(72, 8, 0).num_masters, 8);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), seeds.size());

  EXPECT_EQ(m.wall_clock, 0.10323549200000011);
  EXPECT_EQ(m.total_messages(), 16158u);
  EXPECT_EQ(m.total_control_messages(), 13367u);
  EXPECT_EQ(m.total_bytes_sent(), 35491744u);
  EXPECT_EQ(m.ranks[0].bytes_received, 137688u);
  EXPECT_EQ(m.total_steps(), 85082u);
}

TEST(Hybrid, TwoRanksMinimumWorks) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(41);
  const auto seeds = random_seeds(w.dataset->bounds(), 10, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 2);
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  EXPECT_EQ(m.particles.size(), 10u);
}

TEST(Hybrid, EmptySeedSetTerminates) {
  auto w = sf::testing::rotor_world(2);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 4);
  const RunMetrics m =
      run_experiment(cfg, w.decomp(), *w.source, std::span<const Vec3>{});
  EXPECT_FALSE(m.failed_oom);
  EXPECT_TRUE(m.particles.empty());
}

}  // namespace
}  // namespace sf
