// Table tests for the §4.3 rules (DESIGN.md §11).  Each case builds a
// GroupScheduler directly — no runtime, no rank — feeds it statuses and
// seeds, runs one assignment pass and checks the orders it emits and the
// view it books.

#include "algorithms/hybrid_rules.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace sf {
namespace {

using Type = Command::Type;
using Queue = std::vector<std::pair<BlockId, std::uint32_t>>;

// Eight unit blocks along x: block b holds the points with x in [b, b+1).
struct Group {
  BlockDecomposition decomp{AABB{{0, 0, 0}, {8, 1, 1}}, 8, 1, 1};
  GroupScheduler sched;
  GroupScheduler::Orders orders;

  explicit Group(int n = 10, int overload_factor = 20, int nl = 40)
      : sched(&decomp, n, overload_factor, nl, /*rng_seed=*/1) {}

  void seed(BlockId b, int count) {
    for (int i = 0; i < count; ++i) {
      Particle p;
      p.pos = {b + 0.5, 0.5, 0.5};
      sched.add_seed(p);
    }
  }

  void report(int slave, Queue queued, std::vector<BlockId> loaded,
              std::uint32_t workable) {
    sched.add_slave(slave);
    StatusUpdate s;
    s.queued_by_block = std::move(queued);
    s.loaded = std::move(loaded);
    s.workable = workable;
    sched.apply_status(slave, s);
  }

  const GroupScheduler::Orders& pass() {
    orders.clear();
    sched.assignment_pass(orders);
    return orders;
  }

  const GroupScheduler::SlaveRecord& rec(int slave) const {
    return sched.records().at(slave);
  }

  int count(Type type) const {
    int n = 0;
    for (const auto& [slave, cmd] : orders) n += cmd.type == type ? 1 : 0;
    return n;
  }
};

TEST(HybridRules, AssignLoadedPrefersALoadedBlock) {
  Group g;
  g.seed(2, 30);
  g.seed(5, 4);
  g.report(1, {}, {5}, 0);
  const auto& orders = g.pass();
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].first, 1);
  EXPECT_EQ(orders[0].second.type, Type::kAssign);
  EXPECT_EQ(orders[0].second.block, 5);  // loaded, though block 2 is denser
  EXPECT_EQ(orders[0].second.particles.size(), 4u);
  EXPECT_TRUE(g.rec(1).loading.empty());  // nothing new to load
  EXPECT_EQ(g.sched.seeds().size(), 30u);
}

TEST(HybridRules, AssignUnloadedTakesTheDensestBlockAndBooksItLoading) {
  Group g;
  g.seed(2, 30);
  g.seed(5, 4);
  g.report(1, {}, {}, 0);
  const auto& orders = g.pass();
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_EQ(orders[0].second.type, Type::kAssign);
  EXPECT_EQ(orders[0].second.block, 2);
  EXPECT_EQ(orders[0].second.particles.size(), 10u);  // N
  const auto& rec = g.rec(1);
  EXPECT_EQ(rec.loading, std::vector<BlockId>{2});
  EXPECT_EQ(rec.queued, (Queue{{2, 10}}));
  EXPECT_EQ(rec.workload, 10u);
  EXPECT_TRUE(rec.outstanding);
  EXPECT_FALSE(rec.needs_work);
  EXPECT_TRUE(g.pass().empty());  // outstanding until its next status
}

TEST(HybridRules, SendForceOnlyWhileTheTargetStaysWithinNO) {
  // N = 10 and NO = 2N = 20.  Slave 1 waits with `stuck` particles in
  // block 3, which slave 2 has loaded and is busy with `busy` particles.
  struct Row {
    std::uint32_t busy;
    std::uint32_t stuck;
    bool flag_target;
    bool forced;
  };
  for (const Row row : {Row{10, 10, false, true}, Row{11, 10, false, false},
                        Row{0, 20, false, true}, Row{0, 21, false, false},
                        Row{10, 10, true, false}}) {
    Group g(10, 2, 40);
    g.report(1, {{3, row.stuck}}, {}, 0);
    g.report(2, {}, {3}, row.busy);
    if (row.flag_target) g.sched.flag_straggler(2);
    g.pass();
    const std::string label = "busy=" + std::to_string(row.busy) +
                              " stuck=" + std::to_string(row.stuck) +
                              " flagged=" + std::to_string(row.flag_target);
    ASSERT_EQ(g.count(Type::kSendForce), row.forced ? 1 : 0) << label;
    if (!row.forced) continue;
    EXPECT_EQ(g.orders[0].first, 1) << label;
    EXPECT_EQ(g.orders[0].second.block, 3) << label;
    EXPECT_EQ(g.orders[0].second.target, 2) << label;
    // The queued count moved between the records before either reports.
    EXPECT_TRUE(g.rec(1).queued.empty()) << label;
    EXPECT_EQ(g.rec(2).queued, (Queue{{3, row.stuck}})) << label;
    EXPECT_EQ(g.rec(2).workload, row.busy + row.stuck) << label;
  }
}

TEST(HybridRules, LoadFiresAboveNLAndNotAtNL) {
  // NL = 8.  Above it rule 2 orders the load; at it the slave is fed
  // seeds instead (rules 4/5 run only when rules 1-3 supplied nothing).
  for (const std::uint32_t stuck : {9u, 8u}) {
    Group g(10, 20, 8);
    g.seed(6, 10);
    g.report(1, {{4, stuck}}, {}, 0);
    g.pass();
    if (stuck > 8) {
      ASSERT_EQ(g.orders.size(), 1u);
      EXPECT_EQ(g.orders[0].second.type, Type::kLoad);
      EXPECT_EQ(g.orders[0].second.block, 4);
      EXPECT_EQ(g.rec(1).loading, std::vector<BlockId>{4});
      EXPECT_TRUE(g.rec(1).outstanding);
    } else {
      ASSERT_EQ(g.orders.size(), 1u);
      EXPECT_EQ(g.orders[0].second.type, Type::kAssign);
      EXPECT_EQ(g.orders[0].second.block, 6);
      EXPECT_EQ(g.rec(1).loading, std::vector<BlockId>{6});
    }
  }
}

TEST(HybridRules, RuleThreePullsWaitersUntilNO) {
  // NO = 20.  Slave 1 holds block 2 and starves; slaves 2-4 each wait
  // with 8 particles in block 2 but are busy elsewhere.  Slave 1 pulls
  // the first two (8 + 8 <= 20) and stops before the third (24 > 20).
  Group g(10, 2, 40);
  g.report(1, {}, {2}, 0);
  for (const int s : {2, 3, 4}) g.report(s, {{2, 8}}, {5}, 1);
  g.pass();
  ASSERT_EQ(g.orders.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(g.orders[i].first, static_cast<int>(i) + 2);
    EXPECT_EQ(g.orders[i].second.type, Type::kSendForce);
    EXPECT_EQ(g.orders[i].second.block, 2);
    EXPECT_EQ(g.orders[i].second.target, 1);
  }
  EXPECT_EQ(g.rec(1).workload, 16u);
  EXPECT_EQ(g.rec(4).queued, (Queue{{2, 8}}));
  EXPECT_TRUE(g.rec(1).outstanding);
}

TEST(HybridRules, RuleSixFallbackTakesOnlyUnheldBlocksOnceAPass) {
  // Slaves 1-3 starve with nothing queued.  Slave 4 holds block 5 (100
  // waiting) and waits on unheld block 6 (50).  The fallback loads the
  // unheld block 6 for slave 1, not the busier but held block 5.  Slave
  // 2's scan then finds nothing unheld and sends the pass's one hint;
  // slave 3 gets no second expensive scan.
  Group g;
  for (const int s : {1, 2, 3}) g.report(s, {}, {}, 0);
  g.report(4, {{5, 100}, {6, 50}}, {5}, 100);
  g.pass();
  ASSERT_EQ(g.orders.size(), 2u);
  EXPECT_EQ(g.orders[0].first, 1);
  EXPECT_EQ(g.orders[0].second.type, Type::kLoad);
  EXPECT_EQ(g.orders[0].second.block, 6);
  EXPECT_EQ(g.orders[1].first, 4);
  EXPECT_EQ(g.orders[1].second.type, Type::kSendHint);
  EXPECT_EQ(g.orders[1].second.target, 2);
  EXPECT_EQ(g.orders[1].second.hint_blocks, std::vector<BlockId>{6});
  EXPECT_FALSE(g.rec(3).hint_requested);
}

TEST(HybridRules, OneSendHintPerStarvingSlaveUntilItsNextStatus) {
  // Slave 2 is the busiest and waits on block 6, which slave 3 holds, so
  // the fallback has nothing to load and rule 7 hints slave 2 instead.
  Group g;
  g.report(1, {}, {}, 0);
  g.report(2, {{6, 50}}, {}, 1);
  g.report(3, {}, {6}, 1);
  g.pass();
  ASSERT_EQ(g.orders.size(), 1u);
  EXPECT_EQ(g.orders[0].first, 2);
  EXPECT_EQ(g.orders[0].second.type, Type::kSendHint);
  EXPECT_EQ(g.orders[0].second.target, 1);
  EXPECT_TRUE(g.rec(1).hint_requested);

  EXPECT_TRUE(g.pass().empty());  // still starving, but already hinted
  g.report(1, {}, {}, 0);         // its next status re-arms the hint
  EXPECT_EQ(g.pass().size(), 1u);
  EXPECT_EQ(g.count(Type::kSendHint), 1);
}

TEST(HybridRules, BouncedAssignmentUnbooksItsQueuedCount) {
  Group g;
  g.seed(2, 30);
  g.report(1, {{2, 5}}, {}, 0);
  g.pass();
  ASSERT_EQ(g.count(Type::kAssign), 1);
  EXPECT_EQ(g.rec(1).queued, (Queue{{2, 15}}));

  g.sched.bounced(1, 2, g.orders[0].second.particles.size());
  EXPECT_EQ(g.rec(1).queued, (Queue{{2, 5}}));  // the status's own five
  EXPECT_EQ(g.rec(1).workload, 5u);
  EXPECT_FALSE(g.rec(1).outstanding);

  g.sched.bounced(1, 2, 5);
  EXPECT_TRUE(g.rec(1).queued.empty());
  EXPECT_EQ(g.rec(1).workload, 0u);
}

TEST(HybridRules, ADeclaredDeadSlaveLeavesBothIndexes) {
  // Slave 2 held block 3 and waited on block 4.  Once it is removed, no
  // rule may force slave 1's block-3 particles to it, and the fallback
  // may not load block 4 on its account.
  Group g;
  g.report(2, {{4, 30}}, {3}, 1);
  EXPECT_TRUE(g.sched.remove_slave(2));
  EXPECT_FALSE(g.sched.remove_slave(2));
  EXPECT_EQ(g.sched.records().count(2), 0u);

  g.report(1, {}, {}, 0);
  EXPECT_TRUE(g.pass().empty());  // no unheld block has waiters now

  g.report(1, {{3, 5}}, {}, 0);
  g.pass();
  EXPECT_EQ(g.count(Type::kSendForce), 0);  // no holder of block 3 left
  ASSERT_EQ(g.orders.size(), 1u);
  EXPECT_EQ(g.orders[0].second.type, Type::kLoad);  // rule 6, own block
  EXPECT_EQ(g.orders[0].second.block, 3);
}

TEST(HybridRules, InitialAllocationGivesEachSlaveNSeedsWhileTheyLast) {
  Group g;
  g.seed(1, 25);
  for (const int s : {1, 2, 3, 4}) g.sched.add_slave(s);
  g.sched.initial_allocation(g.orders);
  ASSERT_EQ(g.orders.size(), 3u);  // 10 + 10 + 5
  EXPECT_EQ(g.orders[2].first, 3);
  EXPECT_EQ(g.orders[2].second.particles.size(), 5u);
  EXPECT_TRUE(g.sched.seeds().empty());
  EXPECT_TRUE(g.rec(4).queued.empty());
}

}  // namespace
}  // namespace sf
