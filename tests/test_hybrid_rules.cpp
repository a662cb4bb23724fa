// Table tests for the §4.3 rules and the coordinator's other duties
// (DESIGN.md §11).  Each case builds a GroupScheduler or one of the
// machines beside it directly — no runtime, no rank — feeds it events
// and a liveness set, and checks the orders it emits and the state it
// keeps.

#include "algorithms/hybrid_rules.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <variant>
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

// A flagged straggler is skipped only while an unflagged slave of the
// group can take the work.  When every registered slave is flagged (the
// healthy ones died), skipping them would hold the seed pool forever.
TEST(HybridRules, FlaggedStragglersAreFedOnceNoUnflaggedSlaveRemains) {
  struct Row {
    bool flag_1;
    bool flag_2;
    bool remove_2;
    std::vector<int> fed;
  };
  for (const Row& row :
       {Row{false, false, false, {1, 2}}, Row{true, false, false, {2}},
        Row{true, true, false, {1, 2}}, Row{true, false, true, {1}},
        Row{false, true, true, {1}}}) {
    Group g;
    g.seed(2, 30);
    g.report(1, {}, {}, 0);
    g.report(2, {}, {}, 0);
    if (row.flag_1) g.sched.flag_straggler(1);
    if (row.flag_2) g.sched.flag_straggler(2);
    if (row.remove_2) g.sched.remove_slave(2);
    g.pass();
    std::vector<int> fed;
    for (const auto& [slave, cmd] : g.orders) {
      if (cmd.type == Type::kAssign) fed.push_back(slave);
    }
    EXPECT_EQ(fed, row.fed) << "flag_1=" << row.flag_1
                            << " flag_2=" << row.flag_2
                            << " remove_2=" << row.remove_2;
  }
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

// ---------------------------------------------------------------------------
// The coordinator's other duties

// A liveness view for the machines: every rank not in `dead` is alive.
struct Liveness {
  std::set<int> dead;
  bool operator()(int rank) const { return dead.count(rank) == 0; }
};

template <typename T>
std::vector<int> ranks_of(const CoordinatorOrders& orders) {
  std::vector<int> out;
  for (const auto& [rank, order] : orders) {
    if (std::holds_alternative<T>(order)) out.push_back(rank);
  }
  return out;
}

StatusUpdate progress(std::uint64_t steps, double busy, bool computing) {
  StatusUpdate s;
  s.steps_total = steps;
  s.busy_seconds = busy;
  s.computing = computing;
  return s;
}

// A heartbeat of 1 s makes each progress window 3 s wide, and the busy
// floor 1.5 s.  Every slave anchors at t=0; `rate` is steps per busy
// second over a window busy for `busy` seconds.
struct Watch {
  BlockDecomposition decomp{AABB{{0, 0, 0}, {8, 1, 1}}, 8, 1, 1};
  GroupScheduler sched{&decomp, 10, 20, 40, 1};
  StragglerWatch watch{1.0, true};
  CoordinatorOrders orders;

  explicit Watch(const std::vector<int>& slaves) {
    for (const int s : slaves) {
      sched.add_slave(s);
      watch.on_status(s, 0.0, progress(0, 0.0, true), sched, orders);
    }
  }
  void report(int slave, double now, double rate, double busy = 3.0) {
    watch.on_status(slave, now,
                    progress(static_cast<std::uint64_t>(rate * busy), busy,
                             true),
                    sched, orders);
  }
  std::vector<int> speculated() const {
    std::vector<int> out;
    for (const auto& [rank, order] : orders) {
      const auto* req = std::get_if<LedgerRequest>(&order);
      if (req != nullptr && req->speculate) out.push_back(rank);
    }
    return out;
  }
};

TEST(StragglerWatch, AWindowClosesAfterThreeBeatsAndNotBefore) {
  // Slaves 1 and 2 run at 100 steps per busy second, slave 3 at 1.
  // Slave 3's window is still open just under 3 beats, so nothing is
  // flagged then; just over, it closes and slave 3 is flagged.
  Watch w({1, 2, 3});
  w.report(1, 3.001, 100);
  w.report(2, 3.001, 100);
  w.report(3, 2.999, 1);
  EXPECT_TRUE(w.speculated().empty());
  EXPECT_FALSE(w.sched.records().at(3).straggler);
  w.report(3, 3.001, 1);
  EXPECT_EQ(w.speculated(), std::vector<int>{3});
  EXPECT_TRUE(w.sched.records().at(3).straggler);
  w.report(3, 6.002, 1);  // flagged once only
  EXPECT_EQ(w.speculated(), std::vector<int>{3});
}

TEST(StragglerWatch, ASlowSlaveMustHaveBeenBusyForHalfItsWindow) {
  // The busy floor is half a window: 1.5 busy seconds of 3.
  for (const double busy : {1.49, 1.5}) {
    Watch w({1, 2, 3});
    w.report(1, 3.0, 100);
    w.report(2, 3.0, 100);
    w.report(3, 3.0, 1, busy);
    EXPECT_EQ(w.speculated().size(), busy < 1.5 ? 0u : 1u) << busy;
  }
}

TEST(StragglerWatch, NoFlagWithFewerThanTwoReferenceRates) {
  // Slave 2's window holds no busy time, so it gives no rate: slave 3's
  // own rate is the only sample and nobody is flagged.  A second healthy
  // sample makes the median and flags slave 3.
  Watch w({1, 2, 3});
  w.report(2, 3.0, 0, 0.0);
  w.report(3, 3.0, 1);
  EXPECT_TRUE(w.speculated().empty());
  w.report(1, 3.0, 100);
  EXPECT_EQ(w.speculated(), std::vector<int>{3});
}

TEST(StragglerWatch, FlaggedSlavesAreLeftOutOfTheMedian) {
  // Slave 3 (rate 1) is flagged against slaves 1 and 2 (100).  Slave 2
  // then leaves, and slave 4's window closes at rate 20: the median of
  // the unflagged rates {100, 20} is 100, so slave 4 is flagged too.
  // Counting slave 3 would make it 20, and slave 4 would pass.
  Watch w({1, 2, 3, 4});
  w.report(1, 3.0, 100);
  w.report(2, 3.0, 100);
  w.report(3, 3.0, 1);
  ASSERT_EQ(w.speculated(), std::vector<int>{3});
  w.watch.forget(2);
  w.report(4, 3.0, 20);
  EXPECT_EQ(w.speculated(), (std::vector<int>{3, 4}));
}

// 13 ranks at W=2 / fanout 2: roots {0, 1}, leaf masters {2..5} (root 0
// parents 2 and 3, root 1 parents 4 and 5), slaves {6..12}.
const HybridLayout kTree = HybridLayout::make(13, 2, 2);

TEST(TerminationDuty, TheBoardFollowsTheActingCounter) {
  // Leaf 3 publishes to its parent, root 0 (also the counter).  When root
  // 0 dies the target moves to the successor, root 1, and the unchanged
  // board is published again; when root 1 and leaf 2 die too, leaf 3 is
  // the lowest live master and so the counter, and finishes once the
  // board sums to every streamline.
  TerminationDuty term(kTree, 3, 10, /*failover=*/true);
  Liveness alive;
  CoordinatorOrders orders;
  const auto none = [](int) { return false; };
  term.merge(3, 4);
  term.merge(8, 2);
  EXPECT_FALSE(term.publish(alive, none, orders));
  ASSERT_EQ(ranks_of<TerminationCount>(orders), std::vector<int>{0});
  const auto& board = std::get<TerminationCount>(orders[0].second).totals;
  EXPECT_EQ(board, (std::vector<std::pair<int, std::uint32_t>>{{3, 4},
                                                               {8, 2}}));
  orders.clear();
  EXPECT_FALSE(term.publish(alive, none, orders));  // nothing new
  EXPECT_TRUE(orders.empty());

  alive.dead = {0};
  EXPECT_FALSE(term.publish(alive, none, orders));  // not dirty, but moved
  EXPECT_EQ(ranks_of<TerminationCount>(orders), std::vector<int>{1});
  orders.clear();

  alive.dead = {0, 1, 2, 7};
  term.merge(9, 3);
  EXPECT_FALSE(term.publish(alive, none, orders));  // 9 of 10
  EXPECT_TRUE(orders.empty());
  term.merge(std::vector<std::pair<int, std::uint32_t>>{{8, 3}});
  EXPECT_TRUE(term.publish(alive, none, orders));
  // DoneSignal to every live master, then with failover on a terminate
  // to every live slave.
  EXPECT_EQ(ranks_of<DoneSignal>(orders), (std::vector<int>{4, 5}));
  EXPECT_EQ(ranks_of<Command>(orders),
            (std::vector<int>{6, 8, 9, 10, 11, 12}));
}

TEST(TerminationDuty, WithoutFailoverTheFinishTerminatesOnlyItsGroup) {
  TerminationDuty term(HybridLayout::make(9, 2), 0, 1, /*failover=*/false);
  CoordinatorOrders orders;
  term.merge(5, 1);
  EXPECT_TRUE(term.publish(Liveness{}, [](int s) { return s < 6; }, orders));
  EXPECT_EQ(ranks_of<DoneSignal>(orders), (std::vector<int>{1, 2}));
  EXPECT_EQ(ranks_of<Command>(orders), (std::vector<int>{3, 4, 5}));
}

// Root 0's broker with one adopted slave (6) starving and an empty pool.
struct Broker {
  BlockDecomposition decomp{AABB{{0, 0, 0}, {8, 1, 1}}, 8, 1, 1};
  GroupScheduler sched{&decomp, 10, 20, 40, 1};
  SeedBroker broker{kTree, 0, 10};
  Liveness alive;
  CoordinatorOrders orders;

  Broker() {
    sched.add_slave(6);
    StatusUpdate idle;
    sched.apply_status(6, idle);
  }
  void pool(int n) {
    for (int i = 0; i < n; ++i) {
      Particle p;
      p.pos = {0.5, 0.5, 0.5};
      sched.add_seed(p);
    }
  }
  // (rank, relayed) of every SeedDemand, then clear the orders.
  std::vector<std::pair<int, bool>> demands() {
    std::vector<std::pair<int, bool>> out;
    for (const auto& [rank, order] : orders) {
      if (const auto* d = std::get_if<SeedDemand>(&order)) {
        out.emplace_back(rank, d->relayed);
      }
    }
    orders.clear();
    return out;
  }
};

TEST(SeedBroker, OnePeerBothRequestedAndRelayedToClearsBothMarkers) {
  // Root 0's leaves are dead, so its own request and its relay of leaf
  // 5's demand both go to root 1.  One donation from root 1 answers
  // both: leaf 5 gets the spare seeds, and root 0 may ask again.
  Broker b;
  b.alive.dead = {2, 3};
  b.broker.after_pass(b.sched, b.alive, b.orders);
  b.broker.on_demand(5, /*relayed=*/false, b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(),
            (std::vector<std::pair<int, bool>>{{1, false}, {1, true}}));
  b.broker.after_pass(b.sched, b.alive, b.orders);  // still outstanding
  EXPECT_TRUE(b.demands().empty());

  b.pool(30);
  b.broker.on_transfer(1, /*empty=*/false, b.sched, b.alive, b.orders);
  ASSERT_EQ(ranks_of<SeedTransfer>(b.orders), std::vector<int>{5});
  EXPECT_EQ(std::get<SeedTransfer>(b.orders[0].second).seeds.size(), 20u);
  b.orders.clear();

  std::vector<Particle> rest;
  b.sched.take_seeds(0, 10, rest);  // dry again
  b.broker.after_pass(b.sched, b.alive, b.orders);
  b.broker.on_demand(4, /*relayed=*/false, b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(),
            (std::vector<std::pair<int, bool>>{{1, false}, {1, true}}));
}

TEST(SeedBroker, ARelayWhoseDonorDiesInFlightMovesOn) {
  // Leaf 5's demand is relayed to leaf 2.  Leaf 2 dies before answering:
  // the next tick marks it dry and relays to leaf 3 instead.
  Broker b;
  b.broker.on_demand(5, /*relayed=*/false, b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(), (std::vector<std::pair<int, bool>>{{2, true}}));
  b.broker.tick(b.sched, b.alive, b.orders);  // 2 still alive: wait
  EXPECT_TRUE(b.demands().empty());
  b.alive.dead = {2};
  b.broker.tick(b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(), (std::vector<std::pair<int, bool>>{{3, true}}));
  // Leaf 3 answers dry and root 1 is the last candidate; when it answers
  // dry too, leaf 5 gets the definitive empty answer.
  b.broker.on_transfer(3, /*empty=*/true, b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(), (std::vector<std::pair<int, bool>>{{1, true}}));
  b.broker.on_transfer(1, /*empty=*/true, b.sched, b.alive, b.orders);
  ASSERT_EQ(ranks_of<SeedTransfer>(b.orders), std::vector<int>{5});
  EXPECT_TRUE(std::get<SeedTransfer>(b.orders[0].second).seeds.empty());
}

TEST(SeedBroker, ARequesterThatDiesWhileQueuedIsDropped) {
  // Leaves 4 and 5 queue demands at root 0 while the relay to leaf 2 is
  // in flight.  Leaf 4 dies; leaf 2's donation goes to leaf 5 alone.
  Broker b;
  b.broker.on_demand(4, /*relayed=*/false, b.sched, b.alive, b.orders);
  b.broker.on_demand(5, /*relayed=*/false, b.sched, b.alive, b.orders);
  EXPECT_EQ(b.demands(), (std::vector<std::pair<int, bool>>{{2, true}}));
  b.alive.dead = {4};
  b.pool(25);
  b.broker.on_transfer(2, /*empty=*/false, b.sched, b.alive, b.orders);
  EXPECT_EQ(ranks_of<SeedTransfer>(b.orders), std::vector<int>{5});
  EXPECT_TRUE(b.demands().empty());
}

TEST(Failover, ADeadLeafClaimedTwiceIsAbsorbedOnce) {
  // Root 0 and leaf 4 are dead.  Root 1 is now the successor: it claims
  // leaf 4 as its parent and again as the adopter of a dead leaf, and
  // root 0 as the successor.  Leaf 4's ledger state is requested once,
  // its live slave 9 enrolled and its dead slave 10 recovered.
  BlockDecomposition decomp{AABB{{0, 0, 0}, {8, 1, 1}}, 8, 1, 1};
  GroupScheduler sched(&decomp, 10, 20, 40, 1);
  Failover failover(kTree, 1, /*heartbeat_period=*/1.0);
  Liveness alive;
  alive.dead = {0, 4, 10};
  ASSERT_EQ(kTree.slaves_of(4), (std::pair<int, int>{9, 11}));
  const std::vector<int> claims = failover.claims(alive);
  EXPECT_EQ(claims, (std::vector<int>{4, 0, 4}));
  CoordinatorOrders orders;
  std::vector<bool> absorbed;
  for (const int dead : claims) {
    absorbed.push_back(failover.adopt(dead, alive, sched, 5.0, orders));
  }
  EXPECT_EQ(absorbed, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(ranks_of<LedgerRequest>(orders), (std::vector<int>{4, 10, 0}));
  EXPECT_EQ(sched.records().size(), 1u);
  EXPECT_EQ(sched.records().count(9), 1u);
  // An adoptee gets one extra window before the declare-dead rule.
  EXPECT_TRUE(failover.silent(5.0 + 6.0).empty());
  EXPECT_EQ(failover.silent(5.0 + 6.001), std::vector<int>{9});
  EXPECT_FALSE(failover.adopt(4, alive, sched, 9.0, orders));
}

TEST(Failover, TheDeclareDeadRuleFiresJustPastThreeSilentBeats) {
  BlockDecomposition decomp{AABB{{0, 0, 0}, {8, 1, 1}}, 8, 1, 1};
  GroupScheduler sched(&decomp, 10, 20, 40, 1);
  Failover failover(HybridLayout::make(9, 2), 0, /*heartbeat_period=*/1.0);
  for (const int s : {3, 4}) {
    sched.add_slave(s);
    failover.heard(s, 0.0);
  }
  failover.heard(4, 1.0);
  EXPECT_TRUE(failover.silent(3.0).empty());
  EXPECT_EQ(failover.silent(3.001), std::vector<int>{3});
  CoordinatorOrders orders;
  EXPECT_TRUE(failover.declare_dead(sched, 3, orders));
  EXPECT_FALSE(failover.declare_dead(sched, 3, orders));
  EXPECT_EQ(ranks_of<LedgerRequest>(orders), std::vector<int>{3});
  EXPECT_EQ(failover.silent(4.001), std::vector<int>{4});
}

}  // namespace
}  // namespace sf
