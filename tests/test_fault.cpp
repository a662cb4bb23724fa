// Fault-injection, checkpoint and recovery tests (DESIGN.md §7): the
// injector is deterministic, checkpoints round-trip bit-for-bit, and all
// three algorithms survive injected crashes / disk faults / message drops
// with the *same* final particle set as a fault-free run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "algorithms/driver.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"
#include "fault/injector.hpp"
#include "io/checkpoint_io.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

using sf::testing::test_config;

void expect_same_particles(const std::vector<Particle>& a,
                           const std::vector<Particle>& b,
                           const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << label << " i=" << i;
    EXPECT_EQ(a[i].status, b[i].status) << label << " i=" << i;
    EXPECT_EQ(a[i].steps, b[i].steps) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.x, b[i].pos.x) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.y, b[i].pos.y) << label << " i=" << i;
    EXPECT_EQ(a[i].pos.z, b[i].pos.z) << label << " i=" << i;
    EXPECT_EQ(a[i].time, b[i].time) << label << " i=" << i;
  }
}

std::filesystem::path temp_path(const char* name) {
  return std::filesystem::temp_directory_path() / name;
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjector, ScheduleIsDeterministic) {
  FaultConfig cfg;
  cfg.mtbf = 0.5;
  cfg.max_crashes = 4;
  cfg.rng_seed = 42;
  const FaultInjector a(cfg, 16);
  const FaultInjector b(cfg, 16);
  ASSERT_EQ(a.crash_schedule().size(), b.crash_schedule().size());
  ASSERT_LE(a.crash_schedule().size(), 4u);
  ASSERT_FALSE(a.crash_schedule().empty());
  for (std::size_t i = 0; i < a.crash_schedule().size(); ++i) {
    EXPECT_EQ(a.crash_schedule()[i].rank, b.crash_schedule()[i].rank);
    EXPECT_EQ(a.crash_schedule()[i].time, b.crash_schedule()[i].time);
    if (i > 0) {
      EXPECT_GE(a.crash_schedule()[i].time, a.crash_schedule()[i - 1].time);
    }
  }
}

TEST(FaultInjector, ImmuneRanksNeverCrash) {
  FaultConfig cfg;
  cfg.mtbf = 0.1;
  cfg.max_crashes = 100;
  cfg.immune_ranks = {0, 1};
  cfg.crashes = {{1.0, 0}, {2.0, 3}, {3.0, 99}};  // 0 immune, 99 oob
  const FaultInjector inj(cfg, 8);
  bool saw_explicit = false;
  for (const CrashEvent& e : inj.crash_schedule()) {
    EXPECT_NE(e.rank, 0);
    EXPECT_NE(e.rank, 1);
    EXPECT_LT(e.rank, 8);
    EXPECT_GE(e.rank, 0);
    if (e.rank == 3 && e.time == 2.0) saw_explicit = true;
  }
  EXPECT_TRUE(saw_explicit);
}

TEST(FaultInjector, EachRankCrashesAtMostOnceFromMtbfDraws) {
  FaultConfig cfg;
  cfg.mtbf = 0.01;  // would draw far more crashes than ranks
  cfg.max_crashes = 100;
  const FaultInjector inj(cfg, 6);
  std::vector<int> seen;
  for (const CrashEvent& e : inj.crash_schedule()) {
    EXPECT_TRUE(std::find(seen.begin(), seen.end(), e.rank) == seen.end())
        << "rank " << e.rank << " crashed twice";
    seen.push_back(e.rank);
  }
  EXPECT_LE(inj.crash_schedule().size(), 6u);
}

TEST(FaultInjector, DrawStreamsAreDeterministicAndIndependent) {
  FaultConfig cfg;
  cfg.disk_fault_rate = 0.3;
  cfg.disk_stall_rate = 0.3;
  cfg.message_drop_rate = 0.3;
  FaultInjector a(cfg, 4);
  FaultInjector b(cfg, 4);
  int faults = 0;
  for (int i = 0; i < 500; ++i) {
    const bool fa = a.draw_disk_fault();
    EXPECT_EQ(fa, b.draw_disk_fault());
    EXPECT_EQ(a.draw_disk_stall(), b.draw_disk_stall());
    EXPECT_EQ(a.draw_message_drop(), b.draw_message_drop());
    faults += fa ? 1 : 0;
  }
  EXPECT_GT(faults, 0);
  EXPECT_LT(faults, 500);
}

TEST(FaultInjector, MaxDropsCapsMessageDrops) {
  FaultConfig cfg;
  cfg.message_drop_rate = 1.0;
  cfg.max_drops = 5;
  FaultInjector inj(cfg, 4);
  int drops = 0;
  for (int i = 0; i < 100; ++i) drops += inj.draw_message_drop() ? 1 : 0;
  EXPECT_EQ(drops, 5);
}

// ---------------------------------------------------------------------------
// Checkpoint file I/O

Checkpoint sample_checkpoint() {
  Checkpoint ck;
  ck.sim_time = 0.1 + 0.2;  // not exactly representable: exercises bit-exact
  ck.num_ranks = 3;
  Particle done;
  done.id = 7;
  done.pos = {1.0 / 3.0, -2.5e-17, 6.02214076e23};
  done.time = 4.9999999999999994;
  done.h = 1e-3;
  done.steps = 1234;
  done.geometry_points = 99;
  done.status = ParticleStatus::kExitedDomain;
  ck.done.push_back(done);
  Particle act = done;
  act.id = 9;
  act.status = ParticleStatus::kActive;
  ck.active.push_back(act);
  ck.active_owner = {2};
  ck.ranks = {{0, true, {1, 2, 3}}, {1, false, {}}, {2, true, {40}}};
  return ck;
}

TEST(CheckpointIo, RoundTripsBitForBit) {
  const auto path = temp_path("sf_test_roundtrip.sfckpt");
  const Checkpoint ck = sample_checkpoint();
  write_checkpoint(path, ck);
  const Checkpoint rd = read_checkpoint(path);
  std::filesystem::remove(path);

  EXPECT_EQ(rd.sim_time, ck.sim_time);
  EXPECT_EQ(rd.num_ranks, ck.num_ranks);
  expect_same_particles(rd.done, ck.done, "done");
  expect_same_particles(rd.active, ck.active, "active");
  ASSERT_EQ(rd.active[0].h, ck.active[0].h);
  ASSERT_EQ(rd.active[0].geometry_points, ck.active[0].geometry_points);
  EXPECT_EQ(rd.active_owner, ck.active_owner);
  ASSERT_EQ(rd.ranks.size(), ck.ranks.size());
  for (std::size_t i = 0; i < ck.ranks.size(); ++i) {
    EXPECT_EQ(rd.ranks[i].rank, ck.ranks[i].rank);
    EXPECT_EQ(rd.ranks[i].alive, ck.ranks[i].alive);
    EXPECT_EQ(rd.ranks[i].resident, ck.ranks[i].resident);
  }
}

TEST(CheckpointIo, RejectsCorruptFiles) {
  const auto path = temp_path("sf_test_corrupt.sfckpt");
  write_checkpoint(path, sample_checkpoint());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);  // somewhere in the payload
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  EXPECT_THROW(read_checkpoint(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(read_checkpoint(path), std::runtime_error);  // missing file
}

// ---------------------------------------------------------------------------
// End-to-end recovery, per algorithm

struct FaultWorld {
  sf::testing::TestWorld w = sf::testing::abc_world(2);
  std::vector<Vec3> seeds;

  FaultWorld() {
    Rng rng(321);
    seeds = random_seeds(w.dataset->bounds(), 40, rng);
    seeds.push_back({-9, 0, 0});  // rejected seed: exercises presettled
  }

  ExperimentConfig config(Algorithm algo, int ranks) const {
    auto cfg = test_config(algo, ranks);
    cfg.limits.max_steps = 600;
    cfg.limits.max_time = 10.0;
    return cfg;
  }

  RunMetrics run(const ExperimentConfig& cfg) const {
    return run_experiment(cfg, w.decomp(), *w.source, seeds);
  }
};

class CrashRecovery : public ::testing::TestWithParam<Algorithm> {};

// A rank crash halfway through the run must not change the final
// streamline set: the dead rank's particles are re-run elsewhere from
// their last safe state, which is bit-identical re-integration.
TEST_P(CrashRecovery, MidRunCrashKeepsParticlesIdentical) {
  const Algorithm algo = GetParam();
  const FaultWorld fw;
  const int ranks = 9;  // hybrid: 1 master + 8 slaves

  const RunMetrics clean = fw.run(fw.config(algo, ranks));
  ASSERT_FALSE(clean.failed_oom);
  ASSERT_GT(clean.wall_clock, 0.0);

  auto cfg = fw.config(algo, ranks);
  // Rank 5 is a slave under hybrid and a worker under the others — the
  // plain (non-coordinator) victim.  Coordinator death is exercised by
  // the CoordinatorFailover suite below.
  cfg.runtime.fault.crashes = {{0.5 * clean.wall_clock, 5}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  EXPECT_EQ(m.fault.crashes_injected, 1u);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  EXPECT_GT(m.fault.time_to_recovery, 0.0);
  EXPECT_TRUE(m.ranks[5].crashed);
  expect_same_particles(clean.particles, m.particles, "crash-vs-clean");
  // Recovery costs something (unless the victim was already done).
  EXPECT_GE(m.wall_clock, clean.wall_clock);
}

void expect_same_metrics(const RunMetrics& a, const RunMetrics& b,
                         const char* label) {
  EXPECT_EQ(a.wall_clock, b.wall_clock) << label;
  EXPECT_EQ(a.failed_oom, b.failed_oom) << label;
  EXPECT_EQ(a.total_io_time(), b.total_io_time()) << label;
  EXPECT_EQ(a.total_comm_time(), b.total_comm_time()) << label;
  EXPECT_EQ(a.total_compute_time(), b.total_compute_time()) << label;
  EXPECT_EQ(a.total_messages(), b.total_messages()) << label;
  EXPECT_EQ(a.total_bytes_sent(), b.total_bytes_sent()) << label;
  EXPECT_EQ(a.total_steps(), b.total_steps()) << label;
  EXPECT_EQ(a.fault.crashes_injected, b.fault.crashes_injected) << label;
  EXPECT_EQ(a.fault.messages_dropped, b.fault.messages_dropped) << label;
  EXPECT_EQ(a.fault.disk_faults, b.fault.disk_faults) << label;
  EXPECT_EQ(a.fault.particles_recovered, b.fault.particles_recovered)
      << label;
  EXPECT_EQ(a.fault.steps_redone, b.fault.steps_redone) << label;
  expect_same_particles(a.particles, b.particles, label);
}

// Repeat runs are bit-for-bit identical — both on the fault-free default
// path and under an injected fault schedule (seeded draws, DES ordering).
TEST_P(CrashRecovery, RepeatRunsAreDeterministic) {
  const Algorithm algo = GetParam();
  const FaultWorld fw;

  const auto clean_cfg = fw.config(algo, 6);
  expect_same_metrics(fw.run(clean_cfg), fw.run(clean_cfg), "clean-repeat");

  auto cfg = fw.config(algo, 6);
  cfg.runtime.fault.mtbf = 0.05;
  cfg.runtime.fault.max_crashes = 2;
  cfg.runtime.fault.message_drop_rate = 0.05;
  expect_same_metrics(fw.run(cfg), fw.run(cfg), "faulted-repeat");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CrashRecovery,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case Algorithm::kStaticAllocation:
                               return "Static";
                             case Algorithm::kLoadOnDemand: return "Lod";
                             default: return "Hybrid";
                           }
                         });

TEST(FaultRecovery, DiskFaultsAreRetriedWithoutChangingResults) {
  const FaultWorld fw;
  const RunMetrics clean = fw.run(fw.config(Algorithm::kLoadOnDemand, 6));

  auto cfg = fw.config(Algorithm::kLoadOnDemand, 6);
  cfg.runtime.fault.disk_fault_rate = 0.2;
  cfg.runtime.fault.disk_stall_rate = 0.1;
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  EXPECT_GT(m.fault.disk_faults, 0u);
  std::uint64_t retries = 0;
  for (const RankMetrics& r : m.ranks) retries += r.disk_retries;
  EXPECT_EQ(retries, m.fault.disk_faults);
  expect_same_particles(clean.particles, m.particles, "disk-vs-clean");
  EXPECT_GT(m.wall_clock, clean.wall_clock);  // retries + stalls cost time
}

TEST(FaultRecovery, DroppedMessagesBounceAndNoStreamlineIsLost) {
  const FaultWorld fw;
  const RunMetrics clean =
      fw.run(fw.config(Algorithm::kStaticAllocation, 6));

  auto cfg = fw.config(Algorithm::kStaticAllocation, 6);
  cfg.runtime.fault.message_drop_rate = 0.3;
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  EXPECT_GT(m.fault.messages_dropped, 0u);
  expect_same_particles(clean.particles, m.particles, "drops-vs-clean");
}

TEST(FaultRecovery, RuntimeDetectorAndDiskLaddersArePinned) {
  // Golden for the runtime detector and the disk ladders: Static and
  // Load On Demand each lose rank 3 to a scheduled crash while block
  // reads fail, stall, run slow and come back corrupt.  One read per run
  // exhausts its retries and crashes its rank as well, so both the
  // backoff ladder and its cap, the slow factor and the detection
  // latency act, and the modelled output is pinned to the exact values.
  auto w = sf::testing::rotor_world(4);
  Rng rng(83);
  const auto seeds = random_seeds(w.dataset->bounds(), 300, rng);
  struct Golden {
    Algorithm algo;
    double wall_clock;
    double io_time;
    std::uint64_t disk_retries;
    std::uint64_t disk_faults;
    std::uint64_t disk_stalls;
    std::uint64_t disk_slow_events;
    std::uint64_t corruptions;
    std::uint64_t particles_recovered;
    std::uint64_t steps_redone;
  };
  for (const Golden& g :
       {Golden{Algorithm::kStaticAllocation, 3.2204343039999968,
               4.8184521439999548, 591, 453, 58, 36, 139, 29, 68},
        Golden{Algorithm::kLoadOnDemand, 14.465487175999884,
               7.8333670319999253, 1041, 795, 111, 60, 248, 66, 357}}) {
    auto base = test_config(g.algo, 8);
    base.runtime.cache_blocks = 4;
    base.limits.max_steps = 1500;
    const RunMetrics clean =
        run_experiment(base, w.decomp(), *w.source, seeds);
    ASSERT_FALSE(clean.failed_oom);

    auto cfg = base;
    cfg.runtime.fault.rng_seed = 5;
    cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 3}};
    cfg.runtime.fault.disk_fault_rate = 0.4;
    cfg.runtime.fault.disk_stall_rate = 0.1;
    cfg.runtime.fault.disk_slow_rate = 0.1;
    cfg.runtime.fault.corrupt_rate = 0.2;
    const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
    const char* label = to_string(g.algo);
    ASSERT_FALSE(m.failed_oom) << label;
    ASSERT_FALSE(m.failed_fault) << label;
    expect_same_particles(clean.particles, m.particles, label);

    std::uint64_t retries = 0;
    for (const RankMetrics& r : m.ranks) retries += r.disk_retries;
    EXPECT_EQ(m.wall_clock, g.wall_clock) << label;
    EXPECT_EQ(m.total_io_time(), g.io_time) << label;
    EXPECT_EQ(retries, g.disk_retries) << label;
    // The scheduled crash and the exhausted read's, each recovered
    // kFailureDetectSeconds (0.1 s) later.
    EXPECT_EQ(m.fault.time_to_recovery, 0.20000000000000009) << label;
    EXPECT_EQ(m.fault.crashes_injected, 2u) << label;
    EXPECT_EQ(m.fault.crashes_survived, 2u) << label;
    EXPECT_EQ(m.fault.disk_faults, g.disk_faults) << label;
    EXPECT_EQ(m.fault.disk_stalls, g.disk_stalls) << label;
    EXPECT_EQ(m.fault.disk_slow_events, g.disk_slow_events) << label;
    EXPECT_EQ(m.fault.corruptions_injected, g.corruptions) << label;
    EXPECT_EQ(m.fault.corruptions_detected, g.corruptions) << label;
    EXPECT_EQ(m.fault.particles_recovered, g.particles_recovered) << label;
    EXPECT_EQ(m.fault.steps_redone, g.steps_redone) << label;
  }
}

// ---------------------------------------------------------------------------
// Coordinator failover (DESIGN.md §11)

// Killing rank 0 removes the coordinator everywhere: the hybrid master
// (the lowest-rank orphaned slave promotes itself), and the termination
// counter under static allocation / load-on-demand (the role migrates to
// the lowest live rank, re-seeded from a ledger recount).  No rank is
// immune; the surviving trajectories must match the clean run exactly.
class CoordinatorFailover : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CoordinatorFailover, RankZeroCrashKeepsParticlesIdentical) {
  const Algorithm algo = GetParam();
  const FaultWorld fw;
  const int ranks = 9;  // hybrid: rank 0 is the only master

  const RunMetrics clean = fw.run(fw.config(algo, ranks));
  ASSERT_FALSE(clean.failed_oom);
  ASSERT_GT(clean.wall_clock, 0.0);

  auto cfg = fw.config(algo, ranks);
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 0}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_TRUE(m.ranks[0].crashed);
  EXPECT_EQ(m.fault.crashes_injected, 1u);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  expect_same_particles(clean.particles, m.particles, "rank0-crash-vs-clean");

  // The per-crash timeline is surfaced (satellite: failure-detection
  // latency and recovery wall time are first-class metrics): detection
  // strictly after the crash, recovery no earlier than detection.
  ASSERT_EQ(m.fault.crash_records.size(), 1u);
  const CrashRecord& rec = m.fault.crash_records[0];
  EXPECT_EQ(rec.rank, 0);
  EXPECT_GT(rec.detect_time, rec.crash_time);
  EXPECT_GE(rec.recover_time, rec.detect_time);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CoordinatorFailover,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case Algorithm::kStaticAllocation:
                               return "Static";
                             case Algorithm::kLoadOnDemand: return "Lod";
                             default: return "Hybrid";
                           }
                         });

// With two masters, killing one must re-home its orphaned slaves to the
// surviving peer master (no promotion needed), which adopts the dead
// coordinator's seed pool and scheduling state from re-reported status.
TEST(CoordinatorFailoverHybrid, PeerMasterAdoptsOrphanedSlaves) {
  const FaultWorld fw;
  auto base = fw.config(Algorithm::kHybridMasterSlave, 9);
  base.hybrid.slaves_per_master = 3;  // 9 ranks -> masters {0, 1}

  const RunMetrics clean = fw.run(base);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 0}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_TRUE(m.ranks[0].crashed);
  expect_same_particles(clean.particles, m.particles, "peer-master-vs-clean");
  ASSERT_EQ(m.fault.crash_records.size(), 1u);
  EXPECT_GT(m.fault.crash_records[0].detect_time,
            m.fault.crash_records[0].crash_time);
  EXPECT_GE(m.fault.crash_records[0].recover_time,
            m.fault.crash_records[0].detect_time);
}

// Without a heartbeat neither the declare-dead rule nor failover can see
// a crash, so a hybrid fault run must name a positive heartbeat period.
TEST(CoordinatorFailoverHybrid, RejectsAHeartbeatThatCannotDetectACrash) {
  const FaultWorld fw;
  for (const double period : {0.0, -1.0, std::nan("")}) {
    auto cfg = fw.config(Algorithm::kHybridMasterSlave, 16);
    cfg.runtime.fault.crashes = {{0.05, 3}};
    cfg.runtime.fault.heartbeat_period = period;
    try {
      fw.run(cfg);
      ADD_FAILURE() << "accepted heartbeat_period " << period;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("heartbeat_period"),
                std::string::npos)
          << e.what();
    }
  }
  // A fault-free run never starts the protocol, so its period is moot.
  auto clean = fw.config(Algorithm::kHybridMasterSlave, 16);
  clean.runtime.fault.heartbeat_period = 0.0;
  EXPECT_FALSE(fw.run(clean).failed_oom);
}

// ---------------------------------------------------------------------------
// Master-tree failover (DESIGN.md §15)
//
// The crash matrix below runs on SimRuntime only: ThreadRuntime has no
// fault plane (run_experiment_threads rejects fault configs), so "both
// runtimes" coverage for the tree is the crash suite on the simulator
// plus the fault-free tree-vs-threads equivalence test at the end.

struct TreeFaultWorld : FaultWorld {
  // 13 ranks at W=2 / fanout=2: roots {0, 1}, leaf masters {2..5},
  // slaves {6..12} — the smallest layout that puts a root above every
  // leaf while leaving each leaf a non-trivial slave group.
  ExperimentConfig tree_config() const {
    auto cfg = config(Algorithm::kHybridMasterSlave, 13);
    cfg.hybrid.slaves_per_master = 2;
    cfg.hybrid.root_fanout = 2;
    // A root has no slaves watching it, so its death is only noticed by
    // the surviving masters' periodic tick; tighten the heartbeat (only
    // faulted runs wire it up) so that tick fires within this short run.
    cfg.runtime.fault.heartbeat_period = 0.002;
    return cfg;
  }
};

// A dead leaf master is absorbed by its parent root: the root inherits
// the leaf's seed pool and slave group, and the run completes with the
// same streamlines as the fault-free tree run.
TEST(TreeFailover, LeafMasterDeathIsAbsorbedByItsRoot) {
  const TreeFaultWorld fw;
  const auto base = fw.tree_config();
  const HybridLayout layout = HybridLayout::make(13, 2, 2);
  ASSERT_EQ(layout.num_roots, 2);
  ASSERT_EQ(layout.root_of(2), 0);  // leaf 2's parent is root 0

  const RunMetrics clean = fw.run(base);
  ASSERT_FALSE(clean.failed_oom);
  ASSERT_GT(clean.wall_clock, 0.0);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 2}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_TRUE(m.ranks[2].crashed);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  expect_same_particles(clean.particles, m.particles, "leaf-death-vs-clean");
  ASSERT_EQ(m.fault.crash_records.size(), 1u);
  EXPECT_GT(m.fault.crash_records[0].detect_time,
            m.fault.crash_records[0].crash_time);
}

// Killing a root removes a tier-1 coordinator (and, for root 0, the
// termination counter): the surviving root deterministically takes over
// its leaves and the counter role.
TEST(TreeFailover, RootMasterDeathPromotesSurvivor) {
  const TreeFaultWorld fw;
  const auto base = fw.tree_config();

  const RunMetrics clean = fw.run(base);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 0}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_TRUE(m.ranks[0].crashed);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  expect_same_particles(clean.particles, m.particles, "root-death-vs-clean");
}

// Both tiers lose a coordinator in quick succession — the root that
// would have adopted leaf 2's group is itself dead, so the recovery
// chain has to re-route (successor adoption) without losing a seed.
TEST(TreeFailover, SimultaneousLeafAndRootDeathStillConverges) {
  const TreeFaultWorld fw;
  const auto base = fw.tree_config();

  const RunMetrics clean = fw.run(base);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 0},
                               {0.4 * clean.wall_clock, 2}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_TRUE(m.ranks[0].crashed);
  EXPECT_TRUE(m.ranks[2].crashed);
  EXPECT_EQ(m.fault.crashes_survived, 2u);
  expect_same_particles(clean.particles, m.particles,
                        "leaf-and-root-death-vs-clean");
}

// Every slave of a 150-rank tree (W=4, fanout 4: 8 roots, 30 leaf
// masters, 112 slaves) dies at once.  Each leaf master reclaims its
// group's streamlines and integrates them itself; the roots still carry
// the termination board to the counter.
TEST(TreeFailover, LeafMastersFinishWhenEverySlaveDies) {
  const FaultWorld fw;
  auto base = fw.config(Algorithm::kHybridMasterSlave, 150);
  base.hybrid.slaves_per_master = 4;
  base.hybrid.root_fanout = 4;
  const HybridLayout layout = HybridLayout::make(150, 4, 4);
  ASSERT_EQ(layout.num_roots, 8);
  ASSERT_EQ(layout.num_masters, 38);

  const RunMetrics clean = fw.run(base);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  for (int s = layout.num_masters; s < layout.num_ranks; ++s) {
    cfg.runtime.fault.crashes.push_back({0.4 * clean.wall_clock, s});
  }
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_EQ(m.fault.crashes_survived,
            static_cast<std::uint64_t>(layout.num_slaves()));
  std::uint64_t master_steps = 0;
  for (int r = layout.num_roots; r < layout.num_masters; ++r) {
    master_steps += m.ranks[static_cast<std::size_t>(r)].steps;
  }
  EXPECT_GT(master_steps, 0u);
  expect_same_particles(clean.particles, m.particles,
                        "every-tree-slave-dead-vs-clean");
}

TEST(TreeFailover, RootLeafAndSlaveFaultsModelledOutputIsPinned) {
  // Golden for the tree's coordinator duties under faults: root 0 (the
  // counter, and leaf 3's parent) dies, then leaf 3 — which the surviving
  // root 1 adopts — then slave 9, while 5% of all messages drop and
  // slave 11 runs 10x slow.  Root failover, root adoption of a dead leaf,
  // relay brokering, retransmits and straggler speculation all act, and
  // the modelled output is pinned to the exact values.
  const TreeFaultWorld fw;
  auto base = fw.tree_config();
  base.runtime.cache_blocks = 8;
  base.limits.max_steps = 1500;
  const HybridLayout layout = HybridLayout::make(13, 2, 2);
  ASSERT_EQ(layout.root_of(3), 0);
  ASSERT_EQ(layout.master_of(9), 4);
  auto w = sf::testing::rotor_world(4);
  Rng rng(79);
  const auto seeds = random_seeds(w.dataset->bounds(), 600, rng);
  const RunMetrics clean = run_experiment(base, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.3 * clean.wall_clock, 0},
                               {0.5 * clean.wall_clock, 3},
                               {0.6 * clean.wall_clock, 9}};
  cfg.runtime.fault.message_drop_rate = 0.05;
  cfg.runtime.fault.slowdowns = {{0.1 * clean.wall_clock, 11, 10.0}};
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  expect_same_particles(clean.particles, m.particles, "tree-golden-vs-clean");

  EXPECT_EQ(m.wall_clock, 0.093786496000000108);
  EXPECT_EQ(m.total_messages(), 4168u);
  EXPECT_EQ(m.total_control_messages(), 3931u);
  EXPECT_EQ(m.total_bytes_sent(), 2242480u);
  EXPECT_EQ(m.ranks[1].bytes_received, 17452u);
  EXPECT_EQ(m.total_steps(), 22096u);
  EXPECT_EQ(m.fault.crashes_survived, 3u);
  EXPECT_EQ(m.fault.control_retransmits, 137u);
  EXPECT_EQ(m.fault.stragglers_flagged, 1u);
  EXPECT_EQ(m.fault.particles_speculated, 81u);
}

// ThreadRuntime leg: the tree layout on real threads terminates with the
// same streamline set as the discrete-event simulator (fault-free — the
// thread runtime has no fault plane to crash a rank with).
TEST(TreeFailover, FaultFreeTreeRunMatchesOnRealThreads) {
  const TreeFaultWorld fw;
  const auto cfg = fw.tree_config();

  const RunMetrics sim = fw.run(cfg);
  ASSERT_FALSE(sim.failed_oom);

  const RunMetrics thr =
      run_experiment_threads(cfg, fw.w.decomp(), *fw.w.source, fw.seeds);
  ASSERT_FALSE(thr.failed_oom);
  expect_same_particles(sim.particles, thr.particles, "tree-sim-vs-threads");
}

// The sequenced control transport repairs a lossy link: dropped status /
// command / beacon traffic is retransmitted until acked, and duplicates
// created by lost acks are absorbed by the receiver's dedup window —
// exactly-once program dispatch, so accounting never double-counts.
TEST(ControlPlane, DropsAreRetransmittedAndDeduplicated) {
  const FaultWorld fw;
  const RunMetrics clean =
      fw.run(fw.config(Algorithm::kHybridMasterSlave, 6));
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = fw.config(Algorithm::kHybridMasterSlave, 6);
  cfg.runtime.fault.message_drop_rate = 0.25;
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_GT(m.fault.messages_dropped, 0u);
  EXPECT_GT(m.fault.control_retransmits, 0u);
  EXPECT_GT(m.fault.control_duplicates, 0u);
  expect_same_particles(clean.particles, m.particles,
                        "control-drops-vs-clean");
}

TEST(ControlPlane, SlaveDeathUnderDropsKeepsParticlesIdentical) {
  // A hybrid slave dies while the lossy control plane bounces seed
  // assignments: the master takes bounced assignments back and declares
  // the silent slave dead.  Both paths edit the master's scheduling
  // indexes, which Debug builds audit after every edit.
  const FaultWorld fw;
  const RunMetrics clean =
      fw.run(fw.config(Algorithm::kHybridMasterSlave, 9));
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = fw.config(Algorithm::kHybridMasterSlave, 9);
  cfg.runtime.fault.crashes = {{0.3 * clean.wall_clock, 2}};
  cfg.runtime.fault.message_drop_rate = 0.2;
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  EXPECT_GT(m.fault.messages_dropped, 0u);
  EXPECT_GT(m.fault.particles_recovered, 0u);
  expect_same_particles(clean.particles, m.particles,
                        "slave-death-under-drops-vs-clean");
}

// Liveness: when every slave dies, the surviving master is the only rank
// left that can integrate, so it must run its reclaimed pool itself
// rather than hold it and re-arm its heartbeat forever.
TEST(ControlPlane, SurvivingMasterFinishesWhenEverySlaveDies) {
  const FaultWorld fw;
  const RunMetrics clean =
      fw.run(fw.config(Algorithm::kHybridMasterSlave, 3));
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = fw.config(Algorithm::kHybridMasterSlave, 3);
  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 1},
                               {0.4 * clean.wall_clock, 2}};
  const RunMetrics m = fw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_EQ(m.fault.crashes_survived, 2u);
  EXPECT_GT(m.ranks[0].steps, 0u);
  expect_same_particles(clean.particles, m.particles,
                        "every-slave-dead-vs-clean");
}

TEST(ControlPlane, FailoverAndStragglerModelledOutputIsPinned) {
  // Golden for the fault plane: a flat run with two masters loses master
  // 1 (its peer adopts the group) and a slave, drops 5% of all messages
  // and runs one slave 10x slow from early on.  Failover, the
  // declare-dead rule, retransmits and straggler speculation all act, and
  // the modelled output is pinned to the exact values.
  auto w = sf::testing::rotor_world(4);
  Rng rng(79);
  const auto seeds = random_seeds(w.dataset->bounds(), 400, rng);
  auto base = test_config(Algorithm::kHybridMasterSlave, 18);
  base.runtime.cache_blocks = 8;
  base.limits.max_steps = 1500;
  ASSERT_EQ(HybridLayout::make(18, 8).num_masters, 2);
  const RunMetrics clean = run_experiment(base, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(clean.failed_oom);

  auto cfg = base;
  cfg.runtime.fault.crashes = {{0.3 * clean.wall_clock, 1},
                               {0.5 * clean.wall_clock, 12}};
  cfg.runtime.fault.message_drop_rate = 0.05;
  cfg.runtime.fault.slowdowns = {{0.1 * clean.wall_clock, 5, 10.0}};
  cfg.runtime.fault.heartbeat_period = 0.02 * clean.wall_clock;
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  expect_same_particles(clean.particles, m.particles, "golden-vs-clean");

  EXPECT_EQ(m.wall_clock, 0.031349641119999924);
  EXPECT_EQ(m.total_messages(), 15287u);
  EXPECT_EQ(m.total_control_messages(), 13827u);
  EXPECT_EQ(m.total_bytes_sent(), 18370424u);
  EXPECT_EQ(m.ranks[0].bytes_received, 312784u);
  EXPECT_EQ(m.total_steps(), 39631u);
  EXPECT_EQ(m.fault.crashes_survived, 2u);
  EXPECT_EQ(m.fault.control_retransmits, 44u);
  EXPECT_EQ(m.fault.stragglers_flagged, 1u);
  EXPECT_EQ(m.fault.particles_speculated, 64u);
}

// ---------------------------------------------------------------------------
// Checkpoint / restart

class CheckpointRestart : public ::testing::TestWithParam<Algorithm> {};

TEST_P(CheckpointRestart, RestartReproducesUninterruptedRun) {
  const Algorithm algo = GetParam();
  const FaultWorld fw;
  const int ranks = 9;

  const RunMetrics clean = fw.run(fw.config(algo, ranks));
  ASSERT_FALSE(clean.failed_oom);

  const auto path = temp_path(algo == Algorithm::kStaticAllocation
                                  ? "sf_test_restart_static.sfckpt"
                                  : algo == Algorithm::kLoadOnDemand
                                        ? "sf_test_restart_lod.sfckpt"
                                        : "sf_test_restart_hybrid.sfckpt");
  auto cfg = fw.config(algo, ranks);
  cfg.runtime.fault.checkpoint_interval = 0.4 * clean.wall_clock;
  cfg.runtime.fault.checkpoint_path = path.string();
  const RunMetrics ck_run = fw.run(cfg);
  ASSERT_FALSE(ck_run.failed_oom);
  ASSERT_GT(ck_run.fault.checkpoints_taken, 0u);
  ASSERT_NE(ck_run.last_checkpoint, nullptr);
  expect_same_particles(clean.particles, ck_run.particles,
                        "checkpointed-vs-clean");

  // The checkpoint file holds a mid-run snapshot: some streamlines done,
  // some still in flight.  Restarting from it must land on exactly the
  // uninterrupted final state.
  auto restart = fw.config(algo, ranks);
  restart.restart_from = path.string();
  const RunMetrics resumed = fw.run(restart);
  std::filesystem::remove(path);
  ASSERT_FALSE(resumed.failed_oom);
  expect_same_particles(clean.particles, resumed.particles,
                        "restart-vs-clean");
}

INSTANTIATE_TEST_SUITE_P(AlgorithmsWithState, CheckpointRestart,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave),
                         [](const auto& suite_info) {
                           switch (suite_info.param) {
                             case Algorithm::kStaticAllocation:
                               return "Static";
                             case Algorithm::kLoadOnDemand: return "Lod";
                             default: return "Hybrid";
                           }
                         });

// Checkpoints carry a run-topology stamp (format v2): resuming with a
// different rank count, algorithm, or dataset decomposition is a hard
// configuration error, not silent misbehavior.
TEST(CheckpointRestartValidation, RejectsMismatchedRunTopology) {
  const FaultWorld fw;
  const auto path = temp_path("sf_test_restart_topology.sfckpt");

  auto cfg = fw.config(Algorithm::kStaticAllocation, 4);
  const RunMetrics clean = fw.run(cfg);
  ASSERT_FALSE(clean.failed_oom);
  cfg.runtime.fault.checkpoint_interval = 0.4 * clean.wall_clock;
  cfg.runtime.fault.checkpoint_path = path.string();
  ASSERT_GT(fw.run(cfg).fault.checkpoints_taken, 0u);

  // Wrong rank count.
  auto wrong_ranks = fw.config(Algorithm::kStaticAllocation, 5);
  wrong_ranks.restart_from = path.string();
  EXPECT_THROW(fw.run(wrong_ranks), std::invalid_argument);

  // Wrong algorithm.
  auto wrong_algo = fw.config(Algorithm::kLoadOnDemand, 4);
  wrong_algo.restart_from = path.string();
  EXPECT_THROW(fw.run(wrong_algo), std::invalid_argument);

  // Different dataset decomposition (other block grid -> other hash).
  const sf::testing::TestWorld other = sf::testing::abc_world(3);
  auto wrong_data = fw.config(Algorithm::kStaticAllocation, 4);
  wrong_data.restart_from = path.string();
  EXPECT_THROW(run_experiment(wrong_data, other.decomp(), *other.source,
                              fw.seeds),
               std::invalid_argument);

  // The matching topology still restarts fine.
  auto ok = fw.config(Algorithm::kStaticAllocation, 4);
  ok.restart_from = path.string();
  const RunMetrics resumed = fw.run(ok);
  std::filesystem::remove(path);
  ASSERT_FALSE(resumed.failed_oom);
  expect_same_particles(clean.particles, resumed.particles,
                        "topology-ok-restart");
}

// ---------------------------------------------------------------------------
// Undeliverable bounce handling (unit level)

// A minimal RankContext: records sends, block requests and memory
// charges, never computes (nothing is resident).  Lets the bounce
// handlers be driven directly, including the dead-owner re-routing that
// an end-to-end run only reaches through rare drop/crash interleavings.
class FakeContext final : public RankContext {
 public:
  FakeContext(const BlockDecomposition* decomp, const Tracer* tracer,
              int rank, int num_ranks)
      : alive(static_cast<std::size_t>(num_ranks), true),
        decomp_(decomp),
        tracer_(tracer),
        model_(sf::testing::test_model()),
        rank_(rank),
        num_ranks_(num_ranks) {}

  int rank() const override { return rank_; }
  int num_ranks() const override { return num_ranks_; }
  double now() const override { return 0.0; }
  const BlockDecomposition& decomposition() const override {
    return *decomp_;
  }
  const Tracer& tracer() const override { return *tracer_; }
  const MachineModel& model() const override { return model_; }
  void send(int to, Message msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void request_block(BlockId id) override { requested.push_back(id); }
  bool block_resident(BlockId) const override { return false; }
  bool block_pending(BlockId) const override { return false; }
  std::vector<BlockId> resident_blocks() const override { return {}; }
  const StructuredGrid* block(BlockId) override { return nullptr; }
  void begin_compute(double, std::uint64_t) override { ++computes; }
  bool busy() const override { return false; }
  void charge_particle_memory(std::int64_t delta) override {
    charged += delta;
  }
  bool is_alive(int target) const override {
    return alive[static_cast<std::size_t>(target)];
  }

  std::vector<std::pair<int, Message>> sent;
  std::vector<BlockId> requested;
  std::vector<bool> alive;
  std::int64_t charged = 0;
  int computes = 0;

 private:
  const BlockDecomposition* decomp_;
  const Tracer* tracer_;
  MachineModel model_;
  int rank_;
  int num_ranks_;
};

// One in-domain particle per ownership side of a 2-rank contiguous split.
struct BouncePair {
  Particle mine;    // block owned by rank 0
  Particle theirs;  // block owned by rank 1
};

BouncePair bounce_pair(const FaultWorld& fw) {
  const BlockDecomposition& decomp = fw.w.decomp();
  std::vector<Particle> rejected;
  std::vector<Particle> all = make_particles(decomp, fw.seeds, rejected);
  BouncePair out;
  bool have_mine = false, have_theirs = false;
  for (const Particle& p : all) {
    const int owner =
        contiguous_owner(decomp.num_blocks(), 2, decomp.block_of(p.pos));
    if (owner == 0 && !have_mine) {
      out.mine = p;
      have_mine = true;
    } else if (owner == 1 && !have_theirs) {
      out.theirs = p;
      have_theirs = true;
    }
  }
  EXPECT_TRUE(have_mine && have_theirs);
  return out;
}

TEST(UndeliverableBounce, StaticAllocationReroutesToLiveOwner) {
  const FaultWorld fw;
  const BlockDecomposition& decomp = fw.w.decomp();
  const Tracer tracer(&decomp, IntegratorParams{}, TraceLimits{});
  const BouncePair pair = bounce_pair(fw);

  auto factory = make_static_allocation(&decomp, {{}, {}}, 2);
  std::unique_ptr<RankProgram> prog = factory(0, 2);
  FakeContext ctx(&decomp, &tracer, 0, 2);
  prog->start(ctx);

  // A bounced hand-off carrying one particle from each side: ours is
  // pooled (and re-charged), the other re-forwarded to its live owner.
  Message m;
  m.from = 1;
  m.payload = Undeliverable{1, kInvalidBlock, {pair.mine, pair.theirs}};
  prog->on_message(ctx, std::move(m));

  std::vector<Particle> snap;
  prog->snapshot_particles(snap);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].id, pair.mine.id);
  EXPECT_GT(ctx.charged, 0);
  ASSERT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.sent[0].first, 1);
  const auto* fwd = std::get_if<ParticleBatch>(&ctx.sent[0].second.payload);
  ASSERT_NE(fwd, nullptr);
  ASSERT_EQ(fwd->particles.size(), 1u);
  EXPECT_EQ(fwd->particles[0].id, pair.theirs.id);

  // Same bounce with the owner dead: re-routing must adopt the particle
  // locally (live_owner redirects past the corpse) instead of sending
  // into the void.
  ctx.alive[1] = false;
  ctx.sent.clear();
  Message again;
  again.from = 1;
  again.payload = Undeliverable{1, kInvalidBlock, {pair.theirs}};
  prog->on_message(ctx, std::move(again));

  snap.clear();
  prog->snapshot_particles(snap);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(ctx.sent.empty());
}

TEST(UndeliverableBounce, LoadOnDemandAdoptsBouncedParticles) {
  const FaultWorld fw;
  const BlockDecomposition& decomp = fw.w.decomp();
  const Tracer tracer(&decomp, IntegratorParams{}, TraceLimits{});
  const BouncePair pair = bounce_pair(fw);

  auto factory = make_load_on_demand(&decomp, {{}});
  std::unique_ptr<RankProgram> prog = factory(0, 1);
  FakeContext ctx(&decomp, &tracer, 0, 1);
  prog->start(ctx);
  EXPECT_TRUE(prog->finished());  // empty pool: independently done

  // A recovery hand-off that bounced off a dead successor lands here:
  // both particles join the pool, the rank re-opens and asks for the
  // block that unblocks them.  Load On Demand never communicates.
  Message m;
  m.from = 2;
  m.payload = Undeliverable{3, kInvalidBlock, {pair.mine, pair.theirs}};
  prog->on_message(ctx, std::move(m));

  EXPECT_FALSE(prog->finished());
  std::vector<Particle> snap;
  prog->snapshot_particles(snap);
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_GT(ctx.charged, 0);
  EXPECT_TRUE(ctx.sent.empty());
  EXPECT_FALSE(ctx.requested.empty());
}

// ---------------------------------------------------------------------------
// OOM handling

TEST(FaultRecovery, OomWithoutFaultLayerKeepsPartialResults) {
  const FaultWorld fw;
  auto cfg = fw.config(Algorithm::kStaticAllocation, 4);
  cfg.runtime.model.particle_memory_bytes = 16 << 10;  // tight: OOM mid-run
  const RunMetrics m = fw.run(cfg);

  ASSERT_TRUE(m.failed_oom);
  EXPECT_FALSE(m.failed_fault);  // the fault layer never engaged
  EXPECT_FALSE(m.abort_reason.empty());
  // Partial metrics and particles survive the abort (satellite: failed
  // runs are diagnosable, not empty).
  EXPECT_GT(m.total_steps(), 0u);
  EXPECT_LT(m.particles.size(), fw.seeds.size());
  bool some_oom = false;
  for (const RankMetrics& r : m.ranks) some_oom |= r.oom;
  EXPECT_TRUE(some_oom);
}

TEST(FaultRecovery, OomBecomesARecoverableCrashUnderFaultInjection) {
  const FaultWorld fw;
  auto cfg = fw.config(Algorithm::kStaticAllocation, 4);
  cfg.runtime.model.particle_memory_bytes = 16 << 10;
  cfg.runtime.fault.enabled = true;
  const RunMetrics m = fw.run(cfg);

  // The first OOM abort is converted into a rank crash and its work
  // re-routed.  Whether the run then completes depends on whether the
  // survivors fit the budget; either way the conversion must be counted.
  EXPECT_GE(m.fault.oom_crashes, 1u);
  if (m.failed_oom) {
    EXPECT_TRUE(m.failed_fault);
    EXPECT_FALSE(m.abort_reason.empty());
  } else {
    const RunMetrics clean = fw.run(fw.config(Algorithm::kStaticAllocation,
                                              4));
    expect_same_particles(clean.particles, m.particles, "oom-vs-clean");
  }
}

}  // namespace
}  // namespace sf
