#include "runtime/thread_runtime.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "algorithms/load_on_demand.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/static_alloc.hpp"
#include "io/block_store.hpp"
#include "io/io_error.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

RuntimeConfig thread_config(int ranks) {
  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.model = sf::testing::test_model();
  cfg.cache_blocks = 16;
  return cfg;
}

IntegratorParams iparams() { return {}; }
TraceLimits limits() {
  return {.max_time = 15.0, .max_steps = 1500, .min_speed = 1e-8};
}

RunMetrics run_threads_with(Algorithm algo, const RuntimeConfig& cfg,
                            const sf::testing::TestWorld& w,
                            const std::vector<Vec3>& seeds,
                            const BlockSource& source) {
  const int ranks = cfg.num_ranks;
  std::vector<Particle> rejected;
  std::vector<Particle> particles =
      make_particles(w.decomp(), seeds, rejected);
  const auto total = static_cast<std::uint32_t>(particles.size());

  ProgramFactory factory;
  switch (algo) {
    case Algorithm::kStaticAllocation:
      factory = make_static_allocation(
          &w.decomp(),
          partition_by_block_owner(w.decomp(), ranks, std::move(particles)),
          total);
      break;
    case Algorithm::kLoadOnDemand:
      factory = make_load_on_demand(
          &w.decomp(),
          partition_evenly_by_block(ranks, w.decomp(), std::move(particles)));
      break;
    case Algorithm::kHybridMasterSlave: {
      HybridParams hp;
      hp.slaves_per_master = 4;
      const HybridLayout layout = HybridLayout::make(ranks, 4);
      factory = make_hybrid(
          &w.decomp(),
          split_evenly(layout.num_masters, std::move(particles)),
          total, hp);
      break;
    }
  }

  ThreadRuntime rt(cfg, &w.decomp(), &source, iparams(), limits());
  RunMetrics m = rt.run(factory);
  EXPECT_FALSE(m.failed_oom);
  m.particles.insert(m.particles.end(), rejected.begin(), rejected.end());
  std::sort(m.particles.begin(), m.particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return m;
}

RunMetrics run_threads_metrics(Algorithm algo, int ranks,
                               const sf::testing::TestWorld& w,
                               const std::vector<Vec3>& seeds,
                               const BlockSource& source,
                               std::uint64_t fuzz_seed = 0) {
  RuntimeConfig cfg = thread_config(ranks);
  cfg.schedule_fuzz_seed = fuzz_seed;
  return run_threads_with(algo, cfg, w, seeds, source);
}

std::vector<Particle> run_threads(Algorithm algo, int ranks,
                                  const sf::testing::TestWorld& w,
                                  const std::vector<Vec3>& seeds,
                                  const BlockSource& source,
                                  std::uint64_t fuzz_seed = 0) {
  return run_threads_metrics(algo, ranks, w, seeds, source, fuzz_seed)
      .particles;
}

TEST(ThreadRuntime, LoadOnDemandMatchesSerial) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds = random_seeds(w.dataset->bounds(), 20, rng);
  const auto threads =
      run_threads(Algorithm::kLoadOnDemand, 3, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].status, serial[i].status);
    EXPECT_EQ(threads[i].steps, serial[i].steps);
    EXPECT_EQ(threads[i].pos.x, serial[i].pos.x);
  }
}

TEST(ThreadRuntime, StaticAllocationTerminatesAndMatches) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(7);
  const auto seeds = random_seeds(w.dataset->bounds(), 16, rng);
  const auto threads =
      run_threads(Algorithm::kStaticAllocation, 4, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].steps, serial[i].steps) << i;
  }
}

TEST(ThreadRuntime, HybridTerminatesAndMatches) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(9);
  const auto seeds = random_seeds(w.dataset->bounds(), 16, rng);
  const auto threads =
      run_threads(Algorithm::kHybridMasterSlave, 4, w, seeds, *w.source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(threads.size(), serial.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    EXPECT_EQ(threads[i].steps, serial[i].steps) << i;
    EXPECT_EQ(threads[i].pos.y, serial[i].pos.y) << i;
  }
}

TEST(ThreadRuntime, RealDiskIoEndToEnd) {
  // Full stack: dataset -> BlockStore on disk -> DiskBlockSource -> the
  // Load On Demand program on real threads reading real files.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("sf_threads_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  auto w = sf::testing::rotor_world(2);
  BlockStore::write(dir, *w.dataset);
  auto store = std::make_shared<BlockStore>(dir);
  const DiskBlockSource disk_source(store);

  Rng rng(11);
  const auto seeds = random_seeds(w.dataset->bounds(), 10, rng);
  const auto from_disk =
      run_threads(Algorithm::kLoadOnDemand, 2, w, seeds, disk_source);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(from_disk.size(), serial.size());
  for (std::size_t i = 0; i < from_disk.size(); ++i) {
    EXPECT_EQ(from_disk[i].steps, serial[i].steps);
  }
  fs::remove_all(dir);
}

// The threads_ooc path: hybrid on real threads over block files, with
// one async loader worker reading and verifying blocks while the rank
// threads trace, and a cache smaller than the block count so blocks are
// evicted and read again.  Runs under the thread sanitizer in CI.
TEST(ThreadRuntime, HybridAsyncDiskIoMatchesSerialBitForBit) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("sf_threads_async_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  auto w = sf::testing::rotor_world(3);
  BlockStore::write(dir, *w.dataset);
  const DiskBlockSource disk_source(std::make_shared<BlockStore>(dir));

  RuntimeConfig cfg = thread_config(5);
  cfg.cache_blocks = 4;
  cfg.async_io.enabled = true;
  cfg.async_io.workers = 1;
  ASSERT_LT(cfg.cache_blocks,
            static_cast<std::size_t>(w.decomp().num_blocks()));

  Rng rng(23);
  const auto seeds = random_seeds(w.dataset->bounds(), 24, rng);
  const RunMetrics m = run_threads_with(Algorithm::kHybridMasterSlave, cfg,
                                        w, seeds, disk_source);
  EXPECT_GT(m.total_blocks_purged(), 0u);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  ASSERT_EQ(m.particles.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(m.particles[i].id, serial[i].id) << i;
    EXPECT_EQ(m.particles[i].status, serial[i].status) << i;
    EXPECT_EQ(m.particles[i].steps, serial[i].steps) << i;
    EXPECT_EQ(m.particles[i].pos.x, serial[i].pos.x) << i;
    EXPECT_EQ(m.particles[i].pos.y, serial[i].pos.y) << i;
    EXPECT_EQ(m.particles[i].pos.z, serial[i].pos.z) << i;
    EXPECT_EQ(m.particles[i].time, serial[i].time) << i;
  }
  fs::remove_all(dir);
}

// The schedule-perturbation harness injects randomized yields and short
// sleeps at every mailbox and cache boundary.  Whatever interleaving that
// produces, the results must still match the serial tracer exactly — any
// divergence means an order-dependence bug in the protocol.
// A block file whose payload no longer matches its checksum ends the run
// in a BlockReadError naming the block: with async I/O off (the demand
// read fails on the rank thread) and on (a failed prefetch is re-read
// synchronously, which fails again).  Never a hang, never
// std::terminate: ThreadRuntime has no retry ladder (DESIGN.md §16).
TEST(ThreadRuntime, CorruptedBlockEndsTheRunInABlockReadError) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("sf_threads_corrupt_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  auto w = sf::testing::rotor_world(2);
  BlockStore::write(dir, *w.dataset);
  auto store = std::make_shared<BlockStore>(dir);
  const BlockId bad = 5;
  {
    // Flip one bit of the first payload word, past the 80-byte header.
    constexpr std::streamoff kPayloadByte = 80;
    std::fstream f(store->block_path(bad),
                   std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    f.seekg(kPayloadByte);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 1);
    f.seekp(kPayloadByte);
    f.write(&c, 1);
  }
  const DiskBlockSource disk_source(store);

  // Every seed starts in the corrupted block, so every run must read it.
  Rng rng(3);
  const auto seeds = random_seeds(w.decomp().block_bounds(bad), 12, rng);
  for (const Algorithm algo :
       {Algorithm::kStaticAllocation, Algorithm::kLoadOnDemand,
        Algorithm::kHybridMasterSlave}) {
    for (const bool async : {false, true}) {
      auto cfg = sf::testing::test_config(algo, 3);
      cfg.runtime.async_io.enabled = async;
      cfg.runtime.async_io.workers = 1;
      const std::string label =
          std::string(to_string(algo)) + (async ? " async" : " sync");
      try {
        (void)run_experiment_threads(cfg, w.decomp(), disk_source, seeds);
        ADD_FAILURE() << label << ": the run ended without an error";
      } catch (const BlockReadError& e) {
        EXPECT_EQ(e.block(), bad) << label;
        EXPECT_EQ(e.kind(), BlockReadError::Kind::kCorrupt) << label;
      }
    }
  }
  fs::remove_all(dir);
}

TEST(ThreadRuntime, ScheduleFuzzMatchesSerialAcrossSeeds) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(13);
  const auto seeds = random_seeds(w.dataset->bounds(), 14, rng);
  const auto serial = trace_all(*w.dataset, seeds, iparams(), limits());
  const Algorithm algos[] = {Algorithm::kStaticAllocation,
                             Algorithm::kLoadOnDemand,
                             Algorithm::kHybridMasterSlave};
  for (const Algorithm algo : algos) {
    for (std::uint64_t fuzz : {1ULL, 71ULL, 4242ULL}) {
      const auto threads = run_threads(algo, 4, w, seeds, *w.source, fuzz);
      ASSERT_EQ(threads.size(), serial.size());
      for (std::size_t i = 0; i < threads.size(); ++i) {
        EXPECT_EQ(threads[i].status, serial[i].status)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
        EXPECT_EQ(threads[i].steps, serial[i].steps)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
        EXPECT_EQ(threads[i].pos.x, serial[i].pos.x)
            << "algo " << static_cast<int>(algo) << " fuzz " << fuzz
            << " particle " << i;
      }
    }
  }
}

// Every byte a rank sends reaches some rank's bytes_received, whether the
// message is popped between local events, popped by the main loop, or
// still in the inbox when the run ends (as on SimRuntime).
TEST(ThreadRuntime, BytesReceivedEqualBytesSent) {
  auto w = sf::testing::rotor_world(4);
  Rng rng(19);
  const auto seeds = random_seeds(w.dataset->bounds(), 400, rng);
  for (const Algorithm algo :
       {Algorithm::kStaticAllocation, Algorithm::kHybridMasterSlave}) {
    const RunMetrics m = run_threads_metrics(algo, 6, w, seeds, *w.source);
    std::uint64_t received = 0;
    for (const RankMetrics& r : m.ranks) received += r.bytes_received;
    EXPECT_GT(m.total_bytes_sent(), 0u) << static_cast<int>(algo);
    EXPECT_EQ(received, m.total_bytes_sent()) << static_cast<int>(algo);
  }
}

// Every rank sends kInboxBurst numbered messages to every other rank
// from start(); each receiver checks that every sender's numbers arrive
// in order, once each, and finishes when all have arrived.  A lost
// message or a lost wakeup leaves a receiver short and the run hanging.
constexpr std::uint32_t kInboxBurst = 1000;

class NumberedSender final : public RankProgram {
 public:
  NumberedSender(int rank, int ranks)
      : rank_(rank), ranks_(ranks),
        next_(static_cast<std::size_t>(ranks), 0) {}
  void start(RankContext& ctx) override {
    for (std::uint32_t seq = 0; seq < kInboxBurst; ++seq) {
      for (int to = 0; to < ranks_; ++to) {
        if (to == rank_) continue;
        Message msg;
        msg.payload = TerminationCount{{{rank_, seq}}};
        ctx.send(to, std::move(msg));
      }
    }
  }
  void on_message(RankContext&, Message msg) override {
    // Expect, not assert: every message must still count, or a failure
    // would leave this rank waiting forever instead of reporting.
    const auto [from, seq] =
        std::get<TerminationCount>(msg.payload).totals.at(0);
    EXPECT_EQ(from, msg.from);
    std::uint32_t& next = next_.at(static_cast<std::size_t>(from));
    EXPECT_EQ(seq, next) << "rank " << rank_ << " from rank " << from;
    next = seq + 1;
    ++received_;
  }
  void on_block_loaded(RankContext&, BlockId) override {}
  void on_compute_done(RankContext&) override {}
  bool finished() const override {
    return received_ == static_cast<std::uint64_t>(ranks_ - 1) * kInboxBurst;
  }
  void collect_particles(std::vector<Particle>&) const override {}

 private:
  int rank_;
  int ranks_;
  std::vector<std::uint32_t> next_;
  std::uint64_t received_ = 0;
};

TEST(ThreadRuntime, InboxDeliversEachSendersMessagesOnceInOrder) {
  auto w = sf::testing::rotor_world(2);
  RuntimeConfig cfg = thread_config(4);
  cfg.schedule_fuzz_seed = 29;
  cfg.checked_protocol = CheckedProtocol::kNone;
  ThreadRuntime rt(cfg, &w.decomp(), w.source.get(), iparams(), limits());
  const RunMetrics m = rt.run([](int rank, int ranks) {
    return std::make_unique<NumberedSender>(rank, ranks);
  });
  EXPECT_FALSE(m.failed_oom);
  ASSERT_EQ(m.ranks.size(), 4u);
  for (const RankMetrics& r : m.ranks) {
    EXPECT_EQ(r.messages_sent, 3u * kInboxBurst);
  }
}

TEST(ThreadRuntime, OomNamesTheRank) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(17);
  const auto seeds = random_seeds(w.dataset->bounds(), 20, rng);
  ExperimentConfig cfg = sf::testing::test_config(Algorithm::kLoadOnDemand, 3);
  cfg.runtime.model.particle_memory_bytes = 1000;  // under one particle
  const RunMetrics m =
      run_experiment_threads(cfg, w.decomp(), *w.source, seeds);
  EXPECT_TRUE(m.failed_oom);
  EXPECT_NE(m.abort_reason.find("exceeded its particle memory budget"),
            std::string::npos)
      << m.abort_reason;
}

// Rank 0 terminates a particle and waits; rank 1 terminates one and then
// blows its particle-memory budget.  The failed run still reports both
// terminated particles, like SimRuntime's partial results.
class TerminateThenMaybeOom final : public RankProgram {
 public:
  explicit TerminateThenMaybeOom(int rank) : rank_(rank) {}
  void start(RankContext& ctx) override {
    Particle p;
    p.id = static_cast<std::uint32_t>(rank_);
    p.status = ParticleStatus::kMaxSteps;
    done_.push_back(p);
    if (rank_ == 1) ctx.charge_particle_memory(1 << 20);
  }
  void on_message(RankContext&, Message) override {}
  void on_block_loaded(RankContext&, BlockId) override {}
  void on_compute_done(RankContext&) override {}
  bool finished() const override { return false; }
  void collect_particles(std::vector<Particle>& out) const override {
    out.insert(out.end(), done_.begin(), done_.end());
  }

 private:
  int rank_;
  std::vector<Particle> done_;
};

TEST(ThreadRuntime, OomKeepsPartialResults) {
  auto w = sf::testing::rotor_world(2);
  RuntimeConfig cfg = thread_config(2);
  cfg.model.particle_memory_bytes = 1000;
  ThreadRuntime rt(cfg, &w.decomp(), w.source.get(), iparams(), limits());
  const RunMetrics m = rt.run([](int rank, int) {
    return std::make_unique<TerminateThenMaybeOom>(rank);
  });
  EXPECT_TRUE(m.failed_oom);
  EXPECT_TRUE(m.ranks[1].oom);
  EXPECT_NE(m.abort_reason.find("rank 1 "), std::string::npos)
      << m.abort_reason;
  ASSERT_EQ(m.particles.size(), 2u);
  EXPECT_EQ(m.particles[0].id, 0u);
  EXPECT_EQ(m.particles[1].id, 1u);
}

TEST(ThreadRuntime, RejectsATimedCancel) {
  // Real threads have no deterministic mid-run instant: a cancel at 0
  // applies at run start, one later is rejected up front, both by the
  // runtime itself and through the driver.
  auto w = sf::testing::rotor_world(2);
  RuntimeConfig cfg = thread_config(2);
  cfg.cancels = {{3, 0.0}, {4, 0.25}};
  EXPECT_THROW(ThreadRuntime(cfg, &w.decomp(), w.source.get(), iparams(),
                             limits()),
               std::invalid_argument);
  cfg.cancels = {{3, 0.0}};
  EXPECT_NO_THROW(ThreadRuntime(cfg, &w.decomp(), w.source.get(), iparams(),
                                limits()));

  auto ecfg = sf::testing::test_config(Algorithm::kLoadOnDemand, 2);
  ecfg.runtime.cancels = {{0, 0.25}};
  const std::vector<Vec3> seeds{w.dataset->bounds().center()};
  EXPECT_THROW(run_experiment_threads(ecfg, w.decomp(), *w.source, seeds),
               std::invalid_argument);
}

TEST(ThreadRuntime, Validation) {
  auto w = sf::testing::rotor_world(2);
  RuntimeConfig bad = thread_config(0);
  EXPECT_THROW(ThreadRuntime(bad, &w.decomp(), w.source.get(), iparams(),
                             limits()),
               std::invalid_argument);
}

}  // namespace
}  // namespace sf
