// Async block I/O tests (DESIGN.md §10): the loader coalesces, orders
// and cancels deterministically and reads each request once;
// prefetching never changes trajectories (both runtimes, all three
// algorithms, including under disk faults, stalls, crashes and schedule
// fuzz); the pinned LRU protects the batch's focus block at tiny
// capacities; and the invariant checker rejects every illegal
// pin/prefetch transition.

#include "io/async_loader.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "algorithms/driver.hpp"
#include "algorithms/hybrid.hpp"
#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"
#include "check/invariants.hpp"
#include "core/tracer.hpp"
#include "io/io_error.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/thread_runtime.hpp"
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

// ---------------------------------------------------------------------------
// AsyncBlockLoader unit tests
// ---------------------------------------------------------------------------

// A BlockSource fake for the loader tests.  load() logs every read in
// service order, blocks on a gate while reading `held` until the test
// opens it, and fails every read of `failing` with a checksum error.
// With one loader worker the gate decides when the worker is busy, and
// the log is the order in which the loader serviced its queues.
class GatedSource final : public BlockSource {
 public:
  GatedSource(const BlockSource* inner, BlockId held,
              BlockId failing = kInvalidBlock)
      : inner_(inner), held_(held), failing_(failing) {}

  GridPtr load(BlockId id) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      reads_.push_back(id);
      if (id == held_) {
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return open_; });
      }
    }
    if (id == failing_) {
      throw BlockReadError(BlockReadError::Kind::kCorrupt, id,
                           "checksum mismatch");
    }
    return inner_->load(id);
  }
  std::size_t block_bytes(BlockId id) const override {
    return inner_->block_bytes(id);
  }
  int num_blocks() const override { return inner_->num_blocks(); }

  // Wait until a worker is reading `held`.
  void wait_entered() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::vector<BlockId> reads() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reads_;
  }
  long count(BlockId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::count(reads_.begin(), reads_.end(), id);
  }

 private:
  const BlockSource* inner_;
  const BlockId held_;
  const BlockId failing_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<BlockId> reads_;
  mutable bool entered_ = false;
  bool open_ = false;
};

TEST(AsyncBlockLoader, CoalescesConcurrentRequestsIntoOneRead) {
  auto w = sf::testing::rotor_world(2);
  GatedSource source(w.source.get(), /*held=*/0);
  AsyncBlockLoader loader(&source, /*workers=*/1);

  auto f1 = loader.request(0, /*demand=*/false);
  source.wait_entered();  // the read is in flight...
  auto f2 = loader.request(0, /*demand=*/false);  // ...both of these
  auto f3 = loader.request(0, /*demand=*/true);   // coalesce onto it
  source.open();

  const GridPtr g1 = f1.get();
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(f2.get().get(), g1.get());
  EXPECT_EQ(f3.get().get(), g1.get());
  EXPECT_EQ(source.count(0), 1);
}

TEST(AsyncBlockLoader, DemandRequestsJumpThePrefetchQueue) {
  auto w = sf::testing::rotor_world(2);
  GatedSource source(w.source.get(), /*held=*/0);
  AsyncBlockLoader loader(&source, 1);  // one worker: the service order

  std::vector<std::shared_future<GridPtr>> futures;
  futures.push_back(loader.request(0, false));
  source.wait_entered();  // worker held on 0: everything below stays queued
  futures.push_back(loader.request(1, false));
  futures.push_back(loader.request(2, false));
  futures.push_back(loader.request(3, false));
  futures.push_back(loader.request(4, true));  // demand: overtakes
  futures.push_back(loader.request(3, true));  // promotes the queued 3
  source.open();
  for (auto& f : futures) ASSERT_NE(f.get(), nullptr);

  EXPECT_EQ(source.reads(), (std::vector<BlockId>{0, 4, 3, 1, 2}));
}

// One request, one BlockSource::load: the error goes out through the
// future as thrown, and a later request is a fresh read.
TEST(AsyncBlockLoader, FailedReadRethrowsAfterOneAttempt) {
  auto w = sf::testing::rotor_world(2);
  GatedSource source(w.source.get(), kInvalidBlock, /*failing=*/0);
  AsyncBlockLoader loader(&source, 1);

  for (long attempt = 1; attempt <= 2; ++attempt) {
    auto f = loader.request(0, true);
    try {
      (void)f.get();
      ADD_FAILURE() << "expected the read of block 0 to throw";
    } catch (const BlockReadError& e) {
      EXPECT_EQ(e.kind(), BlockReadError::Kind::kCorrupt);
      EXPECT_EQ(e.block(), 0);
    }
    EXPECT_EQ(source.count(0), attempt);
  }
  ASSERT_NE(loader.request(1, true).get(), nullptr);  // the worker lives on
}

TEST(AsyncBlockLoader, CancelQueuedResolvesNullButLoadingIsUncancellable) {
  auto w = sf::testing::rotor_world(2);
  GatedSource source(w.source.get(), /*held=*/0);
  AsyncBlockLoader loader(&source, 1);

  auto f0 = loader.request(0, false);
  source.wait_entered();
  auto f1 = loader.request(1, false);
  auto f2 = loader.request(2, true);

  EXPECT_FALSE(loader.cancel(0));   // already loading
  EXPECT_TRUE(loader.cancel(1));    // still queued
  EXPECT_FALSE(loader.cancel(1));   // second cancel is a no-op
  EXPECT_TRUE(loader.cancel(2));    // queued on the demand side
  EXPECT_FALSE(loader.cancel(99));  // never requested
  source.open();

  ASSERT_NE(f0.get(), nullptr);
  EXPECT_EQ(f1.get(), nullptr);  // cancellation contract: null, no throw
  EXPECT_EQ(f2.get(), nullptr);
  EXPECT_EQ(source.reads(), std::vector<BlockId>{0});
}

// The destructor cancels what is still queued, lets the read in flight
// finish, and joins.
TEST(AsyncBlockLoader, DestructorCancelsQueuedReadsAndJoins) {
  auto w = sf::testing::rotor_world(2);
  GatedSource source(w.source.get(), /*held=*/0);
  auto loader = std::make_unique<AsyncBlockLoader>(&source, 1);

  auto f0 = loader->request(0, false);
  source.wait_entered();
  auto f1 = loader->request(1, true);
  std::thread destroy([&loader] { loader.reset(); });
  EXPECT_EQ(f1.get(), nullptr);  // cancelled by the destructor...
  source.open();                 // ...which then waits out the read of 0
  destroy.join();

  ASSERT_NE(f0.get(), nullptr);
  EXPECT_EQ(source.reads(), std::vector<BlockId>{0});
}

// ---------------------------------------------------------------------------
// Simulated runtime: async must be invisible in the results
// ---------------------------------------------------------------------------

struct SimWorld {
  sf::testing::TestWorld w = sf::testing::rotor_world(4);  // 64 blocks
  std::vector<Vec3> seeds;

  SimWorld() {
    Rng rng(77);
    seeds = random_seeds(w.dataset->bounds(), 48, rng);
  }

  ExperimentConfig config(Algorithm algo, bool async) const {
    auto cfg = test_config(algo, 4);
    cfg.runtime.cache_blocks = 6;  // constrained LRU: heavy purge traffic
    cfg.limits.max_steps = 800;
    cfg.limits.max_time = 12.0;
    cfg.runtime.async_io.enabled = async;
    return cfg;
  }

  RunMetrics run(const ExperimentConfig& cfg) const {
    return run_experiment(cfg, w.decomp(), *w.source, seeds);
  }
};

std::string algo_test_name(const ::testing::TestParamInfo<Algorithm>& p) {
  switch (p.param) {
    case Algorithm::kStaticAllocation: return "Static";
    case Algorithm::kLoadOnDemand: return "LoD";
    case Algorithm::kHybridMasterSlave: return "Hybrid";
  }
  return "Unknown";
}

class AsyncSimEquivalence : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AsyncSimEquivalence, TrajectoriesMatchSyncOracle) {
  const Algorithm algo = GetParam();
  const SimWorld sw;

  const RunMetrics sync = sw.run(sw.config(algo, /*async=*/false));
  const RunMetrics async = sw.run(sw.config(algo, /*async=*/true));
  ASSERT_FALSE(sync.failed_oom);
  ASSERT_FALSE(async.failed_oom);

  // Zero tolerance: positions, steps, status and times are bit-equal.
  expect_same_particles(sync.particles, async.particles, "async-vs-sync");

  // The sync oracle must not have prefetched; the async run must have —
  // except static allocation, whose one-shot bulk demand loads can leave
  // no prefetch window at this scale (the bench covers the large case).
  EXPECT_EQ(sync.total_prefetches_issued(), 0u);
  if (algo != Algorithm::kStaticAllocation) {
    EXPECT_GT(async.total_prefetches_issued(), 0u);
  }
  // Every issued prefetch left the state machine (claimed or wasted).
  EXPECT_EQ(async.total_prefetch_hits() + async.total_prefetches_wasted(),
            async.total_prefetches_issued());
}

TEST_P(AsyncSimEquivalence, DisabledAsyncConfigIsInert) {
  const Algorithm algo = GetParam();
  const SimWorld sw;
  const RunMetrics base = sw.run(sw.config(algo, false));

  auto cfg = sw.config(algo, false);
  cfg.runtime.async_io.workers = 7;  // knobs without the master switch
  cfg.runtime.async_io.prefetch_depth = 9;
  cfg.runtime.async_io.staging_blocks = 1;
  const RunMetrics m = sw.run(cfg);

  EXPECT_EQ(m.wall_clock, base.wall_clock);
  EXPECT_EQ(m.total_blocks_loaded(), base.total_blocks_loaded());
  EXPECT_EQ(m.total_prefetches_issued(), 0u);
  expect_same_particles(base.particles, m.particles, "inert-config");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AsyncSimEquivalence,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave),
                         algo_test_name);

// Load On Demand's demand sequence is timing-independent (each rank's
// next block depends only on its pool), so async must also preserve the
// load/purge ledger exactly — a prefetch hit counts as the same one
// load the demand would have issued.
TEST(AsyncSimIo, PrefetchHitsCountAsLoadsExactlyOnce) {
  const SimWorld sw;
  const RunMetrics sync = sw.run(sw.config(Algorithm::kLoadOnDemand, false));
  const RunMetrics async = sw.run(sw.config(Algorithm::kLoadOnDemand, true));

  EXPECT_EQ(async.total_blocks_loaded(), sync.total_blocks_loaded());
  EXPECT_EQ(async.total_blocks_purged(), sync.total_blocks_purged());
  EXPECT_EQ(async.block_efficiency(), sync.block_efficiency());
  EXPECT_GT(async.total_prefetch_hits(), 0u);
  // Overlap can only remove stall, never add it.
  EXPECT_LE(async.total_stall_time(), sync.total_stall_time());
}

TEST(AsyncSimIo, RepeatAsyncRunsAreDeterministic) {
  const SimWorld sw;
  const auto cfg = sw.config(Algorithm::kLoadOnDemand, true);
  const RunMetrics a = sw.run(cfg);
  const RunMetrics b = sw.run(cfg);
  EXPECT_EQ(a.wall_clock, b.wall_clock);
  EXPECT_EQ(a.total_prefetches_issued(), b.total_prefetches_issued());
  EXPECT_EQ(a.total_prefetch_hits(), b.total_prefetch_hits());
  expect_same_particles(a.particles, b.particles, "async-repeat");
}

// ---------------------------------------------------------------------------
// Prefetch x fault matrix (simulated runtime)
// ---------------------------------------------------------------------------

TEST(AsyncFaultMatrix, DiskFaultsDuringPrefetchRetryToTheSameResult) {
  const SimWorld sw;
  const RunMetrics oracle =
      sw.run(sw.config(Algorithm::kLoadOnDemand, false));

  auto cfg = sw.config(Algorithm::kLoadOnDemand, true);
  cfg.runtime.fault.disk_fault_rate = 0.3;  // default retry ladder: 8 deep
  const RunMetrics m = sw.run(cfg);

  ASSERT_FALSE(m.failed_oom);
  ASSERT_FALSE(m.failed_fault);
  EXPECT_GT(m.fault.disk_faults, 0u);
  EXPECT_GT(m.total_prefetches_issued(), 0u);
  expect_same_particles(oracle.particles, m.particles, "faulted-prefetch");
}

TEST(AsyncFaultMatrix, StallsExceedingTheBackoffCapOnlySlowTheRun) {
  const SimWorld sw;
  const RunMetrics oracle =
      sw.run(sw.config(Algorithm::kLoadOnDemand, false));

  auto cfg = sw.config(Algorithm::kLoadOnDemand, true);
  cfg.runtime.fault.disk_stall_rate = 0.5;
  cfg.runtime.fault.disk_stall_seconds = 2.0;  // 4x the 0.5 s backoff cap
  const RunMetrics m = sw.run(cfg);

  ASSERT_FALSE(m.failed_fault);
  EXPECT_GT(m.fault.disk_stalls, 0u);
  EXPECT_EQ(m.fault.disk_faults, 0u);  // a stall never consumes a retry
  expect_same_particles(oracle.particles, m.particles, "stalled-prefetch");
}

TEST(AsyncFaultMatrix, CrashWithOutstandingPrefetchesRecoversCleanly) {
  const SimWorld sw;
  const RunMetrics oracle =
      sw.run(sw.config(Algorithm::kLoadOnDemand, false));
  ASSERT_GT(oracle.wall_clock, 0.0);

  auto cfg = sw.config(Algorithm::kLoadOnDemand, true);
  // Kill a worker mid-run, while its prefetch pipeline is primed; take
  // checkpoints so the recovery path exercises the resident-block
  // snapshot too.  Rank 0 is the immune termination counter.
  cfg.runtime.fault.crashes = {{0.4 * oracle.wall_clock, 2}};
  cfg.runtime.fault.checkpoint_interval = 0.2 * oracle.wall_clock;
  const RunMetrics m = sw.run(cfg);

  ASSERT_FALSE(m.failed_fault);
  EXPECT_EQ(m.fault.crashes_injected, 1u);
  EXPECT_EQ(m.fault.crashes_survived, 1u);
  EXPECT_TRUE(m.ranks[2].crashed);
  expect_same_particles(oracle.particles, m.particles, "crash-recovery");

  // The checkpointed cache snapshots must never include a half-loaded
  // block: staged prefetches live outside the cache until claimed, so
  // every resident list fits the LRU capacity.
  ASSERT_NE(m.last_checkpoint, nullptr);
  for (const CheckpointRankState& rs : m.last_checkpoint->ranks) {
    EXPECT_LE(rs.resident.size(), cfg.runtime.cache_blocks)
        << "rank " << rs.rank;
  }
}

// ---------------------------------------------------------------------------
// Thread runtime: real overlapped reads, same results
// ---------------------------------------------------------------------------

IntegratorParams iparams() { return {}; }
TraceLimits thread_limits() {
  return {.max_time = 15.0, .max_steps = 1500, .min_speed = 1e-8};
}

std::vector<Particle> run_threads_async(Algorithm algo, int ranks,
                                        const sf::testing::TestWorld& w,
                                        const std::vector<Vec3>& seeds,
                                        std::uint64_t fuzz_seed = 0) {
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
          partition_evenly_by_block(ranks, w.decomp(),
                                    std::move(particles)));
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

  RuntimeConfig cfg;
  cfg.num_ranks = ranks;
  cfg.model = sf::testing::test_model();
  cfg.cache_blocks = 6;  // constrained: prefetches matter
  cfg.schedule_fuzz_seed = fuzz_seed;
  cfg.async_io.enabled = true;
  cfg.async_io.workers = 2;
  ThreadRuntime rt(cfg, &w.decomp(), w.source.get(), iparams(),
                   thread_limits());
  RunMetrics m = rt.run(factory);
  EXPECT_FALSE(m.failed_oom);
  EXPECT_EQ(m.total_prefetch_hits() + m.total_prefetches_wasted(),
            m.total_prefetches_issued());
  m.particles.insert(m.particles.end(), rejected.begin(), rejected.end());
  std::sort(m.particles.begin(), m.particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  return m.particles;
}

class AsyncThreadEquivalence : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AsyncThreadEquivalence, MatchesSerialOracle) {
  const Algorithm algo = GetParam();
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds = random_seeds(w.dataset->bounds(), 20, rng);
  const auto serial = trace_all(*w.dataset, seeds, iparams(),
                                thread_limits());

  expect_same_particles(serial, run_threads_async(algo, 4, w, seeds),
                        "threads-async");
  // Schedule fuzz perturbs thread interleavings; results must not move.
  expect_same_particles(serial,
                        run_threads_async(algo, 4, w, seeds, 0xfeedbeef),
                        "threads-async-fuzzed");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AsyncThreadEquivalence,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave),
                         algo_test_name);

// Every block that enters a cache was read once, so the bytes a run
// reports cover at least its loads — prefetch claims included, whether
// the grid was staged or still in flight when the demand came.
TEST(AsyncIoBytes, EveryLoadedBlockCountsItsBytesOnBothRuntimes) {
  const SimWorld sw;
  const auto cfg = sw.config(Algorithm::kLoadOnDemand, /*async=*/true);
  const std::uint64_t block_bytes = sw.w.source->block_bytes(0);
  const RunMetrics sim = sw.run(cfg);
  const RunMetrics threads =
      run_experiment_threads(cfg, sw.w.decomp(), *sw.w.source, sw.seeds);
  for (const RunMetrics* m : {&sim, &threads}) {
    ASSERT_FALSE(m->failed_oom);
    ASSERT_GT(m->total_prefetch_hits(), 0u);
    EXPECT_GE(m->total_bytes_read(), m->total_blocks_loaded() * block_bytes)
        << (m == &sim ? "SimRuntime" : "ThreadRuntime");
  }
}

// ---------------------------------------------------------------------------
// Focus pinning at tiny cache capacities (the PR's eviction regression)
// ---------------------------------------------------------------------------

// At capacity 1 every access-miss insert evicts — historically including
// the batch's own focus block, leaving advance_batch's shared cursor on
// a purged grid.  With pin hooks the focus survives every probe insert
// and the capacity-1 run reproduces the all-resident trace exactly.
TEST(TracerFocusPin, CapacityOneCacheMatchesAllResidentTrace) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(11);
  const auto seeds = random_seeds(w.dataset->bounds(), 16, rng);
  const TraceLimits limits = thread_limits();
  const auto reference = trace_all(*w.dataset, seeds, iparams(), limits);

  BlockCache cache(1);
  std::vector<GridPtr> keepalive;  // probe grids may be evicted instantly
  BlockId focus = kInvalidBlock;
  const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
    if (const StructuredGrid* g = cache.find(id)) return g;
    GridPtr grid = w.dataset->block(id);
    keepalive.push_back(grid);
    cache.insert(id, grid);
    if (focus != kInvalidBlock) {
      // The regression: an unpinned focus would be the eviction victim.
      EXPECT_TRUE(cache.contains(focus)) << "focus " << focus
                                         << " evicted by probe " << id;
    }
    return grid.get();
  };
  const BlockPinHooks pins{
      .pin = [&](BlockId id) { cache.pin(id); focus = id; },
      .unpin =
          [&](BlockId id) {
            cache.unpin(id);
            if (focus == id) focus = kInvalidBlock;
          },
  };

  std::vector<Particle> rejected;
  std::vector<Particle> particles =
      make_particles(w.decomp(), seeds, rejected);
  ASSERT_TRUE(rejected.empty());
  std::sort(particles.begin(), particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });

  const Tracer tracer(&w.decomp(), iparams(), limits);
  tracer.advance_batch(particles, access, nullptr, &pins);

  EXPECT_GT(cache.purges(), 0u);           // the cache really thrashed
  EXPECT_LE(cache.size(), 2u);             // capacity + pinned overflow
  EXPECT_EQ(focus, kInvalidBlock);         // every pin was released
  expect_same_particles(reference, particles, "capacity-one");
}

// ---------------------------------------------------------------------------
// Invariant checker: pin and prefetch state machines
// ---------------------------------------------------------------------------

// Run `fn`, require an InvariantViolation, and hand back its diagnostic.
template <typename Fn>
InvariantDiagnostic expect_violation(Fn&& fn) {
  try {
    fn();
  } catch (const InvariantViolation& v) {
    return v.diag();
  }
  ADD_FAILURE() << "expected an InvariantViolation";
  return {};
}

CheckerConfig cache_config(std::size_t cache_blocks) {
  CheckerConfig cfg;
  cfg.num_ranks = 2;
  cfg.cache_blocks = cache_blocks;
  return cfg;
}

TEST(InvariantCheckerAsync, PinnedPurgeDetected) {
  InvariantChecker ck(cache_config(2));
  ck.on_block_insert(0, 1, {1}, 0.0);
  ck.on_block_insert(0, 2, {2, 1}, 0.1);
  ck.on_block_pin(0, 1);
  // A buggy cache that evicts the pinned LRU block 1 instead of 2.
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_block_insert(0, 3, {3, 2}, 0.2); });
  EXPECT_EQ(diag.kind, ViolationKind::kPinnedPurge);
  EXPECT_EQ(diag.rank, 0);
  EXPECT_EQ(diag.block, 1);
}

TEST(InvariantCheckerAsync, PinSkippingEvictionAccepted) {
  InvariantChecker ck(cache_config(2));
  ck.on_block_insert(0, 1, {1}, 0.0);
  ck.on_block_insert(0, 2, {2, 1}, 0.1);
  ck.on_block_pin(0, 1);
  ck.on_block_insert(0, 3, {3, 1}, 0.2);       // correct victim: 2
  ck.on_block_unpin(0, 1, {3, 1}, 0.3);        // no deferred work
  ck.on_block_insert(0, 4, {4, 3}, 0.4);       // 1 evictable again
}

TEST(InvariantCheckerAsync, AllPinnedOverflowAndDeferredEvictionAccepted) {
  InvariantChecker ck(cache_config(1));
  ck.on_block_insert(0, 1, {1}, 0.0);
  ck.on_block_pin(0, 1);
  ck.on_block_pin(0, 2);  // pin the in-flight target before its insert
  ck.on_block_insert(0, 2, {2, 1}, 0.1);  // legal: everything is pinned
  ck.on_block_unpin(0, 1, {2}, 0.2);      // deferred eviction reclaims 1
}

TEST(InvariantCheckerAsync, UnpinWithoutPinDetected) {
  InvariantChecker ck(cache_config(2));
  ck.on_block_insert(0, 1, {1}, 0.0);
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_block_unpin(0, 1, {1}, 0.1); });
  EXPECT_EQ(diag.kind, ViolationKind::kCacheMismatch);
  EXPECT_EQ(diag.block, 1);
}

TEST(InvariantCheckerAsync, LingeringOverflowAfterUnpinDetected) {
  InvariantChecker ck(cache_config(1));
  ck.on_block_insert(0, 1, {1}, 0.0);
  ck.on_block_pin(0, 1);
  ck.on_block_pin(0, 2);
  ck.on_block_insert(0, 2, {2, 1}, 0.1);
  // The unpin must run the deferred eviction; keeping both blocks is an
  // overflow with an evictable victim available.
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_block_unpin(0, 1, {2, 1}, 0.2); });
  EXPECT_EQ(diag.kind, ViolationKind::kCacheOverflow);
}

TEST(InvariantCheckerAsync, PrefetchDoubleIssueDetected) {
  InvariantChecker ck(cache_config(4));
  ck.on_prefetch_issued(0, 5, 0.0);
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_prefetch_issued(0, 5, 0.1); });
  EXPECT_EQ(diag.kind, ViolationKind::kPrefetchState);
  EXPECT_EQ(diag.block, 5);
}

TEST(InvariantCheckerAsync, PrefetchForResidentBlockDetected) {
  InvariantChecker ck(cache_config(4));
  ck.on_block_insert(0, 5, {5}, 0.0);
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_prefetch_issued(0, 5, 0.1); });
  EXPECT_EQ(diag.kind, ViolationKind::kPrefetchState);
}

TEST(InvariantCheckerAsync, StageWithoutIssueDetected) {
  InvariantChecker ck(cache_config(4));
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_prefetch_staged(0, 5, 0.0); });
  EXPECT_EQ(diag.kind, ViolationKind::kPrefetchState);
}

TEST(InvariantCheckerAsync, ClaimWithoutIssueDetected) {
  InvariantChecker ck(cache_config(4));
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_prefetch_claimed(0, 5, 0.0); });
  EXPECT_EQ(diag.kind, ViolationKind::kPrefetchState);
}

TEST(InvariantCheckerAsync, UnresolvedPrefetchAtRunEndDetected) {
  InvariantChecker ck(cache_config(4));
  ck.on_prefetch_issued(1, 8, 0.0);
  const InvariantDiagnostic diag = expect_violation(
      [&] { ck.on_run_end(/*completed=*/true, 1.0); });
  EXPECT_EQ(diag.kind, ViolationKind::kUnresolvedPrefetch);
  EXPECT_EQ(diag.rank, 1);
  EXPECT_EQ(diag.block, 8);
}

TEST(InvariantCheckerAsync, FullPrefetchLifecyclesAccepted) {
  InvariantChecker ck(cache_config(4));
  ck.on_prefetch_issued(0, 1, 0.0);   // issued -> staged -> claimed
  ck.on_prefetch_staged(0, 1, 0.1);
  ck.on_prefetch_claimed(0, 1, 0.2);
  ck.on_block_insert(0, 1, {1}, 0.2);
  ck.on_prefetch_issued(0, 2, 0.3);   // issued -> claimed (piggyback)
  ck.on_prefetch_claimed(0, 2, 0.4);
  ck.on_block_insert(0, 2, {2, 1}, 0.4);
  ck.on_prefetch_issued(0, 3, 0.5);   // issued -> cancelled (abandoned)
  ck.on_prefetch_cancelled(0, 3, 0.6);
  ck.on_prefetch_issued(0, 4, 0.7);   // staged -> cancelled (discarded)
  ck.on_prefetch_staged(0, 4, 0.8);
  ck.on_prefetch_cancelled(0, 4, 0.9);
  ck.on_run_end(/*completed=*/true, 1.0);
}

TEST(InvariantCheckerAsync, CrashClearsTheDeadRanksAsyncState) {
  CheckerConfig cfg = cache_config(4);
  cfg.fault_mode = true;
  InvariantChecker ck(cfg);
  ck.on_block_insert(1, 2, {2}, 0.0);
  ck.on_block_pin(1, 2);
  ck.on_prefetch_issued(1, 3, 0.1);
  ck.on_crash(1, 0.2);  // takes pins and prefetches down with the rank
  ck.on_run_end(/*completed=*/true, 1.0);  // no unresolved-prefetch fail
}

}  // namespace
}  // namespace sf
