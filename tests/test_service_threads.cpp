// Streamline service on the real-thread runtime (DESIGN.md §12): the
// equivalence gate must hold there too — a query through the service is
// bit-identical to a standalone run_experiment_threads of its seeds —
// including under schedule-perturbation fuzzing, and epoch-boundary
// cancellation drains a query's particles as kCancelled.

#include <gtest/gtest.h>

#include <vector>

#include "service/service.hpp"
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

ServiceConfig thread_service_config(Algorithm algo, int ranks) {
  ServiceConfig sc;
  sc.base = test_config(algo, ranks);
  sc.base.limits.max_steps = 500;
  sc.base.limits.max_time = 8.0;
  sc.use_thread_runtime = true;
  return sc;
}

std::vector<Vec3> seeds_for(const sf::testing::TestWorld& w, int n,
                            std::uint64_t seed) {
  Rng rng(seed);
  return random_seeds(w.dataset->bounds(), n, rng);
}

class ThreadServiceEquivalence : public ::testing::TestWithParam<Algorithm> {
};

TEST_P(ThreadServiceEquivalence, SingleQueryMatchesStandaloneThreads) {
  const Algorithm algo = GetParam();
  auto w = sf::testing::abc_world(2);
  const auto seeds = seeds_for(w, 18, 321);

  const ServiceConfig sc = thread_service_config(algo, 4);
  const RunMetrics solo =
      run_experiment_threads(sc.base, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(solo.failed_oom);

  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId q = svc.submit(seeds);
  svc.run_until_idle();

  EXPECT_EQ(svc.record(q).state, QueryState::kDone);
  expect_same_particles(solo.particles, svc.record(q).particles,
                        "thread-service-vs-solo");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ThreadServiceEquivalence,
                         ::testing::Values(Algorithm::kStaticAllocation,
                                           Algorithm::kLoadOnDemand,
                                           Algorithm::kHybridMasterSlave));

TEST(ThreadService, MultiQueryUnderScheduleFuzz) {
  // Three queries multiplexed on fuzzed thread schedules: per-query
  // results still match solo runs bit for bit (advance_batch is
  // schedule-independent) and cache sharing does not disturb them.
  auto w = sf::testing::rotor_world(3);
  const std::vector<std::vector<Vec3>> sets = {
      seeds_for(w, 10, 91), seeds_for(w, 8, 92), seeds_for(w, 12, 93)};

  ServiceConfig sc = thread_service_config(Algorithm::kLoadOnDemand, 4);
  sc.base.runtime.schedule_fuzz_seed = 0xf22;
  sc.max_queries_per_epoch = 3;
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  std::vector<QueryId> ids;
  for (const auto& s : sets) ids.push_back(svc.submit(s));
  svc.run_until_idle();

  for (std::size_t i = 0; i < sets.size(); ++i) {
    const RunMetrics solo =
        run_experiment_threads(sc.base, w.decomp(), *w.source, sets[i]);
    EXPECT_EQ(svc.record(ids[i]).state, QueryState::kDone);
    expect_same_particles(solo.particles, svc.record(ids[i]).particles,
                          "fuzzed-per-query");
  }
}

TEST(ThreadService, EpochBoundaryCancellationDrains) {
  // The thread runtime's cancellation granularity: a query cancelled at
  // (or before) epoch start terminates every particle as kCancelled at
  // its first advance, draining through the normal termination path.
  auto w = sf::testing::abc_world(2);
  const auto seeds = seeds_for(w, 12, 77);

  ExperimentConfig cfg = test_config(Algorithm::kLoadOnDemand, 3);
  cfg.limits.max_steps = 500;
  cfg.seed_queries.assign(seeds.size(), 9);
  cfg.runtime.cancels = {{9, 0.0}};
  const RunMetrics m =
      run_experiment_threads(cfg, w.decomp(), *w.source, seeds);

  ASSERT_EQ(m.particles.size(), seeds.size());
  for (const Particle& p : m.particles) {
    EXPECT_EQ(p.query, 9u);
    EXPECT_TRUE(p.status == ParticleStatus::kCancelled ||
                p.status == ParticleStatus::kExitedDomain)
        << "particle " << p.id;
    if (p.status == ParticleStatus::kCancelled) {
      EXPECT_EQ(p.steps, 0u) << "cancelled before any work";
    }
  }
  ASSERT_EQ(m.query_completions.size(), 1u);
  EXPECT_EQ(m.query_completions[0].query, 9u);
}

TEST(ThreadService, SharedCacheWarmsAcrossEpochs) {
  auto w = sf::testing::abc_world(3);
  const auto seeds = seeds_for(w, 16, 44);

  ServiceConfig sc = thread_service_config(Algorithm::kLoadOnDemand, 4);
  sc.max_queries_per_epoch = 1;
  StreamlineService svc(sc, &w.decomp(), w.source.get());
  const QueryId a = svc.submit(seeds);
  const QueryId b = svc.submit(seeds);
  svc.run_until_idle();

  expect_same_particles(svc.record(a).particles, svc.record(b).particles,
                        "warm-vs-cold-epoch");
  EXPECT_GT(svc.report().blocks_adopted, 0u);
}

}  // namespace
}  // namespace sf
