// Cross-algorithm equivalence: the paper's three parallelization
// strategies are *schedules* of the same numerical computation, so all
// three must produce bit-identical terminated particles for the same
// dataset and seeds — across rank counts and cache pressures.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "algorithms/driver.hpp"
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

class AlgorithmEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AlgorithmEquivalence, AllThreeAgreeBitForBit) {
  const auto [ranks, cache] = GetParam();
  auto w = sf::testing::abc_world(2);
  Rng rng(123);
  auto seeds = random_seeds(w.dataset->bounds(), 30, rng);
  // Include out-of-domain and boundary seeds.
  seeds.push_back({-5, 0, 0});
  seeds.push_back(w.dataset->bounds().lo);

  auto make = [&](Algorithm a) {
    auto cfg = test_config(a, ranks);
    cfg.runtime.cache_blocks = cache;
    cfg.limits.max_steps = 600;
    cfg.limits.max_time = 10.0;
    return run_experiment(cfg, w.decomp(), *w.source, seeds);
  };

  const RunMetrics st = make(Algorithm::kStaticAllocation);
  const RunMetrics lod = make(Algorithm::kLoadOnDemand);
  const RunMetrics hy = make(Algorithm::kHybridMasterSlave);
  ASSERT_FALSE(st.failed_oom);
  ASSERT_FALSE(lod.failed_oom);
  ASSERT_FALSE(hy.failed_oom);

  expect_same_particles(st.particles, lod.particles, "static-vs-lod");
  expect_same_particles(st.particles, hy.particles, "static-vs-hybrid");
}

INSTANTIATE_TEST_SUITE_P(
    RanksAndCaches, AlgorithmEquivalence,
    ::testing::Values(std::tuple{2, 16ul}, std::tuple{4, 16ul},
                      std::tuple{7, 16ul}, std::tuple{4, 2ul},
                      std::tuple{8, 4ul}));

TEST(DriverEquivalence, RankCountDoesNotChangeResults) {
  auto w = sf::testing::rotor_world(3);
  Rng rng(77);
  const auto seeds = random_seeds(w.dataset->bounds(), 25, rng);

  std::vector<Particle> reference;
  for (const int ranks : {1, 2, 5, 9}) {
    auto cfg = test_config(Algorithm::kStaticAllocation, ranks);
    cfg.limits.max_steps = 500;
    const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
    ASSERT_FALSE(m.failed_oom);
    if (reference.empty()) {
      reference = m.particles;
    } else {
      expect_same_particles(reference, m.particles, "rank-sweep");
    }
  }
}

TEST(DriverEquivalence, MatchesSerialTraceAll) {
  // The parallel algorithms must agree with the serial public API.
  auto w = sf::testing::abc_world(2);
  Rng rng(55);
  const auto seeds = random_seeds(w.dataset->bounds(), 15, rng);

  auto cfg = test_config(Algorithm::kLoadOnDemand, 3);
  cfg.limits.max_steps = 400;
  cfg.limits.max_time = 8.0;
  const RunMetrics m = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(m.failed_oom);

  const auto serial =
      trace_all(*w.dataset, seeds, cfg.integrator, cfg.limits);
  expect_same_particles(m.particles, serial, "parallel-vs-serial");
}

TEST(DriverEquivalence, RunsAreDeterministic) {
  auto w = sf::testing::rotor_world(2);
  Rng rng(99);
  const auto seeds = random_seeds(w.dataset->bounds(), 20, rng);
  const auto cfg = test_config(Algorithm::kHybridMasterSlave, 5);

  const RunMetrics a = run_experiment(cfg, w.decomp(), *w.source, seeds);
  const RunMetrics b = run_experiment(cfg, w.decomp(), *w.source, seeds);
  ASSERT_FALSE(a.failed_oom);
  EXPECT_EQ(a.wall_clock, b.wall_clock);
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.total_blocks_loaded(), b.total_blocks_loaded());
  expect_same_particles(a.particles, b.particles, "repeat");
}

TEST(DriverEquivalence, RejectsZeroRanks) {
  // A rank count below 1 is a typed error naming num_ranks on every
  // algorithm and both runtimes, before any seed is partitioned.
  auto w = sf::testing::rotor_world(2);
  Rng rng(5);
  const auto seeds = random_seeds(w.dataset->bounds(), 10, rng);
  for (const Algorithm algo :
       {Algorithm::kStaticAllocation, Algorithm::kLoadOnDemand,
        Algorithm::kHybridMasterSlave}) {
    for (const bool threads : {false, true}) {
      const auto cfg = test_config(algo, 0);
      std::string message;
      try {
        if (threads) {
          run_experiment_threads(cfg, w.decomp(), *w.source, seeds);
        } else {
          run_experiment(cfg, w.decomp(), *w.source, seeds);
        }
      } catch (const std::invalid_argument& e) {
        message = e.what();
      }
      EXPECT_NE(message.find("num_ranks"), std::string::npos)
          << to_string(algo) << (threads ? " threads" : " sim") << ": '"
          << message << "'";
    }
  }
}

TEST(DriverEquivalence, AlgorithmNames) {
  EXPECT_STREQ(to_string(Algorithm::kStaticAllocation),
               "static-allocation");
  EXPECT_STREQ(to_string(Algorithm::kLoadOnDemand), "load-on-demand");
  EXPECT_STREQ(to_string(Algorithm::kHybridMasterSlave),
               "hybrid-master-slave");
}

}  // namespace
}  // namespace sf
