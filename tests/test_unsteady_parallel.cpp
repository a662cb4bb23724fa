#include "analysis/pathline_lod.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "analysis/pathlines.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

// A time-varying field with an exact solution: uniform flow whose x
// velocity ramps linearly in time, v = (1 + 2t, 0, 0).
struct Slices {
  BlockDecomposition decomp{{{0, 0, 0}, {1, 1, 1}}, 1, 1, 1};
  std::vector<DatasetPtr> slices;
  std::vector<double> times;
};

Slices ramp_slices(int n_slices, const AABB& box, int blocks) {
  Slices s;
  s.decomp = BlockDecomposition(box, blocks, blocks, blocks);
  for (int i = 0; i < n_slices; ++i) {
    const double t = static_cast<double>(i) / (n_slices - 1);
    auto field =
        std::make_shared<UniformField>(Vec3{1.0 + 2.0 * t, 0, 0}, box);
    s.slices.push_back(
        std::make_shared<BlockedDataset>(field, s.decomp, 5, 1));
    s.times.push_back(t);
  }
  return s;
}

Slices gyre_slices(int n_slices, double t_end, int blocks) {
  Slices s;
  const DoubleGyreField gyre;
  s.decomp = BlockDecomposition(gyre.bounds(), blocks, blocks, 1);
  for (int i = 0; i < n_slices; ++i) {
    const double t = t_end * i / (n_slices - 1);
    // Freeze the gyre at time t for this slice.
    class Frozen final : public VectorField {
     public:
      Frozen(double time) : t_(time) {}
      bool sample(const Vec3& p, Vec3& out) const override {
        return f_.sample(p, t_, out);
      }
      AABB bounds() const override { return f_.bounds(); }

     private:
      DoubleGyreField f_;
      double t_;
    };
    s.slices.push_back(std::make_shared<BlockedDataset>(
        std::make_shared<Frozen>(t), s.decomp, 17, 2));
    s.times.push_back(t);
  }
  return s;
}

std::vector<Vec3> gyre_seeds(int n, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  std::vector<Vec3> seeds;
  for (int i = 0; i < n; ++i) {
    seeds.push_back({rng.uniform(0.2, 1.8), rng.uniform(0.2, 0.8), 0.0});
  }
  return seeds;
}

PathlineExperimentConfig gyre_config(int ranks, std::size_t cache_blocks) {
  PathlineExperimentConfig cfg;
  cfg.runtime.num_ranks = ranks;
  cfg.runtime.model = sf::testing::test_model();
  cfg.runtime.cache_blocks = cache_blocks;
  cfg.limits.max_time = 8.0;
  cfg.limits.max_steps = 5000;
  return cfg;
}

// The serial reference: every pathline advanced alone with every
// spacetime block available.
std::vector<Particle> serial_pathlines(const Slices& s,
                                       const PathlineExperimentConfig& cfg,
                                       const std::vector<Vec3>& seeds) {
  const UnsteadyTracer tracer(&s.decomp, s.times, cfg.integrator,
                              cfg.limits);
  const TimeSliceBlockSource source(s.slices);
  std::vector<GridPtr> grids;
  for (BlockId id = 0; id < source.num_blocks(); ++id) {
    grids.push_back(source.load(id));
  }
  std::vector<Particle> out;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Particle p;
    p.id = static_cast<std::uint32_t>(i);
    p.pos = seeds[i];
    p.time = s.times.front();
    tracer.advance(p, [&grids](BlockId id) { return grids[id].get(); });
    out.push_back(p);
  }
  return out;
}

// Status, steps, position and time, bit for bit, in id order.
void expect_same_pathlines(const std::vector<Particle>& got,
                           const std::vector<Particle>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << i;
    EXPECT_EQ(got[i].status, want[i].status) << i;
    EXPECT_EQ(got[i].steps, want[i].steps) << i;
    EXPECT_EQ(got[i].pos.x, want[i].pos.x) << i;
    EXPECT_EQ(got[i].pos.y, want[i].pos.y) << i;
    EXPECT_EQ(got[i].pos.z, want[i].pos.z) << i;
    EXPECT_EQ(got[i].time, want[i].time) << i;
  }
}

// The message of the std::invalid_argument run_pathline_experiment
// throws for `cfg`, or "" when it does not throw.
std::string rejection_of(const PathlineExperimentConfig& cfg) {
  auto s = gyre_slices(3, 8.0, 2);
  const std::vector<Vec3> seeds{{0.7, 0.4, 0.0}};
  try {
    (void)run_pathline_experiment(cfg, s.decomp, s.slices, s.times, seeds);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(UnsteadyTracer, EncodingRoundTrips) {
  auto s = ramp_slices(3, {{0, 0, 0}, {1, 1, 1}}, 2);
  UnsteadyTracer tracer(&s.decomp, s.times, {}, {});
  EXPECT_EQ(tracer.num_spacetime_blocks(), 3 * 8);
  for (int slice = 0; slice < 3; ++slice) {
    for (BlockId b = 0; b < 8; ++b) {
      const BlockId id = tracer.encode({slice, b});
      EXPECT_EQ(tracer.decode(id).slice, slice);
      EXPECT_EQ(tracer.decode(id).spatial, b);
    }
  }
}

TEST(UnsteadyTracer, NeedsReportsBracketPair) {
  auto s = ramp_slices(3, {{0, 0, 0}, {1, 1, 1}}, 2);
  UnsteadyTracer tracer(&s.decomp, s.times, {}, {});
  Particle p;
  p.pos = {0.1, 0.1, 0.1};
  p.time = 0.25;  // inside bracket [0, 0.5]
  BlockId lo, hi;
  ASSERT_TRUE(tracer.needs(p, lo, hi));
  EXPECT_EQ(tracer.decode(lo).slice, 0);
  EXPECT_EQ(tracer.decode(hi).slice, 1);
  EXPECT_EQ(tracer.decode(lo).spatial, s.decomp.block_of(p.pos));

  p.time = 1.0;  // at/after the last slice: nothing more to do
  EXPECT_FALSE(tracer.needs(p, lo, hi));
  p.time = 0.25;
  p.pos = {5, 5, 5};
  EXPECT_FALSE(tracer.needs(p, lo, hi));
}

TEST(UnsteadyTracer, RampFlowHasExactDisplacement) {
  // x(t) = x0 + t + t^2 for v = 1 + 2t; from x0=0.05 over t in [0,0.6]:
  // displacement 0.96 (still inside the box).
  const AABB box{{0, 0, 0}, {2, 1, 1}};
  auto s = ramp_slices(6, box, 2);
  IntegratorParams ip;
  ip.tol = 1e-10;
  TraceLimits lim;
  lim.max_time = 0.6;
  UnsteadyTracer tracer(&s.decomp, s.times, ip, lim);
  TimeSliceBlockSource source(s.slices);

  Particle p;
  p.pos = {0.05, 0.5, 0.5};
  std::vector<GridPtr> grids;
  for (BlockId id = 0; id < source.num_blocks(); ++id) {
    grids.push_back(source.load(id));
  }
  const auto out = tracer.advance(
      p, [&grids](BlockId id) { return grids[id].get(); });
  EXPECT_EQ(out.status, ParticleStatus::kMaxTime);
  EXPECT_NEAR(p.pos.x, 0.05 + 0.6 + 0.36, 1e-6);
  EXPECT_NEAR(p.time, 0.6, 1e-12);
}

TEST(UnsteadyTracer, StopsAtMissingSliceBlockAndResumes) {
  const AABB box{{0, 0, 0}, {2, 1, 1}};
  auto s = ramp_slices(4, box, 2);
  UnsteadyTracer tracer(&s.decomp, s.times, {}, {.max_time = 1.0,
                                                 .max_steps = 100000,
                                                 .min_speed = 0.0});
  TimeSliceBlockSource source(s.slices);

  std::map<BlockId, GridPtr> have;
  auto access = [&](BlockId id) -> const StructuredGrid* {
    auto it = have.find(id);
    return it == have.end() ? nullptr : it->second.get();
  };

  Particle p;
  p.pos = {0.05, 0.5, 0.5};
  int fetches = 0;
  AdvanceOutcome out = tracer.advance(p, access);
  while (out.status == ParticleStatus::kActive && fetches < 100) {
    have[out.blocking_block] = source.load(out.blocking_block);
    out = tracer.advance(p, access);
    ++fetches;
  }
  EXPECT_TRUE(is_terminal(out.status));
  // It needed multiple slice pairs and spatial blocks along the way.
  EXPECT_GE(fetches, 4);
}

TEST(PathlineLod, MatchesSerialUnsteadyTracerBitForBit) {
  auto s = gyre_slices(9, 8.0, 4);
  Rng rng(3);
  std::vector<Vec3> seeds;
  for (int i = 0; i < 20; ++i) {
    seeds.push_back({rng.uniform(0.2, 1.8), rng.uniform(0.2, 0.8), 0.0});
  }

  PathlineExperimentConfig cfg;
  cfg.runtime.num_ranks = 4;
  cfg.runtime.model = sf::testing::test_model();
  cfg.runtime.cache_blocks = 8;
  cfg.limits.max_time = 8.0;
  cfg.limits.max_steps = 5000;
  const RunMetrics m = run_pathline_experiment(cfg, s.decomp, s.slices,
                                               s.times, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), seeds.size());

  // Serial reference with every spacetime block available.
  UnsteadyTracer tracer(&s.decomp, s.times, cfg.integrator, cfg.limits);
  TimeSliceBlockSource source(s.slices);
  std::vector<GridPtr> grids;
  for (BlockId id = 0; id < source.num_blocks(); ++id) {
    grids.push_back(source.load(id));
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Particle p;
    p.id = static_cast<std::uint32_t>(i);
    p.pos = seeds[i];
    p.time = s.times.front();
    tracer.advance(p, [&grids](BlockId id) { return grids[id].get(); });
    EXPECT_EQ(m.particles[i].steps, p.steps) << i;
    EXPECT_EQ(m.particles[i].pos.x, p.pos.x) << i;
    EXPECT_EQ(m.particles[i].pos.y, p.pos.y) << i;
    EXPECT_EQ(m.particles[i].status, p.status) << i;
  }
}

TEST(PathlineLod, ApproximatesTheContinuousGyre) {
  // Slice interpolation should track the true unsteady gyre closely
  // when slices are dense.
  auto s = gyre_slices(41, 5.0, 4);
  const std::vector<Vec3> seeds{{0.7, 0.4, 0.0}, {1.3, 0.6, 0.0}};

  PathlineExperimentConfig cfg;
  cfg.runtime.num_ranks = 2;
  cfg.runtime.model = sf::testing::test_model();
  cfg.runtime.cache_blocks = 16;
  cfg.integrator.tol = 1e-9;
  cfg.limits.max_time = 5.0;
  cfg.limits.max_steps = 50000;
  const RunMetrics m = run_pathline_experiment(cfg, s.decomp, s.slices,
                                               s.times, seeds);
  ASSERT_FALSE(m.failed_oom);
  ASSERT_EQ(m.particles.size(), 2u);

  const DoubleGyreField gyre;
  IntegratorParams ip;
  ip.tol = 1e-10;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Vec3 truth = advect(gyre, seeds[i], 0.0, 5.0, ip);
    EXPECT_LT(distance(m.particles[i].pos, truth), 0.05) << i;
  }
}

TEST(PathlineLod, SliceChurnCostsMoreIoThanSteadyTracing) {
  // §8's observation: pathlines re-read per slice pair.  Compare the
  // loads of a pathline run against a single-slice-pair equivalent.
  auto many = gyre_slices(17, 8.0, 4);
  Rng rng(5);
  std::vector<Vec3> seeds;
  for (int i = 0; i < 30; ++i) {
    seeds.push_back({rng.uniform(0.2, 1.8), rng.uniform(0.2, 0.8), 0.0});
  }
  PathlineExperimentConfig cfg;
  cfg.runtime.num_ranks = 4;
  cfg.runtime.model = sf::testing::test_model();
  cfg.runtime.cache_blocks = 12;
  cfg.limits.max_time = 8.0;
  cfg.limits.max_steps = 5000;
  const RunMetrics unsteady = run_pathline_experiment(
      cfg, many.decomp, many.slices, many.times, seeds);
  ASSERT_FALSE(unsteady.failed_oom);

  auto two = gyre_slices(2, 8.0, 4);
  const RunMetrics steadyish = run_pathline_experiment(
      cfg, two.decomp, two.slices, two.times, seeds);
  ASSERT_FALSE(steadyish.failed_oom);

  EXPECT_GT(unsteady.total_blocks_loaded(),
            2 * steadyish.total_blocks_loaded());
  EXPECT_GT(unsteady.total_io_time(), steadyish.total_io_time());
}

TEST(PathlineLod, RankCrashLosesNoPathline) {
  auto s = gyre_slices(9, 8.0, 4);
  const std::vector<Vec3> seeds = gyre_seeds(20, 3);
  PathlineExperimentConfig cfg = gyre_config(4, 8);
  const RunMetrics clean =
      run_pathline_experiment(cfg, s.decomp, s.slices, s.times, seeds);
  ASSERT_FALSE(clean.failed_oom);

  cfg.runtime.fault.crashes = {{0.4 * clean.wall_clock, 1}};
  const RunMetrics crashed =
      run_pathline_experiment(cfg, s.decomp, s.slices, s.times, seeds);
  ASSERT_FALSE(crashed.failed_oom);
  ASSERT_FALSE(crashed.failed_fault) << crashed.abort_reason;
  EXPECT_EQ(crashed.fault.crashes_injected, 1u);
  EXPECT_EQ(crashed.fault.crashes_survived, 1u);
  expect_same_pathlines(crashed.particles, clean.particles);
}

TEST(PathlineLod, EveryPathlineCompletionIsLogged) {
  auto s = gyre_slices(9, 8.0, 4);
  const std::vector<Vec3> seeds = gyre_seeds(20, 3);
  const RunMetrics m = run_pathline_experiment(gyre_config(4, 8), s.decomp,
                                               s.slices, s.times, seeds);
  ASSERT_EQ(m.query_completions.size(), 1u);
  EXPECT_EQ(m.query_completions[0].query, 0u);
  EXPECT_EQ(m.query_completions[0].particles, 20u);
}

TEST(PathlineLod, RejectsAsyncIo) {
  PathlineExperimentConfig cfg = gyre_config(2, 8);
  cfg.runtime.async_io.enabled = true;
  EXPECT_NE(rejection_of(cfg).find("runtime.async_io.enabled"),
            std::string::npos);
}

TEST(PathlineLod, RejectsQueryCancels) {
  PathlineExperimentConfig cfg = gyre_config(2, 8);
  cfg.runtime.cancels = {{0, 0.1}};
  EXPECT_NE(rejection_of(cfg).find("runtime.cancels"), std::string::npos);
}

// A malformed scheduled crash or slowdown is a typed error naming the
// field and the entry, from both streamline runtimes and the pathline
// driver, before any rank runs: never a silently dropped crash, nor a
// disk-ordering abort once the bad event lands.
TEST(PathlineLod, MalformedFaultEventsAreRejectedByEveryDriver) {
  struct Row {
    std::vector<CrashEvent> crashes;
    std::vector<SlowdownEvent> slowdowns;
    const char* names;  // expected in the message
  };
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Row> rows = {
      {{{nan, 1}}, {}, "fault.crashes[0]: time"},
      {{{0.01, 1}, {-0.5, 2}}, {}, "fault.crashes[1]: time"},
      {{{0.01, 4}}, {}, "fault.crashes[0]: rank 4"},
      {{{0.01, -1}}, {}, "fault.crashes[0]: rank -1"},
      {{}, {{nan, 1, 8.0}}, "fault.slowdowns[0]: time"},
      {{}, {{0.01, 1, nan}}, "fault.slowdowns[0]: factor"},
      {{}, {{0.01, 1, inf}}, "fault.slowdowns[0]: factor"},
      {{}, {{0.01, 9, 8.0}}, "fault.slowdowns[0]: rank 9"},
  };
  const auto w = sf::testing::abc_world(2);
  const std::vector<Vec3> seeds{{0.5, 0.5, 0.5}, {1.5, 2.5, 3.5}};
  auto s = gyre_slices(3, 8.0, 2);
  const std::vector<Vec3> gyre{{0.7, 0.4, 0.0}};
  for (const Row& row : rows) {
    const auto message = [](const auto& run) -> std::string {
      try {
        run();
      } catch (const std::invalid_argument& e) {
        return e.what();
      }
      return "";
    };
    for (const Algorithm algo :
         {Algorithm::kStaticAllocation, Algorithm::kHybridMasterSlave}) {
      auto cfg = sf::testing::test_config(algo, 4);
      cfg.runtime.fault.crashes = row.crashes;
      cfg.runtime.fault.slowdowns = row.slowdowns;
      EXPECT_NE(message([&] {
                  (void)run_experiment(cfg, w.decomp(), *w.source, seeds);
                }).find(row.names),
                std::string::npos)
          << row.names << " sim " << to_string(algo);
      EXPECT_NE(message([&] {
                  (void)run_experiment_threads(cfg, w.decomp(), *w.source,
                                               seeds);
                }).find(row.names),
                std::string::npos)
          << row.names << " threads " << to_string(algo);
    }
    PathlineExperimentConfig cfg = gyre_config(4, 8);
    cfg.runtime.fault.crashes = row.crashes;
    cfg.runtime.fault.slowdowns = row.slowdowns;
    EXPECT_NE(message([&] {
                (void)run_pathline_experiment(cfg, s.decomp, s.slices,
                                              s.times, gyre);
              }).find(row.names),
              std::string::npos)
        << row.names << " pathlines";
  }
}

TEST(PathlineLod, FailedRunKeepsRejectedSeeds) {
  // A run that overruns its particle-memory budget keeps its partial
  // results, the rejected out-of-domain seed included, as a failed
  // streamline run does.
  auto s = gyre_slices(9, 8.0, 4);
  std::vector<Vec3> seeds = gyre_seeds(20, 3);
  seeds.push_back({-5.0, 0.5, 0.0});  // outside the gyre: rejected
  PathlineExperimentConfig cfg = gyre_config(2, 8);
  cfg.runtime.model.particle_memory_bytes = 1;
  const RunMetrics m =
      run_pathline_experiment(cfg, s.decomp, s.slices, s.times, seeds);
  ASSERT_TRUE(m.failed_oom);
  EXPECT_FALSE(m.failed_fault);
  ASSERT_FALSE(m.particles.empty());
  EXPECT_EQ(m.particles.back().id, 20u);
  EXPECT_EQ(m.particles.back().status, ParticleStatus::kExitedDomain);
}

// Caches that hold only a bracket pair, or one block more: Load On
// Demand's rule (run the first resident pooled block, else load the
// densest) must still finish every pathline, exactly as the oracle does.
TEST(PathlineLod, TinyCacheCompletesBitForBit) {
  auto s = gyre_slices(33, 8.0, 4);
  const std::vector<Vec3> seeds = gyre_seeds(60, 11);
  const std::vector<Particle> want =
      serial_pathlines(s, gyre_config(1, 2), seeds);
  for (const std::size_t cache : {2u, 3u}) {
    for (const int ranks : {1, 2, 4}) {
      SCOPED_TRACE("cache " + std::to_string(cache) + ", ranks " +
                   std::to_string(ranks));
      const RunMetrics m = run_pathline_experiment(
          gyre_config(ranks, cache), s.decomp, s.slices, s.times, seeds);
      ASSERT_FALSE(m.failed_oom);
      expect_same_pathlines(m.particles, want);
    }
  }
}

}  // namespace
}  // namespace sf
