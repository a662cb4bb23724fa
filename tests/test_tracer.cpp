#include "core/tracer.hpp"

#include <gtest/gtest.h>

#include <map>

#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"

namespace sf {
namespace {

DatasetPtr rotor_dataset(int blocks = 2, int nodes = 17, int ghost = 2) {
  auto field = std::make_shared<RotorField>();
  const BlockDecomposition decomp(field->bounds(), blocks, blocks, blocks);
  return std::make_shared<BlockedDataset>(field, decomp, nodes, ghost);
}

TEST(Tracer, CircularOrbitReturnsToStart) {
  auto ds = rotor_dataset(2, 33, 2);
  IntegratorParams iparams;
  iparams.tol = 1e-8;
  TraceLimits limits;
  limits.max_time = 6.283185307179586;  // one revolution
  limits.max_steps = 100000;

  const Vec3 seed{1, 0, 0};
  const auto particles = trace_all(*ds, std::span(&seed, 1), iparams, limits);
  ASSERT_EQ(particles.size(), 1u);
  EXPECT_EQ(particles[0].status, ParticleStatus::kMaxTime);
  // Grid-resolution-limited accuracy.
  EXPECT_LT(distance(particles[0].pos, seed), 0.01);
}

TEST(Tracer, UniformFlowExitsDomain) {
  auto field = std::make_shared<UniformField>(
      Vec3{1, 0, 0}, AABB{{0, 0, 0}, {1, 1, 1}});
  const BlockDecomposition decomp(field->bounds(), 2, 2, 2);
  auto ds = std::make_shared<BlockedDataset>(field, decomp, 9, 2);

  const Vec3 seed{0.05, 0.5, 0.5};
  TraceLimits limits;
  const auto ps = trace_all(*ds, std::span(&seed, 1), IntegratorParams{},
                            limits);
  EXPECT_EQ(ps[0].status, ParticleStatus::kExitedDomain);
  EXPECT_GT(ps[0].pos.x, 0.99);
  EXPECT_NEAR(ps[0].pos.y, 0.5, 1e-9);
}

TEST(Tracer, StagnantAtCriticalPoint) {
  auto field = std::make_shared<SaddleField>();
  const BlockDecomposition decomp(field->bounds(), 2, 2, 2);
  auto ds = std::make_shared<BlockedDataset>(field, decomp, 9, 2);
  const Vec3 seed{0, 0, 0};  // the saddle point: v = 0
  const auto ps = trace_all(*ds, std::span(&seed, 1), IntegratorParams{},
                            TraceLimits{});
  EXPECT_EQ(ps[0].status, ParticleStatus::kStagnant);
}

TEST(Tracer, MaxStepsEnforced) {
  auto ds = rotor_dataset();
  TraceLimits limits;
  limits.max_steps = 7;
  const Vec3 seed{1, 0, 0};
  const auto ps =
      trace_all(*ds, std::span(&seed, 1), IntegratorParams{}, limits);
  EXPECT_EQ(ps[0].status, ParticleStatus::kMaxSteps);
  EXPECT_EQ(ps[0].steps, 7u);
}

TEST(Tracer, SeedOutsideDomainTerminatesImmediately) {
  auto ds = rotor_dataset();
  const Vec3 seed{5, 5, 5};
  const auto ps = trace_all(*ds, std::span(&seed, 1), IntegratorParams{},
                            TraceLimits{});
  EXPECT_EQ(ps[0].status, ParticleStatus::kExitedDomain);
  EXPECT_EQ(ps[0].steps, 0u);
}

TEST(Tracer, RecorderCollectsSeedAndSteps) {
  auto ds = rotor_dataset();
  TraceLimits limits;
  limits.max_steps = 20;
  PolylineRecorder recorder(1);
  const Vec3 seed{1, 0, 0};
  const auto ps = trace_all(*ds, std::span(&seed, 1), IntegratorParams{},
                            limits, &recorder);
  ASSERT_EQ(recorder.lines().size(), 1u);
  EXPECT_EQ(recorder.lines()[0].size(), ps[0].steps + 1);
  EXPECT_EQ(recorder.lines()[0].front(), seed);
  // geometry_points mirrors the recorded polyline length.
  EXPECT_EQ(ps[0].geometry_points, ps[0].steps + 1);
}

TEST(Tracer, AdvanceStopsAtUnavailableBlockAndResumes) {
  auto ds = rotor_dataset(2, 17, 2);
  const BlockDecomposition& decomp = ds->decomposition();
  Tracer tracer(&decomp, IntegratorParams{},
                TraceLimits{.max_time = 6.3, .max_steps = 100000,
                            .min_speed = 1e-8});

  // Only the seed's block is available at first.
  Particle p;
  p.pos = {1, 0, 0};
  const BlockId home = decomp.block_of(p.pos);
  std::map<BlockId, GridPtr> loaded{{home, ds->block(home)}};
  auto access = [&](BlockId id) -> const StructuredGrid* {
    auto it = loaded.find(id);
    return it == loaded.end() ? nullptr : it->second.get();
  };

  AdvanceOutcome out = tracer.advance_batch({&p, 1}, access)[0];
  EXPECT_EQ(out.status, ParticleStatus::kActive);
  ASSERT_NE(out.blocking_block, kInvalidBlock);
  EXPECT_NE(out.blocking_block, home);
  EXPECT_EQ(decomp.block_of(p.pos), out.blocking_block);

  // Feed it blocks until it finishes the revolution.
  int handoffs = 0;
  while (out.status == ParticleStatus::kActive && handoffs < 64) {
    loaded[out.blocking_block] = ds->block(out.blocking_block);
    out = tracer.advance_batch({&p, 1}, access)[0];
    ++handoffs;
  }
  EXPECT_EQ(out.status, ParticleStatus::kMaxTime);
  EXPECT_GE(handoffs, 3);  // a circle through 4 quadrant blocks
}

TEST(Tracer, TrajectoryIndependentOfBlockAvailability) {
  // The core determinism property (DESIGN.md §5.1): advancing with all
  // blocks available gives bit-identical results to advancing with
  // blocks appearing one at a time.
  auto ds = rotor_dataset(4, 9, 2);
  const BlockDecomposition& decomp = ds->decomposition();
  TraceLimits limits{.max_time = 20.0, .max_steps = 5000,
                     .min_speed = 1e-8};
  Tracer tracer(&decomp, IntegratorParams{}, limits);

  // Run A: everything available.
  Particle a;
  a.pos = {0.9, 0.3, 0.1};
  std::vector<GridPtr> all;
  for (BlockId b = 0; b < decomp.num_blocks(); ++b) {
    all.push_back(ds->block(b));
  }
  tracer.advance_batch({&a, 1}, [&](BlockId id) { return all[id].get(); });

  // Run B: blocks trickle in one hand-off at a time.
  Particle b;
  b.pos = {0.9, 0.3, 0.1};
  std::map<BlockId, GridPtr> have;
  auto access = [&](BlockId id) -> const StructuredGrid* {
    auto it = have.find(id);
    return it == have.end() ? nullptr : it->second.get();
  };
  AdvanceOutcome out = tracer.advance_batch({&b, 1}, access)[0];
  while (out.status == ParticleStatus::kActive) {
    // Adversarial cache: drop everything except the needed block.
    have.clear();
    have[out.blocking_block] = ds->block(out.blocking_block);
    out = tracer.advance_batch({&b, 1}, access)[0];
  }

  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.pos.x, b.pos.x);
  EXPECT_EQ(a.pos.y, b.pos.y);
  EXPECT_EQ(a.pos.z, b.pos.z);
  EXPECT_EQ(a.time, b.time);
}

TEST(Tracer, TerminalParticleIsNotReAdvanced) {
  auto ds = rotor_dataset();
  Tracer tracer(&ds->decomposition(), IntegratorParams{}, TraceLimits{});
  Particle p;
  p.pos = {1, 0, 0};
  p.status = ParticleStatus::kMaxSteps;
  const auto out =
      tracer.advance_batch({&p, 1}, [](BlockId) -> const StructuredGrid* {
        ADD_FAILURE() << "must not sample blocks for a terminal particle";
        return nullptr;
      })[0];
  EXPECT_EQ(out.status, ParticleStatus::kMaxSteps);
  EXPECT_EQ(out.steps, 0u);
}

TEST(TraceField, DirectFieldTracingMatchesAnalyticCircle) {
  const RotorField f;
  IntegratorParams prm;
  prm.tol = 1e-10;
  TraceLimits limits;
  limits.max_time = 3.141592653589793;  // half revolution
  limits.max_steps = 100000;
  const Particle p = trace_field(f, {1, 0, 0}, prm, limits);
  EXPECT_EQ(p.status, ParticleStatus::kMaxTime);
  EXPECT_LT(distance(p.pos, {-1, 0, 0}), 1e-6);
}

TEST(ParticleStatus, ToStringCoversAll) {
  EXPECT_STREQ(to_string(ParticleStatus::kActive), "active");
  EXPECT_STREQ(to_string(ParticleStatus::kExitedDomain), "exited-domain");
  EXPECT_STREQ(to_string(ParticleStatus::kMaxTime), "max-time");
  EXPECT_STREQ(to_string(ParticleStatus::kMaxSteps), "max-steps");
  EXPECT_STREQ(to_string(ParticleStatus::kStagnant), "stagnant");
  EXPECT_STREQ(to_string(ParticleStatus::kError), "error");
}

}  // namespace
}  // namespace sf
