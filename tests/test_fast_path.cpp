// Golden bit-identity tests for the fast advection core.
//
// The fast path (GridSampler cell cursor, hand-unrolled DOPRI5 body,
// stage-one reuse, FSAL carry, per-block batching) is a pure codegen /
// scheduling change: every floating-point operation runs in the same
// order as the historical kernel, the frozen oracle in
// tests/support/reference_advance.hpp.  These tests hold it to that
// claim with EXPECT_EQ on doubles — zero tolerance — across every
// analytic field, for single steps and whole trajectories.
//
// Against the oracle, evaluation counts are deliberately NOT compared:
// the fast path legitimately performs fewer field evaluations (it
// reuses the stagnation-check sample as stage one and carries the FSAL
// stage across steps), which changes n_evals without changing any
// sampled value.  Between fast-path schedules (one particle alone vs
// inside a cohort, scalar vs SIMD) they must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algorithms/hybrid.hpp"
#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"
#include "core/analytic_fields.hpp"
#include "core/dataset.hpp"
#include "core/grid_sampler.hpp"
#include "core/integrator.hpp"
#include "core/rng.hpp"
#include "core/seeds.hpp"
#include "core/structured_grid.hpp"
#include "core/tracer.hpp"
#include "runtime/sim_runtime.hpp"
#include "support/reference_advance.hpp"
#include "test_support.hpp"

namespace sf {
namespace {

struct NamedField {
  const char* name;
  std::shared_ptr<VectorField> field;
};

std::vector<NamedField> all_fields() {
  return {
      {"uniform", std::make_shared<UniformField>()},
      {"rotor", std::make_shared<RotorField>()},
      {"saddle", std::make_shared<SaddleField>()},
      {"abc", std::make_shared<ABCField>()},
      {"hill", std::make_shared<HillVortexField>()},
      {"supernova", std::make_shared<SupernovaField>()},
      {"tokamak", std::make_shared<TokamakField>()},
      {"thermal", std::make_shared<ThermalHydraulicsField>()},
  };
}

// Deterministic seed spread: fractional positions of the box, away from
// the exact faces so every integrator has room for at least one stage.
std::vector<Vec3> spread_seeds(const AABB& box) {
  const double fr[9][3] = {{0.50, 0.50, 0.50}, {0.25, 0.50, 0.50},
                           {0.75, 0.40, 0.60}, {0.40, 0.25, 0.70},
                           {0.60, 0.75, 0.30}, {0.30, 0.60, 0.25},
                           {0.70, 0.30, 0.75}, {0.45, 0.65, 0.55},
                           {0.15, 0.85, 0.45}};
  std::vector<Vec3> seeds;
  const Vec3 e = box.extent();
  for (const auto& f : fr) {
    seeds.push_back({box.lo.x + f[0] * e.x, box.lo.y + f[1] * e.y,
                     box.lo.z + f[2] * e.z});
  }
  return seeds;
}

#define EXPECT_SAME_STEP(fast, ref)        \
  do {                                     \
    EXPECT_EQ((fast).status, (ref).status);\
    EXPECT_EQ((fast).p.x, (ref).p.x);      \
    EXPECT_EQ((fast).p.y, (ref).p.y);      \
    EXPECT_EQ((fast).p.z, (ref).p.z);      \
    EXPECT_EQ((fast).t, (ref).t);          \
    EXPECT_EQ((fast).h_used, (ref).h_used);\
    EXPECT_EQ((fast).h_next, (ref).h_next);\
  } while (0)

// Single DOPRI5 steps: cursor overload vs the historical kernel, and
// the stage-one-pre-supplied overload vs both.
TEST(FastPath, Dopri5StepBitIdenticalOnAllFields) {
  const IntegratorParams params;
  for (const NamedField& nf : all_fields()) {
    SCOPED_TRACE(nf.name);
    StructuredGrid grid(nf.field->bounds(), 25, 25, 25);
    grid.sample_from(*nf.field);
    GridSampler sampler(grid);
    for (const Vec3& seed : spread_seeds(grid.bounds())) {
      for (const double h : {1e-3, 1e-2, 0.1}) {
        const StepResult ref =
            dopri5_step_reference(grid, seed, 0.0, h, params);
        const StepResult fast = dopri5_step(sampler, seed, 0.0, h, params);
        EXPECT_SAME_STEP(fast, ref);

        // Stage-one reuse: hand the sampler's own value at the seed in.
        Vec3 v{};
        if (sampler.sample(seed, v)) {
          const StepResult pre =
              dopri5_step(sampler, v, seed, 0.0, h, params);
          EXPECT_SAME_STEP(pre, ref);
        }
      }
    }
  }
}

void expect_same_particle(const Particle& fast, const Particle& ref) {
  EXPECT_EQ(fast.status, ref.status);
  EXPECT_EQ(fast.steps, ref.steps);
  EXPECT_EQ(fast.pos.x, ref.pos.x);
  EXPECT_EQ(fast.pos.y, ref.pos.y);
  EXPECT_EQ(fast.pos.z, ref.pos.z);
  EXPECT_EQ(fast.time, ref.time);
  EXPECT_EQ(fast.h, ref.h);
}

// Recorded geometry per particle id, for polyline comparison.
std::vector<std::vector<Vec3>> traced_lines(
    const Tracer& tracer, std::span<Particle> particles,
    const BlockAccessFn& access, std::vector<AdvanceOutcome>& outcomes) {
  PolylineRecorder rec(particles.size());
  outcomes = tracer.advance_batch(particles, access, &rec);
  return rec.lines();
}

// Whole trajectories: Tracer::advance_batch (block cursor + cell cursor
// + FSAL carry + per-block rounds), one particle alone and the whole
// cohort, against advance_reference, on a multi-block dataset so
// trajectories cross block boundaries and invalidate the cursor along
// the way.
TEST(FastPath, TracerAdvanceBitIdenticalOnAllFields) {
  TraceLimits limits;
  limits.max_steps = 400;
  const IntegratorParams iparams;
  for (const NamedField& nf : all_fields()) {
    SCOPED_TRACE(nf.name);
    const BlockDecomposition decomp(nf.field->bounds(), 3, 3, 3);
    auto dataset =
        std::make_shared<BlockedDataset>(nf.field, decomp, 13, 2);
    std::vector<GridPtr> slots(
        static_cast<std::size_t>(dataset->num_blocks()));
    const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
      GridPtr& slot = slots[static_cast<std::size_t>(id)];
      if (!slot) slot = dataset->block(id);
      return slot.get();
    };
    const Tracer tracer(&decomp, iparams, limits);

    const std::vector<Vec3> seeds = spread_seeds(nf.field->bounds());
    std::vector<Particle> ref(seeds.size()), fast(seeds.size()),
        batch(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ref[i].id = fast[i].id = batch[i].id =
          static_cast<std::uint32_t>(i);
      ref[i].pos = fast[i].pos = batch[i].pos = seeds[i];
    }

    for (std::size_t i = 0; i < seeds.size(); ++i) {
      advance_reference(&decomp, iparams, limits, ref[i], access);
      tracer.advance_batch({&fast[i], 1}, access);
      SCOPED_TRACE(i);
      expect_same_particle(fast[i], ref[i]);
    }

    tracer.advance_batch(batch, access);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_particle(batch[i], ref[i]);
    }
  }
}

// The per-block batch schedule must not depend on input order: reversing
// the cohort changes the rounds but not any particle's result.
TEST(FastPath, BatchScheduleIndependentOfOrder) {
  auto field = std::make_shared<TokamakField>();
  const BlockDecomposition decomp(field->bounds(), 3, 3, 3);
  auto dataset = std::make_shared<BlockedDataset>(field, decomp, 13, 2);
  std::vector<GridPtr> slots(
      static_cast<std::size_t>(dataset->num_blocks()));
  const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
    GridPtr& slot = slots[static_cast<std::size_t>(id)];
    if (!slot) slot = dataset->block(id);
    return slot.get();
  };
  TraceLimits limits;
  limits.max_steps = 300;
  const Tracer tracer(&decomp, IntegratorParams{}, limits);

  const std::vector<Vec3> seeds = spread_seeds(field->bounds());
  std::vector<Particle> fwd(seeds.size()), rev(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    fwd[i].id = static_cast<std::uint32_t>(i);
    fwd[i].pos = seeds[i];
    const std::size_t j = seeds.size() - 1 - i;
    rev[i].id = static_cast<std::uint32_t>(j);
    rev[i].pos = seeds[j];
  }
  tracer.advance_batch(fwd, access);
  tracer.advance_batch(rev, access);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SCOPED_TRACE(i);
    expect_same_particle(rev[seeds.size() - 1 - i], fwd[i]);
  }
}

// A particle advanced alone (a one-particle span) gets exactly what it
// gets inside the whole cohort: status, step and evaluation counts,
// blocking block, final state and recorded polyline.  The clustered
// cohort is wide enough for kAuto to pick the SIMD kernel on AVX2 hosts,
// while a lone particle always runs the scalar round.  The second access
// function hides the high-x slab of blocks, so particles also stop at the
// edge of the available data and report the block they need.
TEST(FastPath, OneParticleBatchMatchesCohortOnAllFields) {
  TraceLimits limits;
  limits.max_steps = 400;
  const IntegratorParams iparams;
  for (const NamedField& nf : all_fields()) {
    SCOPED_TRACE(nf.name);
    const BlockDecomposition decomp(nf.field->bounds(), 3, 3, 3);
    auto dataset = std::make_shared<BlockedDataset>(nf.field, decomp, 13, 2);
    std::vector<GridPtr> slots(
        static_cast<std::size_t>(dataset->num_blocks()));
    const BlockAccessFn all = [&](BlockId id) -> const StructuredGrid* {
      GridPtr& slot = slots[static_cast<std::size_t>(id)];
      if (!slot) slot = dataset->block(id);
      return slot.get();
    };
    const BlockAccessFn partial = [&](BlockId id) -> const StructuredGrid* {
      return decomp.coords_of(id).i != 2 ? all(id) : nullptr;
    };
    const Tracer tracer(&decomp, iparams, limits);

    const AABB box = nf.field->bounds();
    const Vec3 e = box.extent();
    Rng rng(11);
    const std::vector<Vec3> seeds = cluster_seeds(
        {box.lo.x + 0.6 * e.x, box.lo.y + 0.55 * e.y, box.lo.z + 0.5 * e.z},
        0.08 * e.x, 64, rng, box);

    for (const BlockAccessFn* access : {&all, &partial}) {
      SCOPED_TRACE(access == &all ? "all blocks" : "high-x slab hidden");
      std::vector<Particle> solo(seeds.size()), cohort(seeds.size());
      for (std::size_t i = 0; i < seeds.size(); ++i) {
        solo[i].id = cohort[i].id = static_cast<std::uint32_t>(i);
        solo[i].pos = cohort[i].pos = seeds[i];
      }
      PolylineRecorder solo_rec(seeds.size());
      std::vector<AdvanceOutcome> so;
      for (Particle& p : solo) {
        so.push_back(tracer.advance_batch({&p, 1}, *access, &solo_rec)[0]);
      }
      std::vector<AdvanceOutcome> co;
      const auto cohort_lines = traced_lines(tracer, cohort, *access, co);

      for (std::size_t i = 0; i < seeds.size(); ++i) {
        SCOPED_TRACE(i);
        expect_same_particle(solo[i], cohort[i]);
        EXPECT_EQ(so[i].status, co[i].status);
        EXPECT_EQ(so[i].blocking_block, co[i].blocking_block);
        EXPECT_EQ(so[i].steps, co[i].steps);
        EXPECT_EQ(so[i].evals, co[i].evals);
        const std::vector<Vec3>& line = solo_rec.lines()[i];
        ASSERT_EQ(line.size(), cohort_lines[i].size());
        for (std::size_t v = 0; v < line.size(); ++v) {
          EXPECT_EQ(line[v].x, cohort_lines[i][v].x);
          EXPECT_EQ(line[v].y, cohort_lines[i][v].y);
          EXPECT_EQ(line[v].z, cohort_lines[i][v].z);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel (integrator_simd.cpp): forced-kernel golden tests.
//
// Unlike the fast-vs-reference comparisons above, scalar-vs-simd is held
// to FULL equality — including evaluation counts: both run the identical
// stage-one-reuse/FSAL algorithm, so n_evals must match exactly, and a
// mismatch would mean a lane attempted a different stage sequence.
// ---------------------------------------------------------------------------

TEST(FastPath, SimdBatchBitIdenticalOnAllFields) {
  if (!simd_kernel_available()) {
    GTEST_SKIP() << "AVX2 kernel not available on this host";
  }
  TraceLimits limits;
  limits.max_steps = 400;
  const IntegratorParams iparams;
  for (const NamedField& nf : all_fields()) {
    SCOPED_TRACE(nf.name);
    const BlockDecomposition decomp(nf.field->bounds(), 3, 3, 3);
    auto dataset = std::make_shared<BlockedDataset>(nf.field, decomp, 13, 2);
    std::vector<GridPtr> slots(
        static_cast<std::size_t>(dataset->num_blocks()));
    const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
      GridPtr& slot = slots[static_cast<std::size_t>(id)];
      if (!slot) slot = dataset->block(id);
      return slot.get();
    };
    Tracer scalar_tracer(&decomp, iparams, limits);
    scalar_tracer.set_kernel(AdvectionKernel::kScalar);
    Tracer simd_tracer(&decomp, iparams, limits);
    simd_tracer.set_kernel(AdvectionKernel::kSimd);

    const std::vector<Vec3> seeds = spread_seeds(nf.field->bounds());
    std::vector<Particle> sp(seeds.size()), vp(seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      sp[i].id = vp[i].id = static_cast<std::uint32_t>(i);
      sp[i].pos = vp[i].pos = seeds[i];
    }

    std::vector<AdvanceOutcome> so, vo;
    const auto scalar_lines = traced_lines(scalar_tracer, sp, access, so);
    const auto simd_lines = traced_lines(simd_tracer, vp, access, vo);

    for (std::size_t i = 0; i < seeds.size(); ++i) {
      SCOPED_TRACE(i);
      expect_same_particle(vp[i], sp[i]);
      EXPECT_EQ(vp[i].geometry_points, sp[i].geometry_points);
      EXPECT_EQ(vo[i].status, so[i].status);
      EXPECT_EQ(vo[i].blocking_block, so[i].blocking_block);
      EXPECT_EQ(vo[i].steps, so[i].steps);
      EXPECT_EQ(vo[i].evals, so[i].evals) << "lane attempted a different "
                                             "stage sequence";
      ASSERT_EQ(simd_lines[i].size(), scalar_lines[i].size());
      for (std::size_t v = 0; v < simd_lines[i].size(); ++v) {
        EXPECT_EQ(simd_lines[i][v].x, scalar_lines[i][v].x);
        EXPECT_EQ(simd_lines[i][v].y, scalar_lines[i][v].y);
        EXPECT_EQ(simd_lines[i][v].z, scalar_lines[i][v].z);
      }
    }
  }
}

// Partial lane groups: cohorts of 1..3 force masked lanes through the
// whole trial loop (no fourth particle to load), and cohorts of 5
// exercise lane refill mid-round.  Forced kSimd runs them regardless of
// the kAuto width threshold.
TEST(FastPath, SimdPartialCohortsMatchScalar) {
  if (!simd_kernel_available()) {
    GTEST_SKIP() << "AVX2 kernel not available on this host";
  }
  auto field = std::make_shared<ABCField>();
  const BlockDecomposition decomp(field->bounds(), 2, 2, 2);
  auto dataset = std::make_shared<BlockedDataset>(field, decomp, 13, 2);
  std::vector<GridPtr> slots(static_cast<std::size_t>(dataset->num_blocks()));
  const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
    GridPtr& slot = slots[static_cast<std::size_t>(id)];
    if (!slot) slot = dataset->block(id);
    return slot.get();
  };
  TraceLimits limits;
  limits.max_steps = 200;
  Tracer scalar_tracer(&decomp, IntegratorParams{}, limits);
  scalar_tracer.set_kernel(AdvectionKernel::kScalar);
  Tracer simd_tracer(&decomp, IntegratorParams{}, limits);
  simd_tracer.set_kernel(AdvectionKernel::kSimd);

  const std::vector<Vec3> all_seeds = spread_seeds(field->bounds());
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}, std::size_t{9}}) {
    SCOPED_TRACE(n);
    std::vector<Particle> sp(n), vp(n);
    for (std::size_t i = 0; i < n; ++i) {
      sp[i].id = vp[i].id = static_cast<std::uint32_t>(i);
      sp[i].pos = vp[i].pos = all_seeds[i % all_seeds.size()];
    }
    const auto so = scalar_tracer.advance_batch(sp, access);
    const auto vo = simd_tracer.advance_batch(vp, access);
    for (std::size_t i = 0; i < n; ++i) {
      SCOPED_TRACE(i);
      expect_same_particle(vp[i], sp[i]);
      EXPECT_EQ(vo[i].evals, so[i].evals);
      EXPECT_EQ(vo[i].steps, so[i].steps);
    }
  }
}

// Schedule independence at scale: trace_all over 4,096 random seeds on
// 512 blocks runs thousands of focus rounds, and every particle still
// ends exactly where it ends when advanced alone — same status, step and
// evaluation counts, position, time and step size.
TEST(FastPath, TraceAllMatchesSoloAtScale) {
  auto field = std::make_shared<SupernovaField>();
  const BlockDecomposition decomp(field->bounds(), 8, 8, 8);
  auto dataset = std::make_shared<BlockedDataset>(field, decomp, 9, 2);
  std::vector<GridPtr> slots(static_cast<std::size_t>(dataset->num_blocks()));
  const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
    GridPtr& slot = slots[static_cast<std::size_t>(id)];
    if (!slot) slot = dataset->block(id);
    return slot.get();
  };
  TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = 50;
  const IntegratorParams iparams;
  Rng rng(2009);
  const std::vector<Vec3> seeds = random_seeds(field->bounds(), 4096, rng);

  const std::vector<Particle> traced =
      trace_all(*dataset, seeds, iparams, limits);
  // trace_all's own call, repeated for the outcomes it does not return.
  const Tracer tracer(&decomp, iparams, limits);
  std::vector<Particle> cohort(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    cohort[i].id = static_cast<std::uint32_t>(i);
    cohort[i].pos = seeds[i];
  }
  const std::vector<AdvanceOutcome> co = tracer.advance_batch(cohort, access);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Particle solo;
    solo.id = static_cast<std::uint32_t>(i);
    solo.pos = seeds[i];
    const AdvanceOutcome so = tracer.advance_batch({&solo, 1}, access)[0];
    const Particle& t = traced[i];
    const bool same =
        t.status == solo.status && t.steps == solo.steps &&
        t.pos.x == solo.pos.x && t.pos.y == solo.pos.y &&
        t.pos.z == solo.pos.z && t.time == solo.time && t.h == solo.h &&
        co[i].status == so.status && co[i].steps == so.steps &&
        co[i].evals == so.evals && cohort[i].pos.x == solo.pos.x &&
        cohort[i].pos.y == solo.pos.y && cohort[i].pos.z == solo.pos.z &&
        cohort[i].time == solo.time;
    if (!same && mismatches++ < 5) {
      ADD_FAILURE() << "particle " << i << " differs from its solo run";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// ---------------------------------------------------------------------------
// Access-sequence golden.  Inside a runtime the BlockAccessFn is
// ctx.block(), which touches the rank's LRU and counts cache hits, and
// the pin hooks pin the cache.  So the exact sequence of access and
// pin/unpin calls advance_batch makes is part of every modelled result:
// a change to the batch schedule's bookkeeping must leave it unchanged,
// call for call.  Each golden is the call count and an FNV-1a hash of
// the (kind, block) sequence.
// ---------------------------------------------------------------------------

class CallLog {
 public:
  void add(char kind, BlockId b) {
    ++count_;
    mix(static_cast<std::uint8_t>(kind));
    const auto u = static_cast<std::uint32_t>(b);
    for (int s = 0; s < 32; s += 8) mix(static_cast<std::uint8_t>(u >> s));
    text_ += kind + std::to_string(b) + ' ';
  }
  std::size_t count() const { return count_; }
  std::uint64_t hash() const { return hash_; }
  const std::string& text() const { return text_; }

 private:
  void mix(std::uint8_t byte) {
    hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
  }
  std::size_t count_ = 0;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::string text_;
};

struct AccessGolden {
  std::size_t count;
  std::uint64_t hash;
};

struct AccessCase {
  const char* name;
  AccessGolden scalar;  // AdvectionKernel::kScalar
  AccessGolden simd;    // kAuto where the AVX2 kernel runs
};

TEST(FastPath, AccessSequenceMatchesGolden) {
  auto field = std::make_shared<TokamakField>();
  const BlockDecomposition decomp(field->bounds(), 3, 3, 3);
  auto dataset = std::make_shared<BlockedDataset>(field, decomp, 13, 2);
  std::vector<GridPtr> slots(static_cast<std::size_t>(dataset->num_blocks()));
  const auto grid = [&](BlockId id) -> const StructuredGrid* {
    GridPtr& slot = slots[static_cast<std::size_t>(id)];
    if (!slot) slot = dataset->block(id);
    return slot.get();
  };
  TraceLimits limits;
  limits.max_steps = 400;

  const AABB box = field->bounds();
  const Vec3 e = box.extent();
  Rng rng(11);
  const std::vector<Vec3> cluster = cluster_seeds(
      {box.lo.x + 0.6 * e.x, box.lo.y + 0.55 * e.y, box.lo.z + 0.5 * e.z},
      0.08 * e.x, 64, rng, box);
  // Four cluster seeds around one outside the domain.
  std::vector<Vec3> with_outsider(cluster.begin(), cluster.begin() + 4);
  with_outsider.insert(with_outsider.begin() + 2,
                       Vec3{box.hi.x + e.x, box.lo.y, box.lo.z});
  const BlockId first_block = decomp.block_of(cluster.front());

  // Recorded when a call stopped asking again for blocks it had found
  // missing: each sequence is the earlier one with only those repeated
  // accesses removed, pins unchanged.
  const AccessCase cases[] = {
      {"wide cohort, high-x slab hidden",
       {98, 17067853828165012334ULL},
       {98, 17067853828165012334ULL}},
      {"wide cohort, high-x slab hidden, pinned",
       {180, 7317523419654425073ULL},
       {180, 7317523419654425073ULL}},
      {"one-particle batches, high-x slab hidden, pinned",
       {84, 8462191442520125776ULL},
       {84, 8462191442520125776ULL}},
      {"seed outside the domain, high-x slab hidden",
       {10, 17598787495182762062ULL},
       {10, 17598787495182762062ULL}},
      {"first block evicted after k calls, k = 0..15",
       {12726, 6950664889783026651ULL},
       {12727, 6705517690864764995ULL}},
  };

  for (const AdvectionKernel kernel :
       {AdvectionKernel::kScalar, AdvectionKernel::kAuto}) {
    Tracer tracer(&decomp, IntegratorParams{}, limits);
    tracer.set_kernel(kernel);
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      const AccessCase& ac = cases[c];
      SCOPED_TRACE(ac.name);
      SCOPED_TRACE(kernel == AdvectionKernel::kScalar ? "scalar" : "auto");
      CallLog log;
      const BlockPinHooks pins{[&log](BlockId b) { log.add('p', b); },
                               [&log](BlockId b) { log.add('u', b); }};
      const auto run = [&](const std::vector<Vec3>& seeds,
                           const BlockAccessFn& access, bool pinned) {
        std::vector<Particle> batch(seeds.size());
        for (std::size_t i = 0; i < seeds.size(); ++i) {
          batch[i].id = static_cast<std::uint32_t>(i);
          batch[i].pos = seeds[i];
        }
        tracer.advance_batch(batch, access, nullptr, pinned ? &pins : nullptr);
      };
      const BlockAccessFn partial = [&](BlockId b) -> const StructuredGrid* {
        log.add('a', b);
        return decomp.coords_of(b).i != 2 ? grid(b) : nullptr;
      };
      switch (c) {
        case 0: run(cluster, partial, false); break;
        case 1: run(cluster, partial, true); break;
        case 2:
          for (std::size_t i = 0; i < 8; ++i) {
            run({cluster[i]}, partial, true);
          }
          break;
        case 3: run(with_outsider, partial, true); break;
        default:
          // The first seed's block vanishes after k accesses to it, the
          // way an unpinned grid can be evicted between rounds on
          // ThreadRuntime; some k land between a round's probe and its
          // fetch, so the cohort stays in the focus block.
          for (int k = 0; k < 16; ++k) {
            int calls = 0;
            const BlockAccessFn evicting =
                [&](BlockId b) -> const StructuredGrid* {
              log.add('a', b);
              return b == first_block && calls++ >= k ? nullptr : grid(b);
            };
            run(cluster, evicting, false);
          }
      }
      const bool simd =
          kernel == AdvectionKernel::kAuto && simd_kernel_available();
      const AccessGolden& want = simd ? ac.simd : ac.scalar;
      EXPECT_EQ(log.count(), want.count);
      EXPECT_EQ(log.hash(), want.hash) << log.text();
    }
  }
}

// ---------------------------------------------------------------------------
// Cache counters recounted from an access log.  A rank's BlockCache
// counts one hit per find() that finds the block (an LRU touch), one
// miss per find() that does not, one load per insert and one purge per
// eviction.  Here every event that reaches the one advecting rank's
// cache is logged in order — the tracer's accesses (with whether the
// block was there) and pins, and the source's loads, each of which
// lands in the cache at once with async I/O off — and replayed through
// a model LRU.  The recount must match RankMetrics exactly.  On top,
// each advance_batch call counts one miss per block it wants: no block
// is found missing twice in a call, and each one found missing is a
// block some particle of the call ends up waiting on.
// ---------------------------------------------------------------------------

struct CacheEvent {
  char kind;  // 'a' access, 'p' pin, 'u' unpin, 'l' load
  BlockId block;
  bool found = false;  // 'a' only
};

class LoggingTracer final : public Tracer {
 public:
  LoggingTracer(const BlockDecomposition* decomp, const TraceLimits& limits,
                std::vector<CacheEvent>* log)
      : Tracer(decomp, IntegratorParams{}, limits), log_(log) {}

  std::vector<AdvanceOutcome> advance_batch(
      std::span<Particle> batch, const BlockAccessFn& blocks,
      TraceRecorder* recorder, const BlockPinHooks* pins) const override {
    const std::size_t first = log_->size();
    const BlockAccessFn logged = [&](BlockId b) {
      const StructuredGrid* grid = blocks(b);
      log_->push_back({'a', b, grid != nullptr});
      return grid;
    };
    BlockPinHooks logged_pins;
    if (pins != nullptr) {
      logged_pins.pin = [&](BlockId b) {
        log_->push_back({'p', b});
        pins->pin(b);
      };
      logged_pins.unpin = [&](BlockId b) {
        log_->push_back({'u', b});
        pins->unpin(b);
      };
    }
    std::vector<AdvanceOutcome> out = Tracer::advance_batch(
        batch, logged, recorder, pins != nullptr ? &logged_pins : nullptr);

    // One miss per missing block: no block is found missing twice in a
    // call, and each one found missing is a block a particle waits on.
    std::set<BlockId> waited_on;
    for (const AdvanceOutcome& o : out) {
      if (o.status == ParticleStatus::kActive) waited_on.insert(o.blocking_block);
    }
    std::set<BlockId> missing;
    for (std::size_t e = first; e < log_->size(); ++e) {
      const CacheEvent& ev = (*log_)[e];
      if (ev.kind != 'a' || ev.found) continue;
      if (!missing.insert(ev.block).second) ++repeated_misses;
      if (waited_on.count(ev.block) == 0) ++unwanted_misses;
    }
    return out;
  }

  mutable std::size_t repeated_misses = 0;
  mutable std::size_t unwanted_misses = 0;

 private:
  std::vector<CacheEvent>* log_;
};

class LoggingSource final : public BlockSource {
 public:
  LoggingSource(const BlockSource& inner, std::vector<CacheEvent>* log)
      : inner_(inner), log_(log) {}
  GridPtr load(BlockId id) const override {
    log_->push_back({'l', id});
    return inner_.load(id);
  }
  std::size_t block_bytes(BlockId id) const override {
    return inner_.block_bytes(id);
  }
  int num_blocks() const override { return inner_.num_blocks(); }

 private:
  const BlockSource& inner_;
  std::vector<CacheEvent>* log_;
};

struct CacheCounts {
  std::uint64_t hits = 0, misses = 0, loads = 0, purges = 0;
};

// BlockCache's policy, replayed: LRU order, nested pins, eviction of the
// least recent unpinned block after an insert or an unpin.
CacheCounts replay(const std::vector<CacheEvent>& log, std::size_t capacity) {
  CacheCounts c;
  std::list<BlockId> lru;  // front = most recent
  std::map<BlockId, int> pins;
  const auto evict = [&] {
    for (auto it = lru.end(); lru.size() > capacity && it != lru.begin();) {
      --it;
      if (pins.count(*it) == 0) {
        it = lru.erase(it);
        ++c.purges;
      }
    }
  };
  for (const CacheEvent& ev : log) {
    const auto at = std::find(lru.begin(), lru.end(), ev.block);
    switch (ev.kind) {
      case 'a':
        EXPECT_EQ(ev.found, at != lru.end()) << "block " << ev.block;
        if (at == lru.end()) {
          ++c.misses;
        } else {
          ++c.hits;
          lru.splice(lru.begin(), lru, at);
        }
        break;
      case 'l':
        if (at != lru.end()) {
          lru.splice(lru.begin(), lru, at);
          break;
        }
        lru.push_front(ev.block);
        ++c.loads;
        evict();
        break;
      case 'p': ++pins[ev.block]; break;
      case 'u':
        if (--pins[ev.block] == 0) pins.erase(ev.block);
        evict();
        break;
    }
  }
  return c;
}

TEST(FastPath, CacheCountersRecountFromAccessLog) {
  const testing::TestWorld w = testing::rotor_world(4);
  const BlockDecomposition& decomp = w.decomp();
  Rng rng(26);
  const std::vector<Vec3> seeds = random_seeds(decomp.domain(), 150, rng);
  std::vector<Particle> particles(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    particles[i].id = static_cast<std::uint32_t>(i);
    particles[i].pos = seeds[i];
  }
  const std::uint32_t total = static_cast<std::uint32_t>(seeds.size());

  // One rank advects in each run: the static and Load On Demand runs
  // have one rank, the hybrid run one master and one slave.
  struct Case {
    const char* name;
    int ranks;
    ProgramFactory factory;
  };
  HybridParams hybrid;
  hybrid.slaves_per_master = 1;
  const Case cases[] = {
      {"static", 1,
       make_static_allocation(&decomp,
                              partition_by_block_owner(decomp, 1, particles),
                              total)},
      {"load on demand", 1,
       make_load_on_demand(&decomp,
                           partition_evenly_by_block(1, decomp, particles))},
      {"hybrid", 2,
       make_hybrid(&decomp, partition_evenly_by_block(1, decomp, particles),
                   total, hybrid)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<CacheEvent> log;
    const LoggingSource source(*w.source, &log);
    const ExperimentConfig cfg =
        testing::test_config(Algorithm::kLoadOnDemand, c.ranks);
    const LoggingTracer tracer(&decomp, cfg.limits, &log);
    SimRuntimeConfig config = cfg.runtime;
    config.cache_blocks = 4;
    SimRuntime runtime(config, &decomp, &source, IntegratorParams{},
                       cfg.limits, &tracer);
    const RunMetrics m = runtime.run(c.factory);
    ASSERT_EQ(m.particles.size(), seeds.size());

    const CacheCounts want = replay(log, config.cache_blocks);
    EXPECT_EQ(m.total_cache_hits(), want.hits);
    EXPECT_EQ(m.total_cache_misses(), want.misses);
    EXPECT_EQ(m.total_blocks_loaded(), want.loads);
    EXPECT_EQ(m.total_blocks_purged(), want.purges);
    EXPECT_GT(want.misses, 0u);
    EXPECT_GT(want.purges, 0u);
    EXPECT_EQ(tracer.repeated_misses, 0u);
    EXPECT_EQ(tracer.unwanted_misses, 0u);
  }
}

// Forcing kSimd must never crash, even where the AVX2 kernel is absent
// or the host lacks the instructions: dispatch degrades to scalar.
TEST(FastPath, ForcedSimdFallsBackWithoutAvx2) {
  auto field = std::make_shared<RotorField>();
  const BlockDecomposition decomp(field->bounds(), 2, 2, 2);
  auto dataset = std::make_shared<BlockedDataset>(field, decomp, 13, 2);
  std::vector<GridPtr> slots(static_cast<std::size_t>(dataset->num_blocks()));
  const BlockAccessFn access = [&](BlockId id) -> const StructuredGrid* {
    GridPtr& slot = slots[static_cast<std::size_t>(id)];
    if (!slot) slot = dataset->block(id);
    return slot.get();
  };
  TraceLimits limits;
  limits.max_steps = 100;
  Tracer tracer(&decomp, IntegratorParams{}, limits);
  tracer.set_kernel(AdvectionKernel::kSimd);
  EXPECT_EQ(tracer.kernel(), AdvectionKernel::kSimd);

  std::vector<Particle> particles(4);
  const std::vector<Vec3> seeds = spread_seeds(field->bounds());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles[i].id = static_cast<std::uint32_t>(i);
    particles[i].pos = seeds[i];
  }
  const auto outcomes = tracer.advance_batch(particles, access);
  for (const Particle& p : particles) {
    EXPECT_TRUE(is_terminal(p.status));
  }
  EXPECT_EQ(outcomes.size(), particles.size());
}

}  // namespace
}  // namespace sf
