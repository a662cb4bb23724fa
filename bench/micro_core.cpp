// Microbenchmarks of the hot kernels (google-benchmark): analytic field
// evaluation, trilinear sampling, the integrators, the tracer's
// block-crossing loop, the LRU cache and the event queue.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/analytic_fields.hpp"
#include "core/dataset.hpp"
#include "core/grid_sampler.hpp"
#include "core/integrator.hpp"
#include "core/rng.hpp"
#include "core/tracer.hpp"
#include "runtime/block_cache.hpp"
#include "sim/event_queue.hpp"

namespace {

const sf::AABB kUnit{{0, 0, 0}, {1, 1, 1}};

// Positions along an ABC streamline through the unit box, spaced about a
// quarter cell apart: the access pattern the cell cursor is built for
// (consecutive samples land in the same or an adjacent cell).
std::vector<sf::Vec3> streamline_walk(const sf::StructuredGrid& grid,
                                      std::size_t count) {
  const sf::ABCField field(1, 1, 1, kUnit);
  const double step = 0.25 / sf::norm(grid.inv_cell_size());
  std::vector<sf::Vec3> points;
  points.reserve(count);
  sf::Vec3 p{0.31, 0.42, 0.53};
  for (std::size_t i = 0; i < count; ++i) {
    points.push_back(p);
    sf::Vec3 v;
    field.sample(p, v);
    p = p + sf::normalized(v) * step;
    if (!grid.bounds().contains(p)) p = {0.31, 0.42, 0.53};
  }
  return points;
}

void BM_AnalyticSupernovaEval(benchmark::State& state) {
  const sf::SupernovaField field;
  sf::Rng rng(1);
  sf::Vec3 p{0.2, 0.1, -0.3}, v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.sample(p, v));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_AnalyticSupernovaEval);

void BM_AnalyticTokamakEval(benchmark::State& state) {
  const sf::TokamakField field;
  sf::Vec3 p{1.2, 0.1, 0.1}, v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.sample(p, v));
  }
}
BENCHMARK(BM_AnalyticTokamakEval);

void BM_TrilinearSample(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  sf::Rng rng(2);
  sf::Vec3 v;
  std::vector<sf::Vec3> points(1024);
  for (auto& p : points) {
    p = {rng.next_double(), rng.next_double(), rng.next_double()};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.sample(points[i++ & 1023], v));
  }
}
BENCHMARK(BM_TrilinearSample)->Arg(8)->Arg(16)->Arg(64);

// The same slow-path sampler on a coherent walk: consecutive queries hit
// neighbouring cells, the pattern real advection produces.
void BM_TrilinearSampleCoherent(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  const auto points = streamline_walk(grid, 1024);
  sf::Vec3 v;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.sample(points[i++ & 1023], v));
  }
}
BENCHMARK(BM_TrilinearSampleCoherent)->Arg(8)->Arg(16)->Arg(64);

// The cell cursor on the same coherent walk: the anchor (and the eight
// gathered node values) survive from one query to the next.
void BM_CursorSampleCoherent(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)),
                          static_cast<int>(state.range(0)));
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  const auto points = streamline_walk(grid, 1024);
  sf::GridSampler sampler(grid);
  sf::Vec3 v;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(points[i++ & 1023], v));
  }
}
BENCHMARK(BM_CursorSampleCoherent)->Arg(8)->Arg(16)->Arg(64);

void BM_Rk4Step(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, 16, 16, 16);
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  sf::Vec3 p{0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf::rk4_step(grid, p, 0.0, 1e-3));
  }
}
BENCHMARK(BM_Rk4Step);

void BM_Dopri5Step(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, 16, 16, 16);
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  sf::IntegratorParams prm;
  sf::Vec3 p{0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf::dopri5_step(grid, p, 0.0, 1e-2, prm));
  }
}
BENCHMARK(BM_Dopri5Step);

// One DOPRI5 step through the cell cursor: all seven stages of a small
// step usually resolve against the same cached cell.
void BM_Dopri5StepCursor(benchmark::State& state) {
  sf::StructuredGrid grid(kUnit, 16, 16, 16);
  grid.sample_from(sf::ABCField(1, 1, 1, kUnit));
  sf::GridSampler sampler(grid);
  sf::IntegratorParams prm;
  sf::Vec3 p{0.5, 0.5, 0.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sf::dopri5_step(sampler, p, 0.0, 1e-2, prm));
  }
}
BENCHMARK(BM_Dopri5StepCursor);

void BM_TracerFullStreamline(benchmark::State& state) {
  auto field = std::make_shared<sf::RotorField>();
  const sf::BlockDecomposition decomp(field->bounds(), 4, 4, 4);
  auto dataset = std::make_shared<sf::BlockedDataset>(field, decomp, 9, 2);
  std::vector<sf::GridPtr> grids;
  for (sf::BlockId b = 0; b < decomp.num_blocks(); ++b) {
    grids.push_back(dataset->block(b));
  }
  sf::TraceLimits limits;
  limits.max_time = 6.3;
  limits.max_steps = 100000;
  const sf::Tracer tracer(&decomp, sf::IntegratorParams{}, limits);
  for (auto _ : state) {
    sf::Particle particle;
    particle.pos = {1, 0, 0};
    const auto out = tracer.advance(
        particle, [&](sf::BlockId id) { return grids[id].get(); });
    benchmark::DoNotOptimize(out);
    state.counters["steps"] = static_cast<double>(particle.steps);
  }
}
BENCHMARK(BM_TracerFullStreamline);

// The historical virtual-dispatch loop over the same streamline, for a
// like-for-like fast-path comparison (see DESIGN.md §9).
void BM_TracerFullStreamlineReference(benchmark::State& state) {
  auto field = std::make_shared<sf::RotorField>();
  const sf::BlockDecomposition decomp(field->bounds(), 4, 4, 4);
  auto dataset = std::make_shared<sf::BlockedDataset>(field, decomp, 9, 2);
  std::vector<sf::GridPtr> grids;
  for (sf::BlockId b = 0; b < decomp.num_blocks(); ++b) {
    grids.push_back(dataset->block(b));
  }
  sf::TraceLimits limits;
  limits.max_time = 6.3;
  limits.max_steps = 100000;
  const sf::Tracer tracer(&decomp, sf::IntegratorParams{}, limits);
  for (auto _ : state) {
    sf::Particle particle;
    particle.pos = {1, 0, 0};
    const auto out = tracer.advance_reference(
        particle, [&](sf::BlockId id) { return grids[id].get(); });
    benchmark::DoNotOptimize(out);
    state.counters["steps"] = static_cast<double>(particle.steps);
  }
}
BENCHMARK(BM_TracerFullStreamlineReference);

void BM_BlockCacheChurn(benchmark::State& state) {
  auto grid = std::make_shared<sf::StructuredGrid>(kUnit, 2, 2, 2);
  sf::BlockCache cache(static_cast<std::size_t>(state.range(0)));
  int i = 0;
  for (auto _ : state) {
    cache.insert(i % 97, grid);
    benchmark::DoNotOptimize(cache.find((i * 31) % 97));
    ++i;
  }
}
BENCHMARK(BM_BlockCacheChurn)->Arg(8)->Arg(64);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sf::EventQueue q;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      q.schedule(static_cast<double>((i * 37) % 100),
                 [&fired] { ++fired; });
    }
    while (!q.empty()) q.run_next();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

}  // namespace

BENCHMARK_MAIN();
