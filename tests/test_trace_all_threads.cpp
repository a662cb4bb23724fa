// trace_all on every core (CTest label: thread, so the TSan job runs it).
//
// trace_all advances contiguous spans of its seeds on one thread each,
// sharing one block memo and one recorder.  Per-particle results do not
// depend on the split (DESIGN.md §5.1), so every particle and every
// recorded polyline must equal the same seed advanced alone; inputs
// below the span limit stay on the caller's thread, and a span's
// exception surfaces at the caller.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/analytic_fields.hpp"
#include "core/dataset.hpp"
#include "core/rng.hpp"
#include "core/seeds.hpp"
#include "core/tracer.hpp"

namespace sf {
namespace {

// A PolylineRecorder that also notes the thread each particle's vertices
// came from.  Each particle is recorded from one thread and writes only
// its own slot, which is the contract trace_all gives recorders.
class ThreadNotingRecorder final : public TraceRecorder {
 public:
  explicit ThreadNotingRecorder(std::size_t n) : lines(n), thread_of(n) {}
  void record(const Particle& p, const Vec3& position) override {
    thread_of[p.id] = std::this_thread::get_id();
    lines.record(p, position);
  }
  void reserve_hint(std::size_t max_points) override {
    lines.reserve_hint(max_points);
  }
  PolylineRecorder lines;
  std::vector<std::thread::id> thread_of;
};

struct SupernovaBlocks {
  std::shared_ptr<VectorField> field = std::make_shared<SupernovaField>();
  BlockDecomposition decomp{field->bounds(), 8, 8, 8};
  BlockedDataset dataset{field, decomp, 9, 2};
};

TraceLimits short_limits() {
  TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = 60;
  return limits;
}

// Every particle and polyline of a trace_all call against each seed
// advanced alone by its own one-particle advance_batch.
void expect_same_as_solo(const SupernovaBlocks& w, const std::vector<Vec3>& seeds,
                         const std::vector<Particle>& traced,
                         const PolylineRecorder& lines) {
  const Tracer tracer(&w.decomp, IntegratorParams{}, short_limits());
  const BlockAccessFn access = [&w](BlockId id) {
    return w.dataset.block(id).get();  // memoized: the pointer stays valid
  };
  PolylineRecorder solo_lines(seeds.size());
  ASSERT_EQ(traced.size(), seeds.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Particle solo;
    solo.id = static_cast<std::uint32_t>(i);
    solo.pos = seeds[i];
    if (w.decomp.block_of(seeds[i]) == kInvalidBlock) {
      solo.status = ParticleStatus::kExitedDomain;
    }
    tracer.advance_batch({&solo, 1}, access, &solo_lines);
    const Particle& t = traced[i];
    const auto& a = lines.lines()[i];
    const auto& b = solo_lines.lines()[i];
    bool same = t.id == solo.id && t.status == solo.status &&
                t.steps == solo.steps && t.pos.x == solo.pos.x &&
                t.pos.y == solo.pos.y && t.pos.z == solo.pos.z &&
                t.time == solo.time && t.h == solo.h && a.size() == b.size();
    for (std::size_t k = 0; same && k < a.size(); ++k) {
      same = a[k].x == b[k].x && a[k].y == b[k].y && a[k].z == b[k].z;
    }
    if (!same && mismatches++ < 5) {
      ADD_FAILURE() << "particle " << i << " differs from its solo run";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(TraceAllThreads, EveryParticleAndPolylineMatchesSoloRun) {
  const SupernovaBlocks w;
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  Rng rng(2026);
  std::vector<Vec3> seeds =
      random_seeds(w.field->bounds(), 3 * cores * kTraceAllMinSpan, rng);
  // Seeds outside the domain, among the first and last spans.
  const Vec3 outside = w.field->bounds().hi + Vec3{1, 1, 1};
  seeds.insert(seeds.begin() + 3, outside);
  seeds.push_back(outside);

  ThreadNotingRecorder rec(seeds.size());
  const std::vector<Particle> traced =
      trace_all(w.dataset, seeds, IntegratorParams{}, short_limits(), &rec);
  expect_same_as_solo(w, seeds, traced, rec.lines);
  EXPECT_EQ(traced[3].status, ParticleStatus::kExitedDomain);
  EXPECT_TRUE(rec.lines.lines()[3].empty());

  // One span per core, each on its own thread.
  std::set<std::thread::id> threads;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (!rec.lines.lines()[i].empty()) threads.insert(rec.thread_of[i]);
  }
  EXPECT_EQ(threads.size(), cores);
}

TEST(TraceAllThreads, BelowTheSpanLimitRunsOnTheCallersThread) {
  const SupernovaBlocks w;
  Rng rng(7);
  const std::vector<Vec3> seeds =
      random_seeds(w.field->bounds(), 2 * kTraceAllMinSpan - 1, rng);
  ThreadNotingRecorder rec(seeds.size());
  const std::vector<Particle> traced =
      trace_all(w.dataset, seeds, IntegratorParams{}, short_limits(), &rec);
  expect_same_as_solo(w, seeds, traced, rec.lines);
  for (const std::thread::id id : rec.thread_of) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

// Loads fail for the lowest-x slab of blocks.  The flow runs along +x,
// so only the seeds placed there — the last span's — ever ask for them.
class FailingSource final : public BlockSource {
 public:
  explicit FailingSource(const BlockedDataset& d) : d_(d) {}
  GridPtr load(BlockId id) const override {
    if (d_.decomposition().coords_of(id).i == 0) {
      if (std::this_thread::get_id() != caller) thrown_off_caller = true;
      throw std::runtime_error("unreadable block " + std::to_string(id));
    }
    return d_.block(id);
  }
  std::size_t block_bytes(BlockId) const override {
    return d_.block_payload_bytes();
  }
  int num_blocks() const override { return d_.num_blocks(); }

  const std::thread::id caller = std::this_thread::get_id();
  mutable std::atomic<bool> thrown_off_caller{false};

 private:
  const BlockedDataset& d_;
};

TEST(TraceAllThreads, ASpansExceptionSurfacesAtTheCaller) {
  const auto field = std::make_shared<UniformField>();
  const BlockDecomposition decomp(field->bounds(), 4, 4, 4);
  const BlockedDataset dataset(field, decomp, 5, 1);
  const std::size_t n =
      2 * kTraceAllMinSpan *
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  std::vector<Vec3> seeds;
  for (std::size_t i = 0; i < n; ++i) {
    // First the seeds in the highest-x slab, last those in the lowest.
    const double x = i < n - kTraceAllMinSpan ? 0.9 : -0.9;
    const double t = static_cast<double>(i) / static_cast<double>(n);
    seeds.push_back({x, -0.9 + 1.8 * t, 0.9 - 1.8 * t});
  }
  const FailingSource source(dataset);
  TraceLimits limits;
  limits.max_steps = 200;
  try {
    trace_all(decomp, source, seeds, IntegratorParams{}, limits);
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("unreadable block ", 0), 0u)
        << e.what();
  }
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_TRUE(source.thrown_off_caller);  // rethrown across the join
  }
  // Without the failing slab the same call completes.
  std::vector<Vec3> readable(seeds.begin(), seeds.end() - kTraceAllMinSpan);
  const std::vector<Particle> traced =
      trace_all(decomp, source, readable, IntegratorParams{}, limits);
  for (const Particle& p : traced) {
    EXPECT_EQ(p.status, ParticleStatus::kExitedDomain);
  }
}

}  // namespace
}  // namespace sf
