#pragma once

// Streamline advancement.
//
// Tracer::advance_batch is the single inner loop shared by every
// algorithm and runtime: it advances all particles resident in one block
// through whatever blocks the caller has available and stops each either
// at a terminal condition or at the edge of the available data
// (reporting which block is needed next).  Because each position samples
// only its *owning* block's grid, the accepted-step sequence is
// identical regardless of which rank runs it, which other blocks happen
// to be loaded, or how particles are grouped into batches — see
// DESIGN.md §5.1 and §9.
//
// One inner loop per tracer: advance_batch and block_of are virtual, and
// they are the only seam between the workers and what a block id means.
// analysis/unsteady_tracer.hpp overrides both with its own loop over
// spacetime blocks, so pathlines run on the same programs.
//
// Tracer's own advance_batch keeps a block cursor and a GridSampler cell
// cursor, skipping the BlockAccessFn lookup while the owning block is
// unchanged and virtual dispatch always.  The golden tests
// (tests/test_fast_path.cpp) hold it bit-identical to the frozen per-step
// virtual-dispatch oracle in tests/support/reference_advance.hpp.
//
// Its rounds are scheduled from an index of the pending particles by
// owning block, kept up to date as particles move: only a round's
// cohort is re-filed, so a round costs O(cohort + occupied blocks), not
// a census of every pending particle.  The access and pin calls it makes
// are part of every modelled result (each is a counted LRU touch in a
// runtime); tests/test_fast_path.cpp pins their sequence too.  A call
// asks for a missing block once: each ask is a counted cache miss.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/dataset.hpp"
#include "core/grid_sampler.hpp"
#include "core/integrator.hpp"
#include "core/particle.hpp"
#include "core/thread_annotations.hpp"

namespace sf {

struct TraceLimits {
  double max_time = 1e12;          // integration-time budget per line
  std::uint32_t max_steps = 10000; // accepted-step budget per line
  double min_speed = 1e-8;         // below this the line is stagnant
};

// Observer for accepted integration steps (trajectory recording).
class TraceRecorder {
 public:
  virtual ~TraceRecorder() = default;
  // Called once when a particle starts (with its seed position) and after
  // every accepted step.
  virtual void record(const Particle& particle, const Vec3& position) = 0;
  // Capacity hint, called before a particle's seed vertex is recorded:
  // the tracer's accepted-step budget bounds how many points the line
  // can grow.  Default: ignore.
  virtual void reserve_hint(std::size_t /*max_points*/) {}
};

// Stores full polylines per particle id.
class PolylineRecorder final : public TraceRecorder {
 public:
  explicit PolylineRecorder(std::size_t num_particles)
      : lines_(num_particles) {}

  // Safe to call concurrently for distinct particles (trace_all's
  // threads do): each call touches only its particle's own line.
  void record(const Particle& particle, const Vec3& position) override {
    std::vector<Vec3>& line = lines_[particle.id];
    // lockfree-lint: spsc — relaxed: the hint only sizes a reservation
    // and publishes no other memory, so it needs no happens-before edge;
    // every writer stores the same tracer budget.
    const std::size_t hint = hint_.load(std::memory_order_relaxed);
    if (line.size() == 1 && line.capacity() < hint) {
      // First accepted step: the line is live, so pre-size it.  Waiting
      // for the second vertex keeps dead-on-arrival seeds at one point.
      line.reserve(hint);
    }
    line.push_back(position);
  }

  void reserve_hint(std::size_t max_points) override {
    // lockfree-lint: spsc — relaxed, same argument as in record(): no
    // happens-before edge rides on the hint.
    hint_.store(std::min(max_points, kReserveCap), std::memory_order_relaxed);
  }

  const std::vector<std::vector<Vec3>>& lines() const { return lines_; }

 private:
  // Cap the per-line reservation: long-budget runs (max_steps = 10^4+)
  // would otherwise commit the full worst case up front for every seed.
  static constexpr std::size_t kReserveCap = 4096;

  std::vector<std::vector<Vec3>> lines_;
  std::atomic<std::size_t> hint_{0};
};

// Returns the grid for a block if the caller currently has it, nullptr
// otherwise.  The returned pointer must stay valid for the duration of
// the advance_batch() call.
using BlockAccessFn = std::function<const StructuredGrid*(BlockId)>;

// Optional eviction guards for advance_batch.  When the BlockAccessFn
// is backed by an LRU cache that can evict concurrently with the round
// (async completions inserting blocks) or at tiny capacities, the batch
// pins its focus block for the duration of each round so the grid the
// shared cursor holds cannot be purged mid-round.  Both hooks must
// tolerate any BlockId, resident or not.
struct BlockPinHooks {
  std::function<void(BlockId)> pin;
  std::function<void(BlockId)> unpin;
};

// Set of cancelled query ids, shared between the service control plane
// and the tracer's inner loop.  A particle whose query is in the set
// terminates as kCancelled at its next advance — before any integration
// step, so cancellation can never perturb the accepted-step sequence of
// particles from *other* queries (the schedule-independence argument of
// DESIGN.md §5.1 makes the drain bit-safe).  The empty-set fast path is
// one relaxed atomic load, so standalone runs pay nothing measurable.
class QueryCancelSet {
 public:
  void cancel(std::uint32_t query) SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (std::find(set_.begin(), set_.end(), query) == set_.end()) {
      set_.push_back(query);
    }
    // lockfree-lint: spsc — release store under the mutex pairs with the
    // acquire load in contains(): the set_ append above happens-before
    // any reader that observes the nonzero count.
    count_.store(set_.size(), std::memory_order_release);
  }

  void clear() SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    set_.clear();
    // lockfree-lint: spsc — release store, same pairing as cancel(): the
    // clear happens-before a reader observing the zero count.
    count_.store(0, std::memory_order_release);
  }

  bool contains(std::uint32_t query) const SF_EXCLUDES(mutex_) {
    // lockfree-lint: spsc — acquire fast path pairs with the release
    // store in cancel(): a nonzero count happens-after the append it
    // counts, and the locked re-read below decides membership.
    if (count_.load(std::memory_order_acquire) == 0) return false;
    MutexLock lock(mutex_);
    return std::find(set_.begin(), set_.end(), query) != set_.end();
  }

  bool empty() const {
    // lockfree-lint: spsc — acquire load, same pairing as contains().
    return count_.load(std::memory_order_acquire) == 0;
  }

 private:
  // First in the lock order (LockRank::kCancelSet): contains() is called
  // from the tracer's inner loop, potentially while a runtime board lock
  // is NOT held; nothing is ever acquired under it.
  mutable Mutex mutex_{LockRank::kCancelSet};
  std::atomic<std::size_t> count_{0};
  std::vector<std::uint32_t> set_ SF_GUARDED_BY(mutex_);
};

struct AdvanceOutcome {
  // Terminal status, or kActive if the particle stopped because it needs
  // a block that is not available.
  ParticleStatus status = ParticleStatus::kActive;
  // When status == kActive: the block the particle needs next.
  BlockId blocking_block = kInvalidBlock;
  std::uint64_t steps = 0;   // accepted steps in this call
  std::uint64_t evals = 0;   // field evaluations in this call
};

// Inner-loop kernel selection for Tracer::advance_batch (DESIGN.md §14).
// kSimd runs the focus-block cohort through the AVX2 4-lane DOPRI5
// kernel (src/core/integrator_simd.hpp), which is bit-identical per
// particle to the scalar fast path — trajectories, statuses, step AND
// evaluation counts — so the choice is purely a throughput knob.
// kAuto picks SIMD when the host supports it and the cohort is wide
// enough to pay for lane setup; kSimd forces it wherever the hardware
// allows (still scalar on non-AVX2 hosts: forcing must not crash).
enum class AdvectionKernel : std::uint8_t { kAuto = 0, kScalar = 1, kSimd = 2 };

// True when the SIMD kernel is compiled in and the CPU reports AVX2.
// Defined in integrator_simd.cpp (runtime CPUID dispatch).
bool simd_kernel_available();

class Tracer {
 public:
  Tracer(const BlockDecomposition* decomp, const IntegratorParams& iparams,
         const TraceLimits& limits)
      : decomp_(decomp), iparams_(iparams), limits_(limits) {}
  virtual ~Tracer() = default;
  // Not copyable: a copy through a base reference would slice a derived
  // tracer into a steady one.  Hold tracers by pointer or reference.
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  const BlockDecomposition& decomposition() const { return *decomp_; }
  const IntegratorParams& integrator_params() const { return iparams_; }
  const TraceLimits& limits() const { return limits_; }

  // The block `particle` waits on: the one advance_batch needs first,
  // which is what the workers pool it under.  For streamlines that is
  // the block owning its position.
  virtual BlockId block_of(const Particle& particle) const {
    return decomp_->block_of(particle.pos);
  }

  // Install (or remove, with nullptr) the cancelled-query set consulted
  // by advance_batch.  Not owned; must outlive the advance calls.
  void set_cancel_set(const QueryCancelSet* cancels) { cancels_ = cancels; }

  // advance_batch kernel choice (see AdvectionKernel).  Safe to flip at
  // any quiescent point: the SIMD path is bit-identical per particle.
  void set_kernel(AdvectionKernel kernel) { kernel_ = kernel; }
  AdvectionKernel kernel() const { return kernel_; }

  // Advance every particle in `batch` while its owning block is
  // available via `blocks`, updating each in place; outcome[i] says what
  // happened to batch[i].  The particles share one block/cell cursor,
  // so the common case — the whole batch circulating inside the same
  // block — touches the cache lookup once.  A one-particle span is the
  // way to advance a particle alone: per-particle results do not depend
  // on the rest of the batch.
  virtual std::vector<AdvanceOutcome> advance_batch(
      std::span<Particle> batch, const BlockAccessFn& blocks,
      TraceRecorder* recorder = nullptr,
      const BlockPinHooks* pins = nullptr) const;

 private:
  // Block cursor: the block the previous step's position resided in,
  // with its grid and warm cell cursor.  Valid only within one
  // advance_batch call (block pointers may dangle afterwards).
  struct Cursor {
    BlockId id = kInvalidBlock;
    const StructuredGrid* grid = nullptr;
    GridSampler sampler;
  };

  AdvanceOutcome advance_with_cursor(Particle& particle,
                                     const BlockAccessFn& blocks,
                                     TraceRecorder* recorder,
                                     Cursor& cur) const;

  // The checks the kernel makes before its first block access: a
  // terminal particle stays put, a cancelled one terminates, a fresh one
  // records its seed vertex and takes h_init.  False when the particle
  // is (now) terminal.
  bool start_advance(Particle& particle, TraceRecorder* recorder) const;

  // The checks the kernel makes before each block access: the budgets
  // (first, so hand-offs cannot dodge them), then the domain exit.
  // Returns the block owning the particle, or kInvalidBlock once it
  // terminated.
  BlockId checked_owner(Particle& particle) const;

  // A particle whose block was just found missing: the pre-access
  // checks, then a stop on that block without asking for it again.
  AdvanceOutcome stop_before_access(Particle& particle,
                                    TraceRecorder* recorder) const;

  const BlockDecomposition* decomp_;
  IntegratorParams iparams_;
  TraceLimits limits_;
  const QueryCancelSet* cancels_ = nullptr;
  AdvectionKernel kernel_ = AdvectionKernel::kAuto;
};

// ---------------------------------------------------------------------------
// Convenience APIs (the small-data entry points of the library).
// ---------------------------------------------------------------------------

// Fewest in-domain particles per trace_all thread: below
// 2 * kTraceAllMinSpan particles a call runs on one thread
// (measured: DESIGN.md §9.2, spans on threads).
inline constexpr std::size_t kTraceAllMinSpan = 64;

// Trace all seeds over a fully accessible blocked dataset; particle i
// starts at seeds[i] (seeds outside the domain come back kExitedDomain
// with no vertex recorded).  The in-domain particles are split into one
// contiguous span per core (std::thread::hardware_concurrency()), each
// advanced by one Tracer::advance_batch call on its own thread; inputs
// too small to pay for a thread (kTraceAllMinSpan) run on the caller's
// thread through the same code.  Per-particle results do not depend on
// the split (DESIGN.md §5.1), so every particle and recorded vertex is
// bit-identical to tracing its seed alone.  The call returns after every
// thread joined; if spans threw, the exception of the first of them is
// rethrown here.
//
// Threading contract: `recorder` is called concurrently from the span
// threads, for distinct particles — PolylineRecorder is safe for that.
// Each block is fetched at most once per call and shared by the spans.
std::vector<Particle> trace_all(const BlockedDataset& dataset,
                                std::span<const Vec3> seeds,
                                const IntegratorParams& iparams,
                                const TraceLimits& limits,
                                TraceRecorder* recorder = nullptr);

// The same over any BlockSource (a BlockStore on disk, say) cut by
// `decomp`; the source must be safe to load from several threads.
std::vector<Particle> trace_all(const BlockDecomposition& decomp,
                                const BlockSource& source,
                                std::span<const Vec3> seeds,
                                const IntegratorParams& iparams,
                                const TraceLimits& limits,
                                TraceRecorder* recorder = nullptr);

// Trace one streamline directly against any VectorField (no blocks).
// Used by FTLE / Poincaré / stream-surface analysis and the examples.
Particle trace_field(const VectorField& field, const Vec3& seed,
                     const IntegratorParams& iparams,
                     const TraceLimits& limits,
                     TraceRecorder* recorder = nullptr,
                     std::uint32_t particle_id = 0);

}  // namespace sf
