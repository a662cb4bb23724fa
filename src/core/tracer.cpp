#include "core/tracer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <thread>
#include <vector>

#include "core/integrator_simd.hpp"

namespace sf {

bool simd_kernel_available() {
  // SF_SIMD_AVX2 says the AVX2 kernel TU was compiled (see
  // src/CMakeLists.txt); the CPUID probe says this machine can run it.
  // This TU is built without -mavx2 so the probe itself is safe on any
  // x86-64 — only integrator_simd.cpp contains AVX2 instructions, and
  // it is entered only behind this check.
#if defined(SF_SIMD_AVX2) && defined(__x86_64__)
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

const char* to_string(ParticleStatus s) {
  switch (s) {
    case ParticleStatus::kActive: return "active";
    case ParticleStatus::kExitedDomain: return "exited-domain";
    case ParticleStatus::kMaxTime: return "max-time";
    case ParticleStatus::kMaxSteps: return "max-steps";
    case ParticleStatus::kStagnant: return "stagnant";
    case ParticleStatus::kError: return "error";
    case ParticleStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Fast path: block cursor + cell cursor, non-virtual sampling.
// ---------------------------------------------------------------------------

bool Tracer::start_advance(Particle& particle,
                           TraceRecorder* recorder) const {
  if (is_terminal(particle.status)) return false;
  // Cancelled-query drain: terminate in place, before the seed vertex or
  // any integration step, so the particle flows through the normal
  // termination bookkeeping without touching the numerics of its
  // batch-mates.
  if (cancels_ != nullptr && cancels_->contains(particle.query)) {
    particle.status = ParticleStatus::kCancelled;
    return false;
  }
  if (particle.steps == 0 && recorder != nullptr) {
    recorder->reserve_hint(static_cast<std::size_t>(limits_.max_steps) + 1);
    recorder->record(particle, particle.pos);  // seed vertex
  }
  if (particle.h <= 0.0) particle.h = iparams_.h_init;
  return true;
}

BlockId Tracer::checked_owner(Particle& particle) const {
  if (particle.time >= limits_.max_time) {
    particle.status = ParticleStatus::kMaxTime;
    return kInvalidBlock;
  }
  if (particle.steps >= limits_.max_steps) {
    particle.status = ParticleStatus::kMaxSteps;
    return kInvalidBlock;
  }
  const BlockId owner = decomp_->block_of(particle.pos);
  if (owner == kInvalidBlock) particle.status = ParticleStatus::kExitedDomain;
  return owner;
}

AdvanceOutcome Tracer::stop_before_access(Particle& particle,
                                          TraceRecorder* recorder) const {
  AdvanceOutcome out;
  if (start_advance(particle, recorder)) {
    out.blocking_block = checked_owner(particle);
  }
  out.status = particle.status;
  return out;
}

AdvanceOutcome Tracer::advance_with_cursor(Particle& particle,
                                           const BlockAccessFn& blocks,
                                           TraceRecorder* recorder,
                                           Cursor& cur) const {
  AdvanceOutcome out;
  if (!start_advance(particle, recorder)) {
    out.status = particle.status;
    return out;
  }

  // FSAL carry: the velocity at particle.pos, left over from the
  // previous accepted step's 7th stage (DOPRI5 evaluates it exactly at
  // the accepted point).  Valid only while the cursor's grid is the one
  // it was sampled from.
  Vec3 carried{};
  bool has_carried = false;

  for (;;) {
    // Ownership check against the cursor.  block_of is inline index
    // arithmetic on the precomputed reciprocal block size, so the
    // per-step cost is a handful of multiplies; only a block *change*
    // pays the BlockAccessFn (hash lookup + LRU touch).  Skipped
    // lookups cannot change LRU order: re-touching the front entry is
    // order-idempotent.
    const BlockId owner = checked_owner(particle);
    if (owner == kInvalidBlock) break;

    if (owner != cur.id || cur.grid == nullptr) {
      const StructuredGrid* grid = blocks(owner);
      if (grid == nullptr) {
        // Edge of the available data: the caller must fetch `owner` (or
        // hand the particle to whoever has it).
        out.blocking_block = owner;
        out.status = ParticleStatus::kActive;
        return out;
      }
      cur.id = owner;
      cur.grid = grid;
      cur.sampler.reset(grid);
      has_carried = false;  // sampled from the previous block's grid
    }

    // Stagnation check at the current position: the carried FSAL value
    // is this exact sample (same grid, same position, deterministic
    // sampler), so re-evaluating would return the same bits.
    Vec3 v{};
    if (has_carried) {
      v = carried;
    } else {
      ++out.evals;
      if (!cur.sampler.sample(particle.pos, v)) {
        // The owner grid must cover its own core extent; failure here is
        // a dataset construction bug, not a flow condition.
        particle.status = ParticleStatus::kError;
        break;
      }
    }
    if (norm(v) < limits_.min_speed) {
      particle.status = ParticleStatus::kStagnant;
      break;
    }

    // Cap the trial step so the remaining time budget is never overshot
    // by more than one step.
    double h = particle.h;
    const double remaining = limits_.max_time - particle.time;
    if (h > remaining) h = std::max(remaining, iparams_.h_min);

    // `v` is the field at particle.pos — reuse it as stage one instead of
    // re-sampling the same position (bit-identical; the sampler is
    // deterministic).
    const StepResult step =
        dopri5_step(cur.sampler, v, particle.pos, particle.time, h, iparams_);
    out.evals += static_cast<std::uint64_t>(step.n_evals);

    if (step.status == StepStatus::kSampleFailed) {
      // Even the smallest step sampled outside the block's ghost region.
      // Boundary-block grids extend (clamped) beyond the global domain,
      // so this only happens at the very rim of the data; classify by
      // whether a nudge along the flow leaves the domain.
      const Vec3 probe = particle.pos + normalized(v) * (iparams_.h_min * 10);
      particle.status = decomp_->block_of(probe) == kInvalidBlock
                            ? ParticleStatus::kExitedDomain
                            : ParticleStatus::kError;
      break;
    }

    particle.pos = step.p;
    particle.time = step.t;
    particle.h = step.h_next;
    particle.steps += 1;
    particle.geometry_points += 1;
    out.steps += 1;
    carried = step.k_last;
    has_carried = step.has_k_last;
    if (recorder != nullptr) recorder->record(particle, particle.pos);
  }

  out.status = particle.status;
  return out;
}

namespace {

constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

// The pending particles of one advance_batch call, filed by owning block
// and kept up to date as they move.  Each occupied block keeps its
// members (linked through next_), their count and the smallest member
// index; the occupied blocks are kept in ascending order of that
// smallest member, the order the rounds probe them in.  Only a round's
// survivors are re-filed, so a round costs O(cohort + occupied blocks),
// not O(pending).
class PendingIndex {
 public:
  PendingIndex(std::size_t num_blocks, std::size_t num_particles)
      : slot_of_(num_blocks, kNoSlot), next_(num_particles) {
    blocks_.reserve(std::min(num_blocks, num_particles));
  }

  bool empty() const { return order_.empty() && outside_.empty(); }

  // Occupied blocks (as slots) in ascending order of smallest member.
  const std::vector<std::uint32_t>& order() const { return order_; }
  BlockId block(std::uint32_t slot) const { return blocks_[slot].block; }
  std::uint32_t population(std::uint32_t slot) const {
    return blocks_[slot].count;
  }
  // Whether the block was found missing earlier in the call.
  bool missing(std::uint32_t slot) const { return blocks_[slot].missing; }
  void mark_missing(std::uint32_t slot) { blocks_[slot].missing = true; }

  // Files pending particle `i` under block `b` (kInvalidBlock: outside
  // the domain).  Call settle() once a round's filing is done.
  void file(std::size_t i, BlockId b) {
    if (b == kInvalidBlock) {
      outside_.push_back(i);
      return;
    }
    std::uint32_t& slot = slot_of_[static_cast<std::size_t>(b)];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(blocks_.size());
      blocks_.push_back(Occupant{b});
    }
    Occupant& o = blocks_[slot];
    if (o.count == 0) {
      o.head = o.first = i;
      o.ascending = true;
      mark_moved(slot);
    } else {
      next_[o.tail] = i;
      o.ascending = o.ascending && i > o.tail;
      if (i < o.first) {
        o.first = i;
        mark_moved(slot);
      }
    }
    o.tail = i;
    ++o.count;
  }

  // Restores the order of occupied blocks: drops emptied blocks and
  // merges back those whose smallest member changed.
  void settle() {
    std::erase_if(order_, [this](std::uint32_t slot) {
      return blocks_[slot].count == 0 || blocks_[slot].moved;
    });
    const auto by_first = [this](std::uint32_t a, std::uint32_t b) {
      return blocks_[a].first < blocks_[b].first;
    };
    std::sort(moved_.begin(), moved_.end(), by_first);
    spare_.clear();
    std::merge(order_.cbegin(), order_.cend(), moved_.cbegin(), moved_.cend(),
               std::back_inserter(spare_), by_first);
    order_.swap(spare_);
    for (const std::uint32_t slot : moved_) blocks_[slot].moved = false;
    moved_.clear();
  }

  // Moves every member of `slot`, ascending, into `cohort`.
  void take(std::uint32_t slot, std::vector<std::size_t>& cohort) {
    Occupant& o = blocks_[slot];
    cohort.clear();
    append_members(o, cohort);
    if (!o.ascending) std::sort(cohort.begin(), cohort.end());
    o.count = 0;
  }

  // Every pending particle, ascending, into `members`.
  void all(std::vector<std::size_t>& members) const {
    members.assign(outside_.cbegin(), outside_.cend());
    for (const std::uint32_t slot : order_) {
      append_members(blocks_[slot], members);
    }
    std::sort(members.begin(), members.end());
  }

 private:
  struct Occupant {
    BlockId block = kInvalidBlock;
    std::uint32_t count = 0;
    std::size_t first = 0;  // smallest member
    std::size_t head = 0;   // members in filing order, linked via next_
    std::size_t tail = 0;
    bool ascending = true;  // filed in ascending order
    bool moved = false;     // `first` changed since the last settle()
    bool missing = false;   // found missing by a probe
  };

  void append_members(const Occupant& o,
                      std::vector<std::size_t>& out) const {
    for (std::size_t i = o.head, k = 0; k < o.count; ++k, i = next_[i]) {
      out.push_back(i);
    }
  }

  void mark_moved(std::uint32_t slot) {
    if (!blocks_[slot].moved) {
      blocks_[slot].moved = true;
      moved_.push_back(slot);
    }
  }

  std::vector<std::uint32_t> slot_of_;  // block id -> slot in blocks_
  std::vector<Occupant> blocks_;
  std::vector<std::size_t> next_;       // particle -> next member
  std::vector<std::size_t> outside_;    // pending outside the domain
  std::vector<std::uint32_t> order_, spare_, moved_;
};

}  // namespace

std::vector<AdvanceOutcome> Tracer::advance_batch(
    std::span<Particle> batch, const BlockAccessFn& blocks,
    TraceRecorder* recorder, const BlockPinHooks* pins) const {
  std::vector<AdvanceOutcome> out(batch.size());
  // Per-block rounds: each round picks the block owning the most pending
  // particles and advances all of them through it while its node data is
  // cache-hot, pausing each at the block boundary.  The boundary is
  // exactly where the cell cursor and the FSAL carry invalidate anyway,
  // so per-particle results — trajectory, step count, even evaluation
  // count — are identical to advancing the particle alone (DESIGN.md
  // §5.1).  What changes is data traffic: one-particle-at-a-time
  // advancement streams every block it crosses through the cache once
  // per crossing; the cohort pays each block load once per round.
  PendingIndex pending(static_cast<std::size_t>(decomp_->num_blocks()),
                       batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_terminal(batch[i].status)) {
      out[i].status = batch[i].status;
    } else {
      pending.file(i, decomp_->block_of(batch[i].pos));
    }
  }
  pending.settle();

  std::vector<std::size_t> cohort;
  cohort.reserve(batch.size());
  Cursor cur;
  // The pinned focus.  The pin is taken when a block becomes the round
  // focus and moves only when the focus changes, so the grid the shared
  // cursor is bound to can never be evicted under it — neither by an
  // access fn that loads into a tiny LRU during the availability probes
  // below, nor by async completions inserting blocks between rounds.
  BlockId pinned_focus = kInvalidBlock;
  while (!pending.empty()) {
    // Focus on the most populated accessible block.  Blocks are probed
    // in ascending order of their smallest pending member, and only
    // where the population beats the best so far: each probe is an
    // access the runtimes count, so this order is part of the result.
    // A block once found missing is not asked for again in this call:
    // its particles cannot move, and a second ask would count a second
    // miss for the one block they want.
    std::uint32_t focus_slot = kNoSlot;
    BlockId focus = kInvalidBlock;
    std::uint32_t best = 0;
    for (const std::uint32_t slot : pending.order()) {
      const std::uint32_t n = pending.population(slot);
      if (n <= best || pending.missing(slot)) continue;
      if (blocks(pending.block(slot)) == nullptr) {
        pending.mark_missing(slot);
        continue;
      }
      focus_slot = slot;
      focus = pending.block(slot);
      best = n;
    }

    if (focus == kInvalidBlock) {
      // No pending particle's block is available: every occupied block
      // has been found missing.  So each particle stops on its block
      // after the kernel's pre-access checks (budgets, domain exit),
      // without asking for the block again.  Only a particle in the
      // cursor's block, whose grid the cursor still holds though the
      // access fn no longer offers it, runs through the kernel.
      pending.all(cohort);
      for (const std::size_t i : cohort) {
        const bool in_cursor_block =
            cur.grid != nullptr && decomp_->block_of(batch[i].pos) == cur.id;
        const AdvanceOutcome o =
            in_cursor_block
                ? advance_with_cursor(batch[i], blocks, recorder, cur)
                : stop_before_access(batch[i], recorder);
        out[i].steps += o.steps;
        out[i].evals += o.evals;
        out[i].status = o.status;
        out[i].blocking_block = o.blocking_block;
      }
      break;
    }

    if (pins != nullptr && focus != pinned_focus) {
      if (pins->pin) pins->pin(focus);
      if (pinned_focus != kInvalidBlock && pins->unpin) {
        pins->unpin(pinned_focus);
      }
      pinned_focus = focus;
      // The cursor's grid was only guaranteed alive by the old pin.
      if (cur.id != focus) cur = Cursor{};
    }

    pending.take(focus_slot, cohort);
    // SIMD dispatch (DESIGN.md §14): run the focus cohort through the
    // AVX2 4-lane kernel when forced, or automatically when the cohort
    // is wide enough to fill lanes.  The kernel is bit-identical per
    // particle to the scalar round below — trajectories, statuses, step
    // and eval counts — so this is purely a throughput decision.
    const bool use_simd =
        (kernel_ == AdvectionKernel::kSimd ||
         (kernel_ == AdvectionKernel::kAuto && best >= simd::kMinAutoCohort)) &&
        simd_kernel_available();
    // blocks(focus) was non-null during the probe above and the pin
    // (when present) keeps it alive; re-fetch defensively anyway.
    const StructuredGrid* fgrid = use_simd ? blocks(focus) : nullptr;
    if (fgrid != nullptr) {
      const simd::FocusCohortArgs fargs{decomp_,  focus,    fgrid,   &iparams_,
                                        &limits_, cancels_, recorder};
      simd::advance_focus_cohort_avx2(batch, cohort, out, fargs);
    } else {
      // This round only the focus block is on the table: its residents
      // advance until they leave it (or finish); everyone else waits.
      const BlockAccessFn focus_only = [&blocks, focus](BlockId id) {
        return id == focus ? blocks(id) : nullptr;
      };
      for (const std::size_t i : cohort) {
        const AdvanceOutcome o =
            advance_with_cursor(batch[i], focus_only, recorder, cur);
        out[i].steps += o.steps;
        out[i].evals += o.evals;
        out[i].status = o.status;
        out[i].blocking_block = o.blocking_block;
      }
    }

    // Re-file the survivors where they stopped.  Most left the focus
    // block, but one can still be in it: on ThreadRuntime an unpinned
    // grid can vanish between the probe and the round.
    for (const std::size_t i : cohort) {
      if (!is_terminal(batch[i].status)) {
        pending.file(i, decomp_->block_of(batch[i].pos));
      }
    }
    pending.settle();
  }
  if (pins != nullptr && pinned_focus != kInvalidBlock && pins->unpin) {
    pins->unpin(pinned_focus);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Convenience entry points
// ---------------------------------------------------------------------------

namespace {

using FetchFn = std::function<GridPtr(BlockId)>;

// The blocks of one trace_all call, shared by its span threads: each is
// fetched at most once and kept alive to the end of the call.  Once a
// block is in, a read is one acquire load; its first reader fetches it
// under the mutex.
class SharedBlocks {
 public:
  SharedBlocks(const FetchFn& fetch, int num_blocks)
      : fetch_(fetch),
        grids_(static_cast<std::size_t>(num_blocks)),
        owned_(static_cast<std::size_t>(num_blocks)) {}

  const StructuredGrid* get(BlockId id) SF_EXCLUDES(mutex_) {
    std::atomic<const StructuredGrid*>& slot =
        grids_[static_cast<std::size_t>(id)];
    // lockfree-lint: spsc — acquire pairs with the release store below:
    // a non-null pointer happens-after the grid it points to was fetched
    // and its owner stored.
    const StructuredGrid* grid = slot.load(std::memory_order_acquire);
    if (grid != nullptr) return grid;
    MutexLock lock(mutex_);
    GridPtr& owned = owned_[static_cast<std::size_t>(id)];
    if (!owned) {
      owned = fetch_(id);
      // lockfree-lint: spsc — release store under the mutex; pairs with
      // the acquire load above.
      slot.store(owned.get(), std::memory_order_release);
    }
    return owned.get();
  }

 private:
  const FetchFn& fetch_;
  std::vector<std::atomic<const StructuredGrid*>> grids_;
  // Fetches nest the source's own locks (BlockedDataset's memo) inside
  // this one.
  Mutex mutex_{LockRank::kTraceBlocks};
  std::vector<GridPtr> owned_ SF_GUARDED_BY(mutex_);
};

std::vector<Particle> trace_spans(const BlockDecomposition& decomp,
                                  const FetchFn& fetch,
                                  std::span<const Vec3> seeds,
                                  const IntegratorParams& iparams,
                                  const TraceLimits& limits,
                                  TraceRecorder* recorder) {
  const Tracer tracer(&decomp, iparams, limits);
  SharedBlocks shared(fetch, decomp.num_blocks());
  const BlockAccessFn access = [&shared](BlockId id) { return shared.get(id); };

  std::vector<Particle> particles(seeds.size());
  std::size_t in_domain = 0;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    particles[i].id = static_cast<std::uint32_t>(i);
    particles[i].pos = seeds[i];
    if (decomp.block_of(seeds[i]) == kInvalidBlock) {
      particles[i].status = ParticleStatus::kExitedDomain;
    } else {
      ++in_domain;
    }
  }

  // One contiguous span per core, each holding an equal share of the
  // in-domain particles.  Within a span advance_batch schedules the work
  // block by block, so seeds sharing blocks (at the start or anywhere
  // downstream) are advanced while the block's data is hot.  Every block
  // is accessible here, so each span runs its particles to a terminal
  // state, and per-particle results are independent of the split
  // (DESIGN.md §5.1).
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t spans =
      std::clamp<std::size_t>(in_domain / kTraceAllMinSpan, 1, cores);
  std::vector<std::size_t> cut{0};
  for (std::size_t i = 0, seen = 0; i < particles.size(); ++i) {
    if (cut.size() < spans && seen == cut.size() * in_domain / spans) {
      cut.push_back(i);
    }
    if (!is_terminal(particles[i].status)) ++seen;
  }
  cut.push_back(particles.size());

  std::vector<std::exception_ptr> errors(spans);
  const auto run = [&](std::size_t k) {
    try {
      tracer.advance_batch(
          std::span(particles).subspan(cut[k], cut[k + 1] - cut[k]), access,
          recorder);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };
  {
    // The caller's thread takes the first span; jthreads join on scope
    // exit, also when starting one of them throws.
    std::vector<std::jthread> threads;
    threads.reserve(spans - 1);
    for (std::size_t k = 1; k < spans; ++k) threads.emplace_back(run, k);
    run(0);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return particles;
}

}  // namespace

std::vector<Particle> trace_all(const BlockedDataset& dataset,
                                std::span<const Vec3> seeds,
                                const IntegratorParams& iparams,
                                const TraceLimits& limits,
                                TraceRecorder* recorder) {
  return trace_spans(
      dataset.decomposition(),
      [&dataset](BlockId id) { return dataset.block(id); }, seeds, iparams,
      limits, recorder);
}

std::vector<Particle> trace_all(const BlockDecomposition& decomp,
                                const BlockSource& source,
                                std::span<const Vec3> seeds,
                                const IntegratorParams& iparams,
                                const TraceLimits& limits,
                                TraceRecorder* recorder) {
  return trace_spans(
      decomp, [&source](BlockId id) { return source.load(id); }, seeds,
      iparams, limits, recorder);
}

Particle trace_field(const VectorField& field, const Vec3& seed,
                     const IntegratorParams& iparams,
                     const TraceLimits& limits, TraceRecorder* recorder,
                     std::uint32_t particle_id) {
  Particle particle;
  particle.id = particle_id;
  particle.pos = seed;
  particle.h = iparams.h_init;

  if (!field.bounds().contains(seed)) {
    particle.status = ParticleStatus::kExitedDomain;
    return particle;
  }
  if (recorder != nullptr) {
    recorder->reserve_hint(static_cast<std::size_t>(limits.max_steps) + 1);
    recorder->record(particle, particle.pos);
  }

  for (;;) {
    if (particle.time >= limits.max_time) {
      particle.status = ParticleStatus::kMaxTime;
      return particle;
    }
    if (particle.steps >= limits.max_steps) {
      particle.status = ParticleStatus::kMaxSteps;
      return particle;
    }

    Vec3 v{};
    if (!field.sample(particle.pos, v)) {
      particle.status = ParticleStatus::kExitedDomain;
      return particle;
    }
    if (norm(v) < limits.min_speed) {
      particle.status = ParticleStatus::kStagnant;
      return particle;
    }

    double h = particle.h;
    const double remaining = limits.max_time - particle.time;
    if (h > remaining) h = std::max(remaining, iparams.h_min);

    const StepResult step =
        dopri5_step(field, particle.pos, particle.time, h, iparams);
    if (step.status == StepStatus::kSampleFailed) {
      particle.status = ParticleStatus::kExitedDomain;
      return particle;
    }

    particle.pos = step.p;
    particle.time = step.t;
    particle.h = step.h_next;
    particle.steps += 1;
    particle.geometry_points += 1;
    if (recorder != nullptr) recorder->record(particle, particle.pos);
  }
}

}  // namespace sf
