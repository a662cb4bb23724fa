#pragma once

// Shared helpers for the three parallelization strategies: contiguous
// block ownership, per-block particle pools, the streamline worker every
// rank that integrates runs, and the termination board.

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/particle.hpp"
#include "core/vec3.hpp"
#include "runtime/rank_context.hpp"

namespace sf {

// Static Allocation's block->processor map: "the first of n processors is
// assigned the first 1/n of the blocks, the next processor the second
// 1/n" (§4.1).  Balanced contiguous ranges.
int contiguous_owner(int num_blocks, int num_ranks, BlockId block);

// The contiguous [first, last) block range owned by `rank`.
std::pair<BlockId, BlockId> contiguous_range(int num_blocks, int num_ranks,
                                             int rank);

// Bytes a resident particle occupies on a rank: fixed bookkeeping plus
// its recorded geometry (kept after termination — trajectories are
// gathered for rendering).
std::size_t resident_particle_bytes(const Particle& p,
                                    const MachineModel& model);

// Particles waiting on a rank, grouped by the block they currently
// reside in.  std::map keeps iteration deterministic.
class ParticlePool {
 public:
  // Enqueue a particle under the block it currently resides in.
  void add(BlockId block, Particle p);
  // Pop one particle from block `b`; nullopt if none.
  std::optional<Particle> take_from(BlockId b);

  bool empty() const { return total_ == 0; }
  std::size_t size() const { return total_; }
  std::size_t count_in(BlockId b) const;

  // First block (in id order) whose particles can run, per `resident`.
  template <typename Pred>
  BlockId first_block_where(Pred resident) const {
    for (const auto& [block, queue] : by_block_) {
      if (!queue.empty() && resident(block)) return block;
    }
    return kInvalidBlock;
  }

  // Block with the most waiting particles (ties -> lowest id).
  BlockId densest_block() const;

  // Blocks with at least one waiting particle, with counts.
  std::vector<std::pair<BlockId, std::uint32_t>> census() const;

  // Remove and return every particle waiting in block `b`.
  std::vector<Particle> drain_block(BlockId b);

  // Copy every waiting particle into `out` (checkpoint snapshots).
  void append_all(std::vector<Particle>& out) const;

 private:
  std::map<BlockId, std::deque<Particle>> by_block_;
  std::size_t total_ = 0;
};

// Create initial particles from seed points.  Seeds outside the domain
// terminate immediately (status kExitedDomain) and are returned in
// `rejected`; ids are the seed indices.
std::vector<Particle> make_particles(const BlockDecomposition& decomp,
                                     std::span<const Vec3> seeds,
                                     std::vector<Particle>& rejected);

// Deal particles, in order, into `parts` equal contiguous chunks.
std::vector<std::vector<Particle>> split_evenly(
    int parts, std::vector<Particle> particles);

// Prefetch predictor shared by the three algorithms (DESIGN.md §10):
// hint the runtime at the pooled blocks most likely to be demanded next
// — the ones with the most waiting streamlines that are not yet
// resident or pending, skipping `exclude` (the block being demanded or
// integrated right now).  Issues at most `max_hints` hints in a
// deterministic order (count descending, id ascending).  A no-op when
// the runtime's async I/O is off, so the synchronous demand path and
// its accounting are untouched.
void prefetch_densest(RankContext& ctx, const ParticlePool& pool,
                      BlockId exclude, int max_hints);

// Prefetch predictor for a burst in flight: the pool census cannot see
// the particles being integrated right now, but their advance outcomes
// name the exact blocks they stopped for.  Hint those (count
// descending, id ascending) — for a dense cohort marching through the
// dataset together this is the whole next working set.  Same no-op
// guarantees as prefetch_densest.
void prefetch_blocking_targets(RankContext& ctx,
                               std::span<const AdvanceOutcome> outcomes,
                               BlockId exclude, int max_hints);

// Second-order predictor: the blocking-target hints only look one burst
// ahead, and a short burst leaves the background read no time to finish
// before the demand lands (a partial overlap).  Extrapolate each still-
// active particle past its blocking block along its direction of travel
// over the burst — the block a streamline *points at* — so the block
// demanded two bursts from now is already staged when its turn comes.
// `start_positions[i]` is batch[i]'s position before the burst;
// outcomes[i] matches batch[i].  Same no-op guarantees as
// prefetch_densest.
void prefetch_streamline_lookahead(RankContext& ctx,
                                   const BlockDecomposition& decomp,
                                   std::span<const Particle> batch,
                                   std::span<const Vec3> start_positions,
                                   std::span<const AdvanceOutcome> outcomes,
                                   BlockId exclude, int max_hints);

// First alive rank after `after` in cyclic order (never `after` itself
// unless it is the only live rank).  Requires at least one alive rank.
int next_live_rank(const RankContext& ctx, int after);

// contiguous_owner, redirected to the next live rank when the owner is
// dead (Static Allocation's crash re-routing).
int live_owner(const RankContext& ctx, int num_blocks, BlockId block);

// One rank's streamline work, the duty all three algorithms share (§4):
// pool streamlines by the block they are in, integrate everything waiting
// in one resident block as a single burst, then settle the outcomes.  The
// worker owns the pool, the burst in flight and its outcomes, the done
// list, and the particle-memory charges for all of them.  Each program
// keeps its own policy: which block to run, what to prefetch and load,
// and where a streamline that is still live after its burst goes.
class StreamlineWorker {
 public:
  ParticlePool& pool() { return pool_; }
  const ParticlePool& pool() const { return pool_; }

  // Charge each particle's resident bytes and pool it under the block it
  // waits on (Tracer::block_of).
  void accept(RankContext& ctx, Particle p);
  void accept(RankContext& ctx, std::vector<Particle> particles);

  // Un-charge `particles` and send them to rank `to` as one ParticleBatch
  // for `block`.  Nothing is sent when `particles` is empty.
  void ship(RankContext& ctx, int to, BlockId block,
            std::vector<Particle> particles);

  // First pooled block (id order) resident in the rank's cache, or
  // kInvalidBlock.
  BlockId runnable_block(const RankContext& ctx) const;

  bool in_burst() const { return !burst_.empty(); }

  // Drain `block`'s queue and integrate it as one burst (§9 batching):
  // advance it through Tracer::advance_batch (shared block/cell cursor),
  // charge the geometry it grew, and start the modelled compute of the
  // accepted steps.  Returns those steps.  `starts`, when given, receives
  // each particle's position before the advance.
  std::uint64_t start_burst(RankContext& ctx, BlockId block,
                            std::vector<Vec3>* starts = nullptr);

  // The burst in flight and the outcome of each of its particles.
  std::span<const Particle> burst() const { return burst_; }
  std::span<const AdvanceOutcome> outcomes() const { return outcomes_; }

  // Settle the burst whose compute just finished.  A terminated particle
  // is logged with the runtime and kept on the done list; a live one goes
  // to `on_live(Particle&&, BlockId blocking_block)`.  Returns the number
  // of first-time terminations (a recovery re-run's duplicate does not
  // count twice).
  template <typename OnLive>
  std::uint32_t finish_burst(RankContext& ctx, OnLive&& on_live) {
    std::vector<Particle> batch = std::move(burst_);
    burst_.clear();
    std::vector<AdvanceOutcome> outcomes = std::move(outcomes_);
    outcomes_.clear();
    std::uint32_t first_time = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (is_terminal(outcomes[i].status)) {
        if (ctx.log_termination(batch[i])) ++first_time;
        done_.push_back(std::move(batch[i]));
      } else {
        on_live(std::move(batch[i]), outcomes[i].blocking_block);
      }
    }
    return first_time;
  }

  // The same, re-pooling every live particle under its blocking block.
  std::uint32_t finish_burst(RankContext& ctx) {
    return finish_burst(ctx, [this](Particle&& p, BlockId need) {
      pool_.add(need, std::move(p));
    });
  }

  // Append the done list (run results).
  void collect(std::vector<Particle>& out) const;
  // Append every live particle: the pool, then the burst in flight.
  void snapshot(std::vector<Particle>& out) const;

 private:
  ParticlePool pool_;
  std::vector<Particle> burst_;
  std::vector<AdvanceOutcome> outcomes_;  // outcome per burst_[i]
  std::vector<Particle> done_;
};

// Per-rank cumulative termination totals: Static Allocation's global
// streamline count (§4.1) and the hybrid coordinators' survivable board
// (DESIGN.md §11).  Reports are cumulative, so merging keeps the maximum:
// a duplicated, re-ordered, stale or zero report changes nothing, and the
// global done count is the sum of the board, kept as a running total.
class TerminationBoard {
 public:
  // Raise `rank`'s total to `total`.  True iff the total rose.
  bool merge(int rank, std::uint32_t total);
  // Merge a whole report (a peer's board).  True iff any total rose.  One
  // forward pass over the board when the report is sorted by rank, as a
  // published board is; any order gives the same result.
  bool merge(std::span<const std::pair<int, std::uint32_t>> report);
  std::uint64_t sum() const { return sum_; }
  // Every rank with a nonzero total, by rank.
  const std::map<int, std::uint32_t>& totals() const { return totals_; }

 private:
  std::map<int, std::uint32_t> totals_;
  std::uint64_t sum_ = 0;  // the sum of totals_
};

}  // namespace sf
