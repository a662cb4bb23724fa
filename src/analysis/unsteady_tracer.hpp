#pragma once

// Pathline advancement over *blocked, time-sliced* data — the §8
// extension of the paper's streamline setting ("the same considerations
// also apply to pathlines, which depend on considerably larger amounts
// of data since it becomes necessary to advance through multiple time
// steps of a simulation as well as space").
//
// The unit of I/O is a spacetime block: spatial block b of time slice s.
// Advancing a particle at time t inside block b requires *two* resident
// spacetime blocks — (s, b) and (s+1, b), the bracketing slices — which
// is exactly why pathlines hit the filesystem so much harder than
// streamlines.
//
// UnsteadyTracer is a Tracer whose block ids are spacetime ids, so the
// Load On Demand program and SimRuntime run pathlines unchanged: a
// particle waits on the lower block of its bracket pair, and a batch
// advances one particle at a time.

#include <cstdint>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/dataset.hpp"
#include "core/integrator.hpp"
#include "core/particle.hpp"
#include "core/tracer.hpp"

namespace sf {

// Identifies spacetime block (slice, spatial) as a single id so the
// existing cache/runtime machinery applies unchanged.
struct SpacetimeId {
  int slice = 0;
  BlockId spatial = kInvalidBlock;
};

class UnsteadyTracer final : public Tracer {
 public:
  // `times` are the slice times (ascending, >= 2 entries).  Particle
  // time starts within [times.front(), times.back()].
  UnsteadyTracer(const BlockDecomposition* decomp, std::vector<double> times,
                 const IntegratorParams& iparams, const TraceLimits& limits);

  int num_slices() const { return static_cast<int>(times_.size()); }
  int num_spatial_blocks() const { return decomposition().num_blocks(); }
  int num_spacetime_blocks() const {
    return num_slices() * num_spatial_blocks();
  }

  BlockId encode(const SpacetimeId& id) const {
    return static_cast<BlockId>(id.slice) * num_spatial_blocks() +
           id.spatial;
  }
  SpacetimeId decode(BlockId id) const {
    return {static_cast<int>(id) / num_spatial_blocks(),
            static_cast<BlockId>(static_cast<int>(id) %
                                 num_spatial_blocks())};
  }

  // The two spacetime blocks a particle needs right now (slice bracket
  // of particle.time x owner of particle.pos).  Returns false when the
  // particle is outside the domain or past the last slice.
  bool needs(const Particle& particle, BlockId& lo, BlockId& hi) const;

  // The lower spacetime id of the particle's bracket pair (the last
  // bracket once past the final slice), or kInvalidBlock outside the
  // domain.
  BlockId block_of(const Particle& particle) const override;

  // Advance while both bracketing spacetime blocks are available, with
  // `blocks` looking grids up by encoded spacetime id.  Status kMaxTime
  // is reported when the particle reaches the end of the time range (or
  // limits.max_time, whichever is first).  On kActive, blocking_block
  // is the encoded spacetime id needed next.
  AdvanceOutcome advance(Particle& particle,
                         const BlockAccessFn& blocks) const;

  // advance() on each particle in turn.  The recorder and pin hooks are
  // not used: nothing can evict a grid during one synchronous call.
  std::vector<AdvanceOutcome> advance_batch(
      std::span<Particle> batch, const BlockAccessFn& blocks,
      TraceRecorder* recorder, const BlockPinHooks* pins) const override;

  const std::vector<double>& times() const { return times_; }

 private:
  // Index of the slice bracket [s, s+1] containing time t.
  int bracket_of(double t) const;

  std::vector<double> times_;
};

// BlockSource over time slices: spacetime id -> the slice's block grid.
// Every slice load is charged like a full spatial block read (the
// "many small reads that can overwhelm the file system" of §8 appear as
// soon as slices are dense).
class TimeSliceBlockSource final : public BlockSource {
 public:
  TimeSliceBlockSource(std::vector<DatasetPtr> slices,
                       std::size_t modelled_bytes = 0);

  GridPtr load(BlockId id) const override;
  std::size_t block_bytes(BlockId id) const override;
  int num_blocks() const override;

 private:
  std::vector<DatasetPtr> slices_;
  std::size_t modelled_bytes_;
};

}  // namespace sf
