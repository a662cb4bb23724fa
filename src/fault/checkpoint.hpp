#pragma once

// A checkpoint is a consistent snapshot of every streamline's solver
// state plus per-rank block-residency and ownership bookkeeping.
//
// Because a Particle carries exactly the state needed to resume
// integration bit-identically (core/particle.hpp), restarting from
// `active` and merging `done` reproduces the uninterrupted run's final
// particles exactly — there is no hidden program state to capture.

#include <cstdint>
#include <vector>

#include "core/block_decomposition.hpp"
#include "core/particle.hpp"

namespace sf {

struct CheckpointRankState {
  int rank = -1;
  bool alive = true;
  std::vector<BlockId> resident;  // cache contents at checkpoint time
};

struct Checkpoint {
  double sim_time = 0.0;
  int num_ranks = 0;
  // Run-topology stamp (format v2): the algorithm that wrote the
  // checkpoint and a hash of the dataset's block decomposition.  Restarts
  // validate all three topology fields and refuse a mismatch — resuming a
  // static run's checkpoint under hybrid, or on a different dataset,
  // would silently mis-own every particle.
  std::uint8_t algorithm = 0;
  std::uint64_t dataset_hash = 0;
  std::vector<Particle> done;     // terminal streamlines, sorted by id
  std::vector<Particle> active;   // in-progress solver states, sorted by id
  std::vector<int> active_owner;  // rank owning active[i] at snapshot time
  std::vector<CheckpointRankState> ranks;
};

// Stable hash of a dataset's block topology, stamped into checkpoints and
// compared on restart.
std::uint64_t dataset_topology_hash(const BlockDecomposition& decomp);

}  // namespace sf
