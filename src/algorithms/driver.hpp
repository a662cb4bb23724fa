#pragma once

// Experiment driver: one call to run any of the three algorithms on a
// dataset + seed set over the simulated machine, returning the metrics
// the paper's figures plot.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algorithms/hybrid.hpp"
#include "core/dataset.hpp"
#include "core/tracer.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_runtime.hpp"
#include "runtime/thread_runtime.hpp"

namespace sf {

enum class Algorithm {
  kStaticAllocation,
  kLoadOnDemand,
  kHybridMasterSlave,
};

const char* to_string(Algorithm a);

struct ExperimentConfig {
  Algorithm algorithm = Algorithm::kHybridMasterSlave;
  SimRuntimeConfig runtime{};
  IntegratorParams integrator{};
  TraceLimits limits{};
  HybridParams hybrid{};
  // Resume from a checkpoint file written by an earlier faulted run
  // (--restart-from): the checkpoint's done list is folded into the
  // results and only its active particles are re-advected, reproducing
  // the uninterrupted run's final particles exactly.
  std::string restart_from;
  // Owning query per seed (src/service): seed_queries[i] tags the particle
  // made from seeds[i].  Empty for standalone runs (every particle keeps
  // query 0).  When non-empty the size must match the seed count.
  std::vector<std::uint32_t> seed_queries;
};

// The fault wiring run_experiment and run_pathline_experiment share:
// switch the fault layer on when any fault feature is requested
// (`restart_from` counts), with the runtime failure detector and
// `settled` (rejected seeds, a restart's done list) in the ledger from
// the start.  Returns whether it is on; when not, the runtime takes the
// exact fault-free code paths (bit-identical runs).  Throws
// std::invalid_argument, naming the field and the entry, for a scheduled
// crash or slowdown whose rank is outside [0, num_ranks), whose time is
// negative or not finite, or (slowdowns) whose factor is not finite.
bool enable_requested_faults(FaultConfig& fault, int num_ranks,
                             const std::string& restart_from,
                             std::vector<Particle> settled);

// Fold `settled` into a fault-free run's particles, sorted by id; with
// `faulty` the ledger already did.  Failed runs keep their partial
// results too — diagnosable is better than empty.
void merge_presettled(RunMetrics& metrics, bool faulty,
                      std::span<const Particle> settled);

// Run one experiment.  Seeds outside the domain terminate immediately and
// are folded back into the result.  Throws std::invalid_argument on
// nonsensical configurations (e.g. hybrid with one rank).
//
// When any fault feature is requested (config.runtime.fault fields or
// restart_from), the driver finishes the fault configuration per
// algorithm: hybrid switches to heartbeat (in-protocol) failure detection
// with master failover; static allocation and load-on-demand use the
// runtime detector.  No rank is immune — coordinator death (a hybrid
// master, the termination counter) is survivable (DESIGN.md §11);
// immune_ranks stays empty unless the caller opts in.
RunMetrics run_experiment(const ExperimentConfig& config,
                          const BlockDecomposition& decomp,
                          const BlockSource& source,
                          std::span<const Vec3> seeds);

// Same experiment on the real-thread runtime (one OS thread per rank),
// with optional schedule-perturbation fuzzing via
// config.runtime.schedule_fuzz_seed.  The thread runtime has no fault
// plane: any fault/restart request throws std::invalid_argument, as does
// a timed cancel (ThreadRuntime's constructor).
RunMetrics run_experiment_threads(const ExperimentConfig& config,
                                  const BlockDecomposition& decomp,
                                  const BlockSource& source,
                                  std::span<const Vec3> seeds);

}  // namespace sf
