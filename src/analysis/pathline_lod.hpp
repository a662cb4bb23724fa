#pragma once

// Parallel pathline computation over time-sliced block data — the §8
// future-work extension, realized with the Load On Demand strategy
// (parallelize over pathlines, cache spacetime blocks in LRU order).
// There is no pathline program: the streamline Load On Demand program
// runs on SimRuntime with an UnsteadyTracer, whose block ids are
// spacetime ids, so pathlines get the ledger, the fault plane, the
// invariant checker and query completion like any streamline run.
//
// A pathline needs *two* resident spacetime blocks at every instant, so
// the same cache and filesystem that comfortably serve streamlines get
// hammered by slice churn; run_pathline_experiment exposes exactly that
// (see bench/pathline_study).

#include <span>

#include "analysis/unsteady_tracer.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sim_runtime.hpp"

namespace sf {

struct PathlineExperimentConfig {
  SimRuntimeConfig runtime{};
  IntegratorParams integrator{};
  TraceLimits limits{};  // max_time caps the pathline horizon
};

// Run Load-On-Demand pathlines over `slices` (with times `slice_times`)
// from `seeds` released at the first slice time.  The returned metrics
// are directly comparable to a streamline run_experiment on the same
// machine model.  Fault features switch the fault layer on as in
// run_experiment.  Throws std::invalid_argument for a cache of fewer than
// 2 blocks, for runtime.async_io.enabled and for non-empty
// runtime.cancels, none of which a pathline run can honour.
RunMetrics run_pathline_experiment(const PathlineExperimentConfig& config,
                                   const BlockDecomposition& decomp,
                                   std::vector<DatasetPtr> slices,
                                   std::vector<double> slice_times,
                                   std::span<const Vec3> seeds,
                                   std::size_t modelled_block_bytes = 0);

}  // namespace sf
