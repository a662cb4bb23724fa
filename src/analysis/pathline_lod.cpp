#include "analysis/pathline_lod.hpp"

#include <stdexcept>

#include "algorithms/driver.hpp"
#include "algorithms/load_on_demand.hpp"

namespace sf {

RunMetrics run_pathline_experiment(const PathlineExperimentConfig& config,
                                   const BlockDecomposition& decomp,
                                   std::vector<DatasetPtr> slices,
                                   std::vector<double> slice_times,
                                   std::span<const Vec3> seeds,
                                   std::size_t modelled_block_bytes) {
  if (config.runtime.cache_blocks < 2) {
    throw std::invalid_argument(
        "run_pathline_experiment: pathlines need a cache of >= 2 blocks "
        "(both bracketing slices must be resident)");
  }
  if (config.runtime.async_io.enabled) {
    throw std::invalid_argument(
        "run_pathline_experiment: runtime.async_io.enabled is not "
        "supported (the lookahead prefetch predicts spatial block ids, "
        "not spacetime ids)");
  }
  if (!config.runtime.cancels.empty()) {
    throw std::invalid_argument(
        "run_pathline_experiment: runtime.cancels must be empty (only the "
        "steady tracer reads the cancel set)");
  }
  const double t0 = slice_times.front();
  const UnsteadyTracer tracer(&decomp, std::move(slice_times),
                              config.integrator, config.limits);
  TimeSliceBlockSource source(std::move(slices), modelled_block_bytes);

  std::vector<Particle> rejected;
  std::vector<Particle> particles = make_particles(decomp, seeds, rejected);
  for (Particle& p : particles) p.time = t0;
  for (Particle& p : rejected) p.time = t0;

  SimRuntimeConfig runtime_config = config.runtime;
  runtime_config.checked_protocol = CheckedProtocol::kLoadOnDemand;
  const bool faulty =
      enable_requested_faults(runtime_config.fault, runtime_config.num_ranks,
                              {}, rejected);
  SimRuntime runtime(runtime_config, &decomp, &source, config.integrator,
                     config.limits, &tracer);
  RunMetrics metrics = runtime.run(make_load_on_demand(
      &decomp, partition_evenly_by_block(runtime_config.num_ranks, decomp,
                                         std::move(particles))));

  merge_presettled(metrics, faulty, rejected);
  return metrics;
}

}  // namespace sf
