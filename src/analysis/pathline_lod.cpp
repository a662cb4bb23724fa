#include "analysis/pathline_lod.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "algorithms/load_on_demand.hpp"
#include "algorithms/routing.hpp"

namespace sf {

namespace {

// Load On Demand over spacetime blocks.  Mirrors the streamline program
// of algorithms/load_on_demand.cpp, with two-block residency: a particle
// is runnable when both bracketing slice blocks are cached.
class PathlineLodProgram final : public RankProgram {
 public:
  PathlineLodProgram(const UnsteadyTracer* tracer,
                     std::vector<Particle> initial)
      : tracer_(tracer), initial_(std::move(initial)) {}

  void start(RankContext& ctx) override {
    for (Particle& p : initial_) {
      ctx.charge_particle_memory(static_cast<std::int64_t>(
          resident_particle_bytes(p, ctx.model())));
      pool_.push_back(std::move(p));
    }
    initial_.clear();
    try_start(ctx);
  }

  void on_message(RankContext&, Message) override {
    // Pathline Load On Demand is fully communication-free and runs on a
    // single rank, so no message can legally arrive.
    // protocol-lint: ignores ParticleBatch, StatusUpdate, Command
    // protocol-lint: ignores TerminationCount, DoneSignal, SeedRequest
    // protocol-lint: ignores SeedRelay, SeedTransfer, Undeliverable
    // protocol-lint: ignores MasterBeacon, ControlAck
  }

  void on_block_loaded(RankContext& ctx, BlockId) override {
    if (loads_outstanding_ > 0) --loads_outstanding_;
    try_start(ctx);
  }

  void on_compute_done(RankContext& ctx) override {
    // NOLINTNEXTLINE(bugprone-unchecked-optional-access): the runtime
    // only fires on_compute_done for a compute slot this program filled
    // in try_start, which engages in_flight_ first.
    Particle p = std::move(*in_flight_);
    in_flight_.reset();
    if (is_terminal(flight_.status)) {
      done_.push_back(std::move(p));
    } else {
      pool_.push_back(std::move(p));
    }
    try_start(ctx);
  }

  bool finished() const override { return finished_; }

  void collect_particles(std::vector<Particle>& out) const override {
    out.insert(out.end(), done_.begin(), done_.end());
  }

 private:
  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || in_flight_.has_value()) return;

    if (pool_.empty()) {
      finished_ = true;
      return;
    }

    // Runnable = both bracketing spacetime blocks resident.
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      BlockId lo, hi;
      if (!tracer_->needs(pool_[i], lo, hi)) {
        // Past the horizon or outside the domain: finalize in place.
        Particle p = std::move(pool_[i]);
        pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
        p.status = tracer_->decomposition().block_of(p.pos) == kInvalidBlock
                       ? ParticleStatus::kExitedDomain
                       : ParticleStatus::kMaxTime;
        done_.push_back(std::move(p));
        try_start(ctx);
        return;
      }
      if (ctx.block_resident(lo) && ctx.block_resident(hi)) {
        Particle p = std::move(pool_[i]);
        pool_.erase(pool_.begin() + static_cast<std::ptrdiff_t>(i));
        const std::uint32_t points_before = p.geometry_points;
        flight_ = tracer_->advance(
            p, [&ctx](BlockId id) { return ctx.block(id); });
        const std::uint32_t grown = p.geometry_points - points_before;
        if (grown != 0) {
          ctx.charge_particle_memory(static_cast<std::int64_t>(grown) *
                                     static_cast<std::int64_t>(sizeof(Vec3)));
        }
        in_flight_ = std::move(p);
        ctx.begin_compute(static_cast<double>(flight_.steps) *
                              ctx.model().seconds_per_step,
                          flight_.steps);
        return;
      }
    }

    // No runnable pathline: complete the block *pair* of the first
    // waiting particle, one read at a time (§4.2's only-when-stuck I/O).
    // Touching the already-resident half first pins it as MRU, so the
    // incoming read can never evict it — without this, a small cache
    // livelocks: each half of the pair keeps evicting the other and no
    // particle ever becomes runnable.
    if (loads_outstanding_ == 0) {
      for (const Particle& p : pool_) {
        BlockId lo, hi;
        if (!tracer_->needs(p, lo, hi)) continue;
        const bool have_lo = ctx.block_resident(lo);
        const bool have_hi = ctx.block_resident(hi);
        if (have_lo && have_hi) continue;  // raced; next pass runs it
        if (have_lo) ctx.block(lo);
        if (have_hi) ctx.block(hi);
        const BlockId missing = have_lo ? hi : lo;
        if (!ctx.block_pending(missing)) {
          ++loads_outstanding_;
          ctx.request_block(missing);
        }
        break;
      }
    }
  }

  const UnsteadyTracer* tracer_;
  std::vector<Particle> initial_;
  std::vector<Particle> pool_;
  std::vector<Particle> done_;
  std::optional<Particle> in_flight_;
  AdvanceOutcome flight_{};
  int loads_outstanding_ = 0;
  bool finished_ = false;
};

}  // namespace

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
  const double t0 = slice_times.front();
  UnsteadyTracer tracer(&decomp, slice_times, config.integrator,
                        config.limits);
  TimeSliceBlockSource source(std::move(slices), modelled_block_bytes);

  std::vector<Particle> rejected;
  std::vector<Particle> particles = make_particles(decomp, seeds, rejected);
  for (Particle& p : particles) p.time = t0;
  for (Particle& p : rejected) p.time = t0;

  auto per_rank = partition_evenly_by_block(config.runtime.num_ranks, decomp,
                                            std::move(particles));
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(per_rank));

  SimRuntime runtime(config.runtime, &decomp, &source, config.integrator,
                     config.limits);
  RunMetrics metrics = runtime.run(
      [&tracer, shared](int rank, int) -> std::unique_ptr<RankProgram> {
        return std::make_unique<PathlineLodProgram>(
            &tracer, std::move((*shared)[static_cast<std::size_t>(rank)]));
      });

  if (!metrics.failed_oom && !rejected.empty()) {
    metrics.particles.insert(metrics.particles.end(), rejected.begin(),
                             rejected.end());
    std::sort(
        metrics.particles.begin(), metrics.particles.end(),
        [](const Particle& a, const Particle& b) { return a.id < b.id; });
  }
  return metrics;
}

}  // namespace sf
