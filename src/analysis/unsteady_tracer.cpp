#include "analysis/unsteady_tracer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sf {

UnsteadyTracer::UnsteadyTracer(const BlockDecomposition* decomp,
                               std::vector<double> times,
                               const IntegratorParams& iparams,
                               const TraceLimits& limits)
    : Tracer(decomp, iparams, limits), times_(std::move(times)) {
  if (decomp == nullptr) {
    throw std::invalid_argument("UnsteadyTracer: null decomposition");
  }
  if (times_.size() < 2 || !std::is_sorted(times_.begin(), times_.end())) {
    throw std::invalid_argument(
        "UnsteadyTracer: need >= 2 ascending slice times");
  }
}

int UnsteadyTracer::bracket_of(double t) const {
  const auto hi = std::upper_bound(times_.begin(), times_.end(), t);
  int s = static_cast<int>(hi - times_.begin()) - 1;
  // The last slice time belongs to the final bracket.
  return std::clamp(s, 0, num_slices() - 2);
}

bool UnsteadyTracer::needs(const Particle& particle, BlockId& lo,
                           BlockId& hi) const {
  if (particle.time < times_.front() || particle.time >= times_.back()) {
    return false;
  }
  lo = block_of(particle);
  if (lo == kInvalidBlock) return false;
  hi = lo + num_spatial_blocks();
  return true;
}

BlockId UnsteadyTracer::block_of(const Particle& particle) const {
  const BlockId spatial = decomposition().block_of(particle.pos);
  if (spatial == kInvalidBlock) return kInvalidBlock;
  return encode({bracket_of(particle.time), spatial});
}

std::vector<AdvanceOutcome> UnsteadyTracer::advance_batch(
    std::span<Particle> batch, const BlockAccessFn& blocks,
    TraceRecorder* /*recorder*/, const BlockPinHooks* /*pins*/) const {
  std::vector<AdvanceOutcome> out;
  out.reserve(batch.size());
  for (Particle& p : batch) out.push_back(advance(p, blocks));
  return out;
}

AdvanceOutcome UnsteadyTracer::advance(Particle& particle,
                                       const BlockAccessFn& blocks) const {
  const IntegratorParams& iparams = integrator_params();
  const TraceLimits& limits = this->limits();
  AdvanceOutcome out;
  if (is_terminal(particle.status)) {
    out.status = particle.status;
    return out;
  }
  if (particle.h <= 0.0) particle.h = iparams.h_init;

  const double t_end = std::min(limits.max_time, times_.back());

  for (;;) {
    if (particle.time >= t_end) {
      particle.status = ParticleStatus::kMaxTime;
      break;
    }
    if (particle.steps >= limits.max_steps) {
      particle.status = ParticleStatus::kMaxSteps;
      break;
    }

    const BlockId spatial = decomposition().block_of(particle.pos);
    if (spatial == kInvalidBlock) {
      particle.status = ParticleStatus::kExitedDomain;
      break;
    }

    const int s = bracket_of(particle.time);
    const BlockId id0 = encode({s, spatial});
    const BlockId id1 = encode({s + 1, spatial});
    const StructuredGrid* g0 = blocks(id0);
    const StructuredGrid* g1 = blocks(id1);
    if (g0 == nullptr || g1 == nullptr) {
      out.blocking_block = (g0 == nullptr) ? id0 : id1;
      out.status = ParticleStatus::kActive;
      return out;
    }

    const double t0 = times_[static_cast<std::size_t>(s)];
    const double t1 = times_[static_cast<std::size_t>(s) + 1];
    const double span = t1 - t0;

    // Linear interpolation between the two resident slice grids.  Both
    // grids cover the same ghost-inflated spatial extent, so stage
    // points near faces behave exactly like the steady tracer.
    const UnsteadySampleFn rhs = [&](const Vec3& p, double t, Vec3& v) {
      Vec3 v0, v1;
      out.evals += 1;
      if (!g0->sample(p, v0) || !g1->sample(p, v1)) return false;
      const double w =
          span > 0.0 ? std::clamp((t - t0) / span, 0.0, 1.0) : 0.0;
      v = v0 * (1.0 - w) + v1 * w;
      return true;
    };

    // Don't integrate past the bracket's end (the next bracket needs a
    // different block pair) nor past the global horizon.
    double h = particle.h;
    h = std::min(h, t1 - particle.time);
    h = std::min(h, t_end - particle.time);
    h = std::max(h, iparams.h_min);

    const StepResult step =
        dopri5_step(rhs, particle.pos, particle.time, h, iparams);
    if (step.status == StepStatus::kSampleFailed) {
      // At the rim of the data (boundary-block ghost regions clamp, so
      // this is the domain boundary).
      particle.status = ParticleStatus::kExitedDomain;
      break;
    }

    particle.pos = step.p;
    particle.time = step.t;
    particle.h = step.h_next;
    particle.steps += 1;
    particle.geometry_points += 1;
    out.steps += 1;
  }
  out.status = particle.status;
  return out;
}

TimeSliceBlockSource::TimeSliceBlockSource(std::vector<DatasetPtr> slices,
                                           std::size_t modelled_bytes)
    : slices_(std::move(slices)), modelled_bytes_(modelled_bytes) {
  if (slices_.size() < 2) {
    throw std::invalid_argument("TimeSliceBlockSource: need >= 2 slices");
  }
}

GridPtr TimeSliceBlockSource::load(BlockId id) const {
  const int nspatial = slices_.front()->num_blocks();
  const int slice = static_cast<int>(id) / nspatial;
  const BlockId spatial = static_cast<BlockId>(static_cast<int>(id) % nspatial);
  if (slice < 0 || slice >= static_cast<int>(slices_.size())) {
    throw std::out_of_range("TimeSliceBlockSource::load: bad slice");
  }
  return slices_[static_cast<std::size_t>(slice)]->block(spatial);
}

std::size_t TimeSliceBlockSource::block_bytes(BlockId) const {
  return modelled_bytes_ != 0 ? modelled_bytes_
                              : slices_.front()->block_payload_bytes();
}

int TimeSliceBlockSource::num_blocks() const {
  return static_cast<int>(slices_.size()) * slices_.front()->num_blocks();
}

}  // namespace sf
