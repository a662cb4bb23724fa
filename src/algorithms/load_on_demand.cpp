#include "algorithms/load_on_demand.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace sf {

namespace {

class LoadOnDemandProgram final : public RankProgram {
 public:
  LoadOnDemandProgram(const BlockDecomposition* decomp,
                      std::vector<Particle> initial)
      : decomp_(decomp), initial_(std::move(initial)) {}

  void start(RankContext& ctx) override {
    worker_.accept(ctx, std::move(initial_));
    initial_.clear();
    try_start(ctx);
  }

  void on_message(RankContext& ctx, Message msg) override {
    // Load On Demand never communicates during normal operation; the only
    // messages it can receive are recovery hand-offs of a dead rank's
    // remaining streamlines, which just join the pool.  An Undeliverable
    // is one of those hand-offs bounced off a rank that died before
    // delivery: adopt its particles the same way so none are lost.
    // protocol-lint: ignores StatusUpdate, Command, TerminationCount
    // protocol-lint: ignores DoneSignal, SeedRequest, SeedRelay
    // protocol-lint: ignores SeedTransfer
    // protocol-lint: ignores MasterBeacon, ControlAck
    std::vector<Particle>* adopted = nullptr;
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      adopted = &batch->particles;
    } else if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      adopted = &undeliv->particles;
    }
    if (adopted == nullptr) return;
    worker_.accept(ctx, std::move(*adopted));
    if (!worker_.pool().empty()) finished_ = false;  // adopted work re-opens us
    try_start(ctx);
  }

  void on_block_loaded(RankContext& ctx, BlockId) override {
    if (loads_outstanding_ > 0) --loads_outstanding_;
    try_start(ctx);
  }

  void on_compute_done(RankContext& ctx) override {
    worker_.finish_burst(ctx);
    try_start(ctx);
  }

  bool finished() const override { return finished_; }

  void collect_particles(std::vector<Particle>& out) const override {
    worker_.collect(out);
  }

  void snapshot_particles(std::vector<Particle>& out) const override {
    out.insert(out.end(), initial_.begin(), initial_.end());
    worker_.snapshot(out);
  }

 private:
  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || worker_.in_burst()) return;

    const ParticlePool& pool = worker_.pool();
    if (pool.empty()) {
      // All of this rank's streamlines have terminated; it is done,
      // independently of everyone else (§4.2).
      finished_ = true;
      return;
    }

    const BlockId runnable = worker_.runnable_block(ctx);
    if (runnable != kInvalidBlock) {
      const int lookahead = ctx.prefetch_capacity();
      std::vector<Vec3> starts;  // burst start positions, for the lookahead
      worker_.start_burst(ctx, runnable, lookahead > 0 ? &starts : nullptr);
      // Overlap: while this burst integrates, background-read the blocks
      // it is about to stop for (the outcomes name them exactly), then
      // the blocks those streamlines point at one block further on —
      // a short burst gives the one-ahead read no time to finish, the
      // two-ahead hint absorbs that — then fill any leftover depth with
      // the pooled runners-up.
      prefetch_blocking_targets(ctx, worker_.outcomes(), runnable, lookahead);
      prefetch_streamline_lookahead(ctx, *decomp_, worker_.burst(), starts,
                                    worker_.outcomes(), runnable, lookahead);
      prefetch_densest(ctx, pool, runnable, lookahead);
      return;
    }

    // No in-memory work left: only now read one block from disk — the one
    // that unblocks the most streamlines.
    if (loads_outstanding_ == 0) {
      const BlockId next = pool.densest_block();
      if (next != kInvalidBlock && !ctx.block_pending(next)) {
        ++loads_outstanding_;
        ctx.request_block(next);
        // Overlap the demand read with hints for the runners-up.
        prefetch_densest(ctx, pool, next, ctx.prefetch_capacity());
      }
    }
  }

  const BlockDecomposition* decomp_;
  std::vector<Particle> initial_;
  StreamlineWorker worker_;
  int loads_outstanding_ = 0;
  bool finished_ = false;
};

}  // namespace

std::vector<std::vector<Particle>> partition_evenly_by_block(
    int num_ranks, const BlockDecomposition& decomp,
    std::vector<Particle> particles) {
  std::stable_sort(particles.begin(), particles.end(),
                   [&decomp](const Particle& a, const Particle& b) {
                     return decomp.block_of(a.pos) < decomp.block_of(b.pos);
                   });
  return split_evenly(num_ranks, std::move(particles));
}

ProgramFactory make_load_on_demand(
    const BlockDecomposition* decomp,
    std::vector<std::vector<Particle>> initial) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(initial));
  return [decomp, shared](int rank,
                          int /*num_ranks*/) -> std::unique_ptr<RankProgram> {
    return std::make_unique<LoadOnDemandProgram>(
        decomp, std::move((*shared)[static_cast<std::size_t>(rank)]));
  };
}

}  // namespace sf
