#include "algorithms/static_alloc.hpp"

#include <map>
#include <memory>
#include <utility>

#include "algorithms/hybrid_rules.hpp"

namespace sf {

namespace {

class StaticProgram final : public RankProgram {
 public:
  StaticProgram(const BlockDecomposition* decomp, int rank, int num_ranks,
                std::vector<Particle> initial, std::uint32_t total_active)
      : decomp_(decomp),
        rank_(rank),
        initial_(std::move(initial)),
        term_(HybridLayout{num_ranks, num_ranks, 0}, rank, total_active,
              /*failover=*/false) {}

  void start(RankContext& ctx) override {
    worker_.accept(ctx, std::move(initial_));
    initial_.clear();
    publish(ctx);  // with nothing to trace the counter finishes at once
    try_start(ctx);
  }

  void on_message(RankContext& ctx, Message msg) override {
    // Static Allocation only trades particles and the §4.1 termination
    // count; Hybrid-only traffic cannot legally reach it, and ControlAck
    // is consumed by the control transport before program dispatch.
    // protocol-lint: ignores StatusUpdate, Command, SeedRequest
    // protocol-lint: ignores SeedRelay, SeedTransfer, MasterBeacon
    // protocol-lint: ignores ControlAck
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      for (Particle& p : batch->particles) {
        accept_or_forward(ctx, std::move(p));
      }
      try_start(ctx);
    } else if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      // One of our hand-offs bounced (dropped link or dead owner):
      // re-route each particle to the block's current live owner.
      for (Particle& p : undeliv->particles) {
        accept_or_forward(ctx, std::move(p));
      }
      try_start(ctx);
    } else if (auto* term = std::get_if<TerminationCount>(&msg.payload)) {
      // A worker's cumulative report, or the runtime's full-ledger
      // recount delivered to us as the new acting counter after a crash.
      term_.merge(term->totals);
      publish(ctx);
    } else if (std::holds_alternative<DoneSignal>(msg.payload)) {
      finished_ = true;
    }
  }

  void on_block_loaded(RankContext& ctx, BlockId) override { try_start(ctx); }

  void on_compute_done(RankContext& ctx) override {
    // Group hand-offs by (owner, block) so one burst produces one
    // ParticleBatch per destination instead of one per streamline.
    std::map<std::pair<int, BlockId>, std::vector<Particle>> forwards;
    const std::uint32_t new_terminations =
        worker_.finish_burst(ctx, [&](Particle&& p, BlockId need) {
          // The static block->rank map, redirected past dead ranks: a dead
          // owner's blocks fall to the next live rank in cyclic order.
          const int owner = live_owner(ctx, decomp_->num_blocks(), need);
          if (owner == rank_) {
            worker_.pool().add(need, std::move(p));
            if (!ctx.block_resident(need) && !ctx.block_pending(need)) {
              ctx.request_block(need);
            }
          } else {
            // Communicate the streamline to the block's owner (§4.1).
            forwards[{owner, need}].push_back(std::move(p));
          }
        });
    for (auto& [dest, particles] : forwards) {
      worker_.ship(ctx, dest.first, dest.second, std::move(particles));
    }
    if (new_terminations > 0) {
      my_total_ += new_terminations;
      term_.merge(rank_, my_total_);
      publish(ctx);
    }
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
  // Pool an incoming particle if its block is (now) ours, else forward it
  // to the block's live owner.  Outside fault injection the owner is
  // always this rank (hand-offs are addressed to the static owner).
  void accept_or_forward(RankContext& ctx, Particle p) {
    const BlockId b = decomp_->block_of(p.pos);
    const int owner = live_owner(ctx, decomp_->num_blocks(), b);
    if (owner == rank_) {
      worker_.accept(ctx, std::move(p));
    } else {
      Message m;
      m.payload = ParticleBatch{b, {std::move(p)}};
      ctx.send(owner, std::move(m));
    }
  }

  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || worker_.in_burst()) return;

    const BlockId runnable = worker_.runnable_block(ctx);
    if (runnable != kInvalidBlock) {
      worker_.start_burst(ctx, runnable);
      // Overlap: hand-offs that arrived during earlier bursts pooled
      // under not-yet-resident owned blocks; read them in the background
      // while this burst integrates.  Shallow regardless of the
      // configured depth — this rank only ever reads its own contiguous
      // range, so a deep speculative pipeline just churns staging.
      prefetch_densest(ctx, worker_.pool(), runnable,
                       std::min(4, ctx.prefetch_capacity()));
      return;
    }

    // Nothing runnable: fetch every pooled block that has waiting work
    // (owned blocks by construction, plus any adopted from a dead rank).
    for (const auto& [block, count] : worker_.pool().census()) {
      if (!ctx.block_resident(block) && !ctx.block_pending(block)) {
        ctx.request_block(block);
      }
    }
  }

  // The termination board, with every rank a coordinator: the acting
  // counter is the lowest live rank.  Every rank computes it the same
  // way, so when rank 0 dies the counter role (and every subsequent
  // report) migrates to the next survivor without an election; the
  // runtime seeds the successor's board with a full ledger recount so
  // reports already absorbed by the dead counter are not lost.  A worker
  // reports its cumulative total, not a delta: max-merge on the counter
  // makes duplicated or re-ordered reports (at-least-once control
  // delivery, post-crash re-reports) harmless.  When every streamline is
  // accounted for, the counter sends DoneSignal to every live rank.
  void publish(RankContext& ctx) {
    if (finished_) return;
    finished_ = term_.publish([&ctx](int r) { return ctx.is_alive(r); },
                              [](int) { return false; }, orders_);
    for (auto& [rank, order] : orders_) {
      Message m;
      if (auto* tc = std::get_if<TerminationCount>(&order)) {
        m.payload = std::move(*tc);
      } else {
        m.payload = DoneSignal{};  // no slaves, so nothing else
      }
      ctx.send(rank, std::move(m));
    }
    orders_.clear();
  }

  const BlockDecomposition* decomp_;
  int rank_;
  std::vector<Particle> initial_;
  std::uint32_t my_total_ = 0;  // cumulative first-time terminations here
  // Authoritative on the acting counter, where global done = its sum.
  TerminationDuty term_;
  CoordinatorOrders orders_;  // reused by every publish

  StreamlineWorker worker_;
  bool finished_ = false;
};

}  // namespace

std::vector<std::vector<Particle>> partition_by_block_owner(
    const BlockDecomposition& decomp, int num_ranks,
    std::vector<Particle> particles) {
  std::vector<std::vector<Particle>> out(
      static_cast<std::size_t>(num_ranks));
  for (Particle& p : particles) {
    const BlockId b = decomp.block_of(p.pos);
    const int owner = contiguous_owner(decomp.num_blocks(), num_ranks, b);
    out[static_cast<std::size_t>(owner)].push_back(std::move(p));
  }
  return out;
}

ProgramFactory make_static_allocation(
    const BlockDecomposition* decomp,
    std::vector<std::vector<Particle>> initial, std::uint32_t total_active) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(initial));
  return [decomp, shared, total_active](
             int rank, int num_ranks) -> std::unique_ptr<RankProgram> {
    return std::make_unique<StaticProgram>(
        decomp, rank, num_ranks,
        std::move((*shared)[static_cast<std::size_t>(rank)]), total_active);
  };
}

}  // namespace sf
