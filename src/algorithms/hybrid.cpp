#include "algorithms/hybrid.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "algorithms/hybrid_rules.hpp"

namespace sf {

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

HybridLayout HybridLayout::make(int num_ranks, int slaves_per_master,
                                int root_fanout) {
  if (num_ranks < 2) {
    throw std::invalid_argument("HybridLayout: need at least 2 ranks");
  }
  if (slaves_per_master < 1) {
    throw std::invalid_argument("HybridLayout: W >= 1");
  }
  HybridLayout layout;
  layout.num_ranks = num_ranks;
  // One master per W slaves, carved out of the allocation itself.
  const int flat_masters =
      std::clamp(num_ranks / (slaves_per_master + 1), 1, num_ranks - 1);
  layout.num_masters = flat_masters;
  // Two-level tree: once the flat master count exceeds the root fanout,
  // add a root tier of ceil(masters / fanout) extra coordinator ranks
  // above the (unchanged) leaf-master count.  Below that threshold the
  // layout — and hence the whole message sequence — is exactly the flat
  // one, which is the bit-identity contract (DESIGN.md §15).
  if (root_fanout > 0 && flat_masters > root_fanout) {
    const int roots = (flat_masters + root_fanout - 1) / root_fanout;
    if (flat_masters + roots < num_ranks) {  // must leave >= 1 slave
      layout.num_roots = roots;
      layout.num_masters = flat_masters + roots;
    }
  }
  return layout;
}

int HybridLayout::master_of(int slave_rank) const {
  const int s = slave_rank - num_masters;  // slave index
  // Inverse of slaves_of's balanced contiguous split.
  return num_roots +
         static_cast<int>(((static_cast<std::int64_t>(s) + 1) * num_leaves() -
                           1) /
                          num_slaves());
}

std::pair<int, int> HybridLayout::slaves_of(int master_rank) const {
  if (master_rank < num_roots) return {num_masters, num_masters};  // empty
  const int leaf = master_rank - num_roots;
  const auto ns = static_cast<std::int64_t>(num_slaves());
  const int first = num_masters + static_cast<int>(ns * leaf / num_leaves());
  const int last =
      num_masters + static_cast<int>(ns * (leaf + 1) / num_leaves());
  return {first, last};
}

int HybridLayout::root_of(int leaf_master) const {
  const int l = leaf_master - num_roots;  // leaf index
  // Inverse of leaves_of's balanced contiguous split.
  return static_cast<int>(
      ((static_cast<std::int64_t>(l) + 1) * num_roots - 1) / num_leaves());
}

std::pair<int, int> HybridLayout::leaves_of(int root_rank) const {
  const auto nl = static_cast<std::int64_t>(num_leaves());
  const int first = num_roots + static_cast<int>(nl * root_rank / num_roots);
  const int last =
      num_roots + static_cast<int>(nl * (root_rank + 1) / num_roots);
  return {first, last};
}

namespace {

// Seeds the Send_hint rule's pick among equally busy slaves.
constexpr std::uint64_t kHintRngSeed = 0x1dd51c3ULL;

// The runtime's liveness view, as the machines' predicate.
auto liveness(const RankContext& ctx) {
  return [&ctx](int rank) { return ctx.is_alive(rank); };
}

// ---------------------------------------------------------------------------
// Coordinator core
// ---------------------------------------------------------------------------

// The coordinator side of a hybrid rank: it feeds coordinator traffic to
// the runtime-free machines of hybrid_rules.hpp — the GroupScheduler's
// §4.3 rules, the termination board, failover, the straggler windows and
// seed brokering — and carries out their orders in emission order,
// charging the seeds that enter and leave the pool.  Every coordinator
// hosts one inside the HybridSlave host: a master from t=0, a slave
// promoted by failover from the moment it promotes (DESIGN.md §11).
class MasterCore {
 public:
  MasterCore(const BlockDecomposition* decomp, int self, HybridLayout layout,
             HybridParams params, std::uint32_t total_active)
      : self_(self),
        layout_(layout),
        sched_(decomp, params.assign_batch, params.overload_factor,
               params.load_threshold,
               kHintRngSeed + static_cast<std::uint64_t>(self)),
        term_(layout, self, total_active, params.heartbeat_period > 0.0),
        failover_(layout, self, params.heartbeat_period),
        straggler_(params.heartbeat_period, params.speculative_reissue),
        broker_(layout, self, params.assign_batch) {}

  // A master from t=0: register its slave group, pool its seed share and
  // hand out the initial allocation, N seeds per slave (Assign_unloaded).
  // With nothing to trace the counter finishes at once.
  void start(RankContext& ctx, std::vector<Particle> seeds) {
    const auto [first, last] = layout_.slaves_of(self_);
    for (int s = first; s < last; ++s) sched_.add_slave(s);
    pool_seeds(ctx, std::move(seeds));
    publish(ctx);
    if (finished_) return;
    sched_.initial_allocation(orders_);
    flush(ctx);
    for (const auto& [slave, record] : sched_.records()) {
      failover_.heard(slave, ctx.now());
    }
  }

  // The coordinator dispatch, for a master rank and a promoted slave
  // alike.  Particle batches, commands and beacons are worker traffic
  // (the host handles them before forwarding the rest here), and
  // ControlAck is consumed by the runtime's transport layer.
  void on_message(RankContext& ctx, Message msg) {
    // protocol-lint: ignores ParticleBatch, Command, MasterBeacon
    // protocol-lint: ignores ControlAck
    if (auto* undeliv = std::get_if<Undeliverable>(&msg.payload)) {
      reclaim_undelivered(ctx, std::move(*undeliv));
    } else if (auto* status = std::get_if<StatusUpdate>(&msg.payload)) {
      on_status(ctx, msg.from, std::move(*status));
    } else if (auto* term = std::get_if<TerminationCount>(&msg.payload)) {
      on_termination_count(ctx, term->totals);
    } else if (std::holds_alternative<SeedRequest>(msg.payload) ||
               std::holds_alternative<SeedRelay>(msg.payload)) {
      if (finished_) return;
      broker_.on_demand(msg.from,
                        std::holds_alternative<SeedRelay>(msg.payload),
                        sched_, liveness(ctx), orders_);
      flush(ctx);
    } else if (auto* transfer = std::get_if<SeedTransfer>(&msg.payload)) {
      if (finished_) return;
      const bool empty = transfer->seeds.empty();
      pool_seeds(ctx, std::move(transfer->seeds));
      broker_.on_transfer(msg.from, empty, sched_, liveness(ctx), orders_);
      assignment_pass(ctx);
    } else if (std::holds_alternative<DoneSignal>(msg.payload)) {
      if (finished_) return;
      term_.terminate_group(
          liveness(ctx), [&](int s) { return mine(ctx, s); }, orders_);
      finished_ = true;
      flush(ctx);
    }
  }

  bool finished() const { return finished_; }

  void snapshot_particles(std::vector<Particle>& out) const {
    sched_.seeds().append_all(out);
  }

  // A coordinator integrates its own pool only when no slave can: it has
  // no registered slave and no other slave rank is alive.  The scan
  // stops at the first live slave, so it is O(1) while any survives.
  bool solo(const RankContext& ctx) const {
    if (!sched_.records().empty()) return false;
    for (int s = layout_.num_masters; s < layout_.num_ranks; ++s) {
      if (s != self_ && ctx.is_alive(s)) return false;
    }
    return true;
  }

  // Promotion entry point: adopt every dead coordinator's group — ledger
  // recovery of the dead ranks plus registration of the survivors, whose
  // re-reported statuses rebuild the scheduling state.
  void start_as_successor(RankContext& ctx) {
    for (int m = 0; m < layout_.num_masters; ++m) adopt(ctx, m);
    publish(ctx);
    if (!finished_) assignment_pass(ctx);
  }

  void tick(RankContext& ctx) {
    if (finished_) return;
    const auto alive = liveness(ctx);
    // The declare-dead rule: a slave silent for kHeartbeatMissLimit
    // periods is declared dead and its streamlines are reclaimed and
    // reassigned.
    for (const int slave : failover_.silent(ctx.now())) {
      declare_dead(ctx, slave);
      if (finished_) return;  // reclaimed credits may have ended the run
    }
    for (const int dead : failover_.claims(alive)) {
      adopt(ctx, dead);
      if (finished_) return;
    }
    broker_.tick(sched_, alive, orders_);
    failover_.beacon(sched_, alive, orders_);
    publish(ctx);  // re-report the board if the counter moved
    if (finished_) return;
    assignment_pass(ctx);  // adopted seeds may be waiting for takers
  }

  void on_status(RankContext& ctx, int from, StatusUpdate status) {
    if (finished_) {
      term_.after_finish(from, orders_);
      flush(ctx);
      return;
    }
    if (failover_.on() && sched_.records().count(from) == 0) {
      // A re-homing orphan: adopt its dead coordinator's group first,
      // then the orphan itself.
      if (status.orphaned_from >= 0) adopt(ctx, status.orphaned_from);
      failover_.enroll(sched_, from, ctx.now());
      if (finished_) return;  // adoption credits may have ended the run
    }
    if (sched_.records().count(from) == 0) return;
    failover_.heard(from, ctx.now());
    sched_.apply_status(from, status);
    straggler_.on_status(from, ctx.now(), status, sched_, orders_);
    term_.merge(from, status.terminated_total);
    publish(ctx);
    if (finished_) return;  // terminations may have ended the run
    assignment_pass(ctx);
  }

  // A peer's board, or — from a promoted host — its own advection
  // credits, which flow straight into the board instead of through a
  // StatusUpdate to itself.
  void on_termination_count(
      RankContext& ctx,
      const std::vector<std::pair<int, std::uint32_t>>& totals) {
    if (finished_) return;
    term_.merge(totals);
    publish(ctx);
  }

  // Hand the whole seed pool to a solo host for direct integration.
  std::vector<Particle> drain_seeds(RankContext& ctx) {
    std::vector<Particle> out;
    while (!sched_.seeds().empty()) {
      const BlockId b = sched_.seeds().densest_block();
      if (b == kInvalidBlock) break;
      sched_.take_seeds(b, sched_.seeds().count_in(b), out);
    }
    release(ctx, out);
    return out;
  }

 private:
  // A particle-bearing message we sent bounced (dropped link or dead
  // destination): take the payload back and retry through the normal
  // machinery.
  void reclaim_undelivered(RankContext& ctx, Undeliverable u) {
    if (finished_) return;
    if (u.target >= 0 && u.target < layout_.num_masters &&
        u.target != self_ && ctx.is_alive(u.target)) {
      // A master-to-master seed transfer bounced off a live peer: the
      // link dropped it, so just retry the transfer (the requester is
      // still waiting on its outstanding request).  Its seeds left the
      // pool's charge when it first went out.  A dead peer's seeds fall
      // through to the generic reclaim below instead.
      send(ctx, u.target, SeedTransfer{std::move(u.particles)});
      return;
    }
    // A seed assignment to a slave failed: un-book the optimistic queue
    // accounting so the rules do not chase phantom particles.
    sched_.bounced(u.target, u.block, u.particles.size());
    pool_seeds(ctx, std::move(u.particles));
    assignment_pass(ctx);
  }

  // The seed pool holds bare seed points, not active streamline objects,
  // so a seed is charged at solver-state size on the way in and out.
  void pool_seeds(RankContext& ctx, std::vector<Particle> seeds) {
    for (Particle& p : seeds) {
      ctx.charge_particle_memory(
          static_cast<std::int64_t>(particle_message_bytes(p, false)));
      sched_.add_seed(std::move(p));
    }
  }

  static void release(RankContext& ctx, const std::vector<Particle>& seeds) {
    std::size_t bytes = 0;
    for (const Particle& p : seeds) bytes += particle_message_bytes(p, false);
    ctx.charge_particle_memory(-static_cast<std::int64_t>(bytes));
  }

  template <typename Payload>
  static void send(RankContext& ctx, int to, Payload payload) {
    Message m;
    m.payload = std::move(payload);
    ctx.send(to, std::move(m));
  }

  // Carry out the machines' orders in emission order.
  void flush(RankContext& ctx) {
    for (auto& [rank, order] : orders_) {
      std::visit([&, to = rank](auto& o) { carry_out(ctx, to, o); }, order);
    }
    orders_.clear();
  }

  // A ledger request pools what the ledger hands back.
  void carry_out(RankContext& ctx, int rank, LedgerRequest& req) {
    if (req.speculate) {
      pool_seeds(ctx, ctx.speculate_rank(rank));
      return;
    }
    RecoveredWork work = ctx.recover_rank(rank);
    pool_seeds(ctx, std::move(work.active));
    term_.merge(rank, work.terminated_total);
  }

  void carry_out(RankContext& ctx, int rank, SeedDemand& demand) {
    if (demand.relayed) {
      send(ctx, rank, SeedRelay{});
    } else {
      send(ctx, rank, SeedRequest{});
    }
  }

  // An Assign's seeds and a donation leave the pool's charge as they go.
  void carry_out(RankContext& ctx, int rank, Command& cmd) {
    if (cmd.type == Command::Type::kAssign) release(ctx, cmd.particles);
    send(ctx, rank, std::move(cmd));
  }

  void carry_out(RankContext& ctx, int rank, SeedTransfer& transfer) {
    release(ctx, transfer.seeds);
    send(ctx, rank, std::move(transfer));
  }

  template <typename Payload>
  void carry_out(RankContext& ctx, int rank, Payload& payload) {
    send(ctx, rank, std::move(payload));
  }

  // The slaves this coordinator terminates: its registered ones, plus
  // its layout group (including slaves the scheduler dropped on a
  // false-positive declare-dead) and any whose dead master it adopts.
  bool mine(const RankContext& ctx, int slave) const {
    return sched_.records().count(slave) != 0 ||
           failover_.coordinates(slave, liveness(ctx));
  }

  // Both run after the orders already made, so that the board and the
  // pool hold what the ledger handed back.
  void publish(RankContext& ctx) {
    flush(ctx);
    if (finished_) return;
    finished_ = term_.publish(
        liveness(ctx), [&](int s) { return mine(ctx, s); }, orders_);
    flush(ctx);
  }

  void assignment_pass(RankContext& ctx) {
    flush(ctx);
    sched_.assignment_pass(orders_);
    broker_.after_pass(sched_, liveness(ctx), orders_);
    flush(ctx);
  }

  void adopt(RankContext& ctx, int dead) {
    if (failover_.adopt(dead, liveness(ctx), sched_, ctx.now(), orders_)) {
      publish(ctx);
    }
  }

  // The declare-dead rule's action: forget everything we believed about
  // the slave, reclaim its streamlines from the ledger into the seed
  // pool, fold its ledger-logged termination total into the board, and
  // rebalance.
  void declare_dead(RankContext& ctx, int slave) {
    if (!failover_.declare_dead(sched_, slave, orders_)) return;
    straggler_.forget(slave);
    publish(ctx);
    if (finished_) return;
    assignment_pass(ctx);
  }

  int self_;
  HybridLayout layout_;
  GroupScheduler sched_;
  TerminationDuty term_;
  Failover failover_;
  StragglerWatch straggler_;
  SeedBroker broker_;
  CoordinatorOrders orders_;  // reused by every handler
  bool finished_ = false;
};

// ---------------------------------------------------------------------------
// Rank host
// ---------------------------------------------------------------------------

// The program of every hybrid rank.  A slave advances streamlines from its
// block cache and reports status; a coordinator — a master from t=0, or a
// slave promoted by failover — runs the same host with the MasterCore
// engaged, and integrates its own seed pool only while MasterCore::solo
// holds.
class HybridSlave final : public RankProgram {
 public:
  HybridSlave(const BlockDecomposition* decomp, int rank, HybridLayout layout,
              HybridParams params, std::uint32_t total_active,
              std::vector<Particle> seeds)
      : decomp_(decomp),
        rank_(rank),
        layout_(layout),
        params_(params),
        total_active_(total_active),
        coord_(layout.master_of(rank)),
        initial_seeds_(std::move(seeds)) {
    if (layout.is_master(rank)) {
      core_.emplace(decomp, rank, layout, params, total_active);
    }
  }

  void start(RankContext& ctx) override {
    // Slaves begin idle; everything arrives from the master.  Do not
    // report yet — the master hands out the initial allocation unasked.
    master_heard_ = ctx.now();
    if (core_) {
      core_->start(ctx, std::move(initial_seeds_));
      initial_seeds_.clear();
      core_post(ctx);
    }
    if (failover() && !finished_) ctx.set_timer(params_.heartbeat_period);
  }

  void on_timer(RankContext& ctx) override {
    if (finished_) return;
    if (core_) {
      core_->tick(ctx);
      core_post(ctx);
    } else {
      maybe_failover(ctx);
      if (!core_ && !finished_) {
        // Heartbeat: prove liveness and report the cumulative termination
        // total even while busy; the coordinator declares silent slaves
        // dead.
        send_status(ctx, workable(ctx));
      }
    }
    if (!finished_) ctx.set_timer(params_.heartbeat_period);
  }

  void on_message(RankContext& ctx, Message msg) override {
    // ControlAck is consumed by the runtime's transport layer and never
    // reaches a program.  The coordinator kinds go to the hosted
    // MasterCore::on_message once this slave is promoted.
    // protocol-lint: ignores ControlAck
    // protocol-lint: ignores StatusUpdate, TerminationCount, SeedRequest
    // protocol-lint: ignores SeedRelay, SeedTransfer, DoneSignal
    if (auto* batch = std::get_if<ParticleBatch>(&msg.payload)) {
      accept(ctx, std::move(batch->particles));
      try_start(ctx);
      return;
    }
    if (std::holds_alternative<MasterBeacon>(msg.payload)) {
      master_heard_ = ctx.now();
      // A beacon from a master we do not report to, while ours is dead,
      // is a takeover announcement: the sender adopted our group.  Re-home
      // now instead of waiting out the silence deadline — without this the
      // new coordinator's beacons would keep resetting the silence clock
      // while our reports still went to the corpse, and the adopter would
      // eventually declare *us* dead for never reporting.
      if (failover() && msg.from != coord_ && !ctx.is_alive(coord_)) {
        coord_ = msg.from;
      }
      return;
    }
    if (auto* cmd = std::get_if<Command>(&msg.payload)) {
      master_heard_ = ctx.now();
      on_command(ctx, std::move(*cmd));
      return;
    }
    // A shipment bounced (dropped link or dead receiver): take the
    // particles back.  A plain worker re-pools them for re-routing; an
    // acting master reclaims them through its scheduling machinery.
    const bool bounced = std::holds_alternative<Undeliverable>(msg.payload);
    if (!core_ && bounced) {
      accept(ctx, std::move(std::get<Undeliverable>(msg.payload).particles));
      try_start(ctx);
      return;
    }

    // Coordinator-side traffic (statuses, boards, seed balancing, done):
    // only meaningful once this slave is the failover successor.  A peer
    // that computed us as successor may deliver before our own silence
    // detection fires — promote on demand; the liveness view makes this
    // safe (successor == self implies every master is already dead).
    if (!core_ && failover() && !finished_ &&
        successor_rank(layout_, liveness(ctx)) == rank_) {
      promote(ctx);
    }
    if (!core_) return;
    core_->on_message(ctx, std::move(msg));
    core_post(ctx);
  }

  void on_block_loaded(RankContext& ctx, BlockId) override {
    if (pending_loads_ > 0) --pending_loads_;
    reported_ = false;
    try_start(ctx);
  }

  void on_compute_done(RankContext& ctx) override {
    steps_total_ += in_flight_steps_;
    in_flight_steps_ = 0;
    busy_total_ += ctx.now() - burst_start_;
    terminated_total_ += worker_.finish_burst(ctx);
    reported_ = false;
    if (core_) {
      core_->on_termination_count(ctx, {{rank_, terminated_total_}});
      core_post(ctx);
      return;
    }
    try_start(ctx);
  }

  bool finished() const override { return finished_; }

  void collect_particles(std::vector<Particle>& out) const override {
    worker_.collect(out);
  }

  void snapshot_particles(std::vector<Particle>& out) const override {
    worker_.snapshot(out);
    out.insert(out.end(), initial_seeds_.begin(), initial_seeds_.end());
    if (core_) core_->snapshot_particles(out);
  }

 private:
  void on_command(RankContext& ctx, Command cmd) {
    switch (cmd.type) {
      case Command::Type::kAssign: {
        // Assign_loaded / Assign_unloaded: integrate these seeds; load
        // their blocks if we do not have them.
        std::set<BlockId> blocks;
        for (const Particle& p : cmd.particles) {
          blocks.insert(decomp_->block_of(p.pos));
        }
        accept(ctx, std::move(cmd.particles));
        for (const BlockId b : blocks) {
          request_if_needed(ctx, b);
        }
        try_start(ctx);
        break;
      }
      case Command::Type::kLoad:
        request_if_needed(ctx, cmd.block);
        try_start(ctx);
        break;
      case Command::Type::kSendForce:
        // Mandatory migration of our particles in `block` to `target`.
        worker_.ship(ctx, cmd.target, cmd.block,
                     worker_.pool().drain_block(cmd.block));
        reported_ = false;
        try_start(ctx);
        break;
      case Command::Type::kSendHint: {
        // Optional: offload particles waiting in *unloaded* hint blocks.
        // If none are appropriate, ignore the hint (the autonomy rule).
        for (const BlockId b : cmd.hint_blocks) {
          if (ctx.block_resident(b) || ctx.block_pending(b)) continue;
          std::vector<Particle> moving = worker_.pool().drain_block(b);
          if (!moving.empty()) {
            worker_.ship(ctx, cmd.target, b, std::move(moving));
            reported_ = false;
          }
        }
        try_start(ctx);
        break;
      }
      case Command::Type::kTerminate:
        finished_ = true;
        break;
    }
  }

  // Silence-based master failure detection (§11): beacons and commands
  // refresh master_heard_; a coordinator silent past the miss limit whose
  // death the runtime confirms triggers re-homing to the rank that
  // adopts its group — or to ourselves by promotion when no master
  // survives.  The liveness confirmation is what prevents a lossy-link
  // silence from electing two acting masters.
  void maybe_failover(RankContext& ctx) {
    if (!failover()) return;
    if (ctx.now() - master_heard_ <=
        kHeartbeatMissLimit * params_.heartbeat_period) {
      return;  // not silent yet
    }
    if (ctx.is_alive(coord_)) return;  // silent but alive: keep waiting
    const int succ = adopter_of(layout_, liveness(ctx), coord_);
    if (succ == rank_) {
      promote(ctx);
      return;
    }
    const int orphaned = coord_;
    coord_ = succ;
    master_heard_ = ctx.now();  // restart the clock on the successor
    send_status(ctx, workable(ctx), orphaned);
  }

  // Become the acting master: instantiate the identical scheduling core a
  // real master runs, adopt every dead coordinator's ledger state, and
  // keep advecting our own pool alongside (the core never schedules us).
  void promote(RankContext& ctx) {
    core_.emplace(decomp_, rank_, layout_, params_, total_active_);
    core_->start_as_successor(ctx);
    core_->on_termination_count(ctx, {{rank_, terminated_total_}});
    core_post(ctx);
  }

  // After any core interaction: propagate its finish, and in solo mode
  // (no live slave left to command) integrate the seed pool ourselves.
  void core_post(RankContext& ctx) {
    if (!core_) return;
    if (core_->finished()) {
      finished_ = true;
      return;
    }
    if (core_->solo(ctx)) {
      std::vector<Particle> adopted = core_->drain_seeds(ctx);
      if (!adopted.empty()) accept(ctx, std::move(adopted));
    }
    try_start(ctx);
  }

  // Failover (DESIGN.md §11) is on exactly when the heartbeat is.
  bool failover() const { return params_.heartbeat_period > 0.0; }

  std::uint32_t workable(RankContext& ctx) const {
    std::uint32_t n = 0;
    for (const auto& [block, count] : worker_.pool().census()) {
      if (ctx.block_resident(block)) n += count;
    }
    return n;
  }

  void accept(RankContext& ctx, std::vector<Particle> particles) {
    worker_.accept(ctx, std::move(particles));
    reported_ = false;
  }

  void request_if_needed(RankContext& ctx, BlockId b) {
    if (b == kInvalidBlock || ctx.block_resident(b) || ctx.block_pending(b)) {
      return;
    }
    ++pending_loads_;
    ctx.request_block(b);
  }

  // Cumulative accepted-step watermark for straggler detection (§16):
  // completed bursts in full, plus the in-flight burst pro-rated by how
  // much of its *planned* modelled duration has elapsed.  On a healthy
  // slave the pro-rating tracks reality and the watermark rises smoothly
  // through multi-heartbeat bursts; on a secretly slowed rank the planned
  // fraction is exhausted early and the watermark sits flat until the
  // burst really completes — exactly the rate collapse the master's
  // windowed detector needs.  Monotone: the fraction is capped at 1 and
  // burst completion folds the same total into steps_total_.
  std::uint64_t watermark(const RankContext& ctx) const {
    if (in_flight_steps_ == 0) return steps_total_;
    const double frac =
        burst_duration_ > 0.0
            ? std::clamp((ctx.now() - burst_start_) / burst_duration_, 0.0,
                         1.0)
            : 1.0;
    return steps_total_ +
           static_cast<std::uint64_t>(
               frac * static_cast<double>(in_flight_steps_));
  }

  void send_status(RankContext& ctx, std::uint32_t workable_now,
                   int orphaned_from = -1) {
    StatusUpdate s;
    for (const auto& [block, count] : worker_.pool().census()) {
      s.queued_by_block.emplace_back(block, count);
      if (ctx.block_pending(block)) s.loading.push_back(block);
    }
    s.loaded = ctx.resident_blocks();
    s.workable = workable_now;
    s.terminated_total = terminated_total_;
    s.steps_total = watermark(ctx);
    s.busy_seconds = busy_total_ + (in_flight_steps_ > 0
                                        ? ctx.now() - burst_start_
                                        : 0.0);
    s.computing = in_flight_steps_ > 0;
    s.orphaned_from = orphaned_from;
    Message m;
    m.payload = std::move(s);
    ctx.send(coord_, std::move(m));
    reported_ = true;
  }

  void try_start(RankContext& ctx) {
    if (finished_ || ctx.busy() || worker_.in_burst()) return;

    const ParticlePool& pool = worker_.pool();
    const BlockId runnable = worker_.runnable_block(ctx);
    if (runnable != kInvalidBlock) {
      // Latency hiding (§4.3): report *before* a burst that will drain
      // the last workable streamlines so the master's reply overlaps it.
      // The burst takes runnable's whole queue, so that is the case when
      // nothing else is workable.
      const auto draining = static_cast<std::uint32_t>(pool.count_in(runnable));
      if (!core_ && !reported_ && workable(ctx) == draining) {
        send_status(ctx, 0);
      }
      // A slave's useful horizon is one Load round: a deep speculative
      // pipeline claims blocks the master never schedules here and
      // perturbs its Load/Send decisions more than it hides latency,
      // so the slave pipeline stays shallow regardless of the
      // configured depth.
      const int lookahead = std::min(4, ctx.prefetch_capacity());
      // Folded into steps_total_ when the burst completes; a heartbeat
      // status mid-burst reports the burst's steps pro-rated by elapsed
      // planned time (see watermark()), so the master sees progress as a
      // smooth rate rather than burst-sized quanta.
      in_flight_steps_ = worker_.start_burst(ctx, runnable);
      burst_start_ = ctx.now();
      burst_duration_ = static_cast<double>(in_flight_steps_) *
                        ctx.model().seconds_per_step;
      // Overlap: background-read where this burst is headed (its
      // outcomes name the blocks exactly), then the densest blocked
      // queues, so the master's next kLoad (or our own wait for it)
      // finds the grid already staged — the Load rule becomes a
      // non-blocking claim.  No streamline lookahead here: the master
      // schedules this rank's loads, so two-ahead speculation only
      // claims blocks it never sends us to.
      prefetch_blocking_targets(ctx, worker_.outcomes(), runnable, lookahead);
      prefetch_densest(ctx, pool, runnable, lookahead);
      return;
    }

    if (pending_loads_ > 0) return;  // work arrives when the load lands

    if (core_) {
      // Acting master: nobody commands our loads, so self-serve the
      // densest pooled block, Load-On-Demand style.
      const BlockId next = pool.densest_block();
      if (next != kInvalidBlock && !ctx.block_pending(next)) {
        ++pending_loads_;
        ctx.request_block(next);
      }
      return;
    }

    // Out of work: tell the master (once per state change).
    if (!reported_) send_status(ctx, 0);
  }

  const BlockDecomposition* decomp_;
  int rank_;
  HybridLayout layout_;
  HybridParams params_;
  std::uint32_t total_active_;  // global streamline count
  int coord_;                   // current coordinator (re-homed on failover)
  std::vector<Particle> initial_seeds_;  // a master's pool until start

  StreamlineWorker worker_;
  std::uint32_t terminated_total_ = 0;   // cumulative first-time credits
  std::uint64_t steps_total_ = 0;      // completed-burst steps (§16)
  std::uint64_t in_flight_steps_ = 0;  // accepted steps of the burst
  double burst_start_ = 0.0;           // when the burst began computing
  double burst_duration_ = 0.0;        // its *planned* modelled seconds
  double busy_total_ = 0.0;            // observed compute seconds (§16)
  double master_heard_ = 0.0;            // last beacon/command time
  int pending_loads_ = 0;
  bool reported_ = false;
  bool finished_ = false;
  // Engaged on a coordinator rank from the start, on a slave when it
  // promotes itself: this rank is then an acting master.
  std::optional<MasterCore> core_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

ProgramFactory make_hybrid(const BlockDecomposition* decomp,
                           std::vector<std::vector<Particle>> seeds_per_master,
                           std::uint32_t total_active, HybridParams params) {
  auto shared = std::make_shared<std::vector<std::vector<Particle>>>(
      std::move(seeds_per_master));
  return [decomp, shared, total_active, params](
             int rank, int num_ranks) -> std::unique_ptr<RankProgram> {
    const HybridLayout layout = HybridLayout::make(
        num_ranks, params.slaves_per_master, params.root_fanout);
    // Seeds are partitioned over the leaf masters (the masters that own
    // slave groups); roots start empty and only hold seeds transiently
    // while brokering.
    std::vector<Particle> seeds;
    if (layout.is_master(rank) && !layout.is_root(rank)) {
      seeds = std::move(
          (*shared)[static_cast<std::size_t>(rank - layout.num_roots)]);
    }
    return std::make_unique<HybridSlave>(decomp, rank, layout, params,
                                         total_active, std::move(seeds));
  };
}

}  // namespace sf
