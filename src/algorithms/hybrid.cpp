#include "algorithms/hybrid.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
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

// Straggler detection (DESIGN.md §16): a progress window spans this many
// heartbeat periods, and a slave is flagged when its effective speed
// falls below this fraction of the working-group median.
constexpr int kStragglerMinBeats = 3;
constexpr double kStragglerSlowness = 0.25;
// Seeds the Send_hint rule's pick among equally busy slaves.
constexpr std::uint64_t kHintRngSeed = 0x1dd51c3ULL;
// Heartbeat periods a peer may stay silent before it is presumed dead.
constexpr int kHeartbeatMissLimit = 3;

// Failover (DESIGN.md §11) is on exactly when the heartbeat is: the driver
// wires both on fault runs, and fault-free runs keep the five-rule message
// sequence.
bool failover(const HybridParams& params) {
  return params.heartbeat_period > 0.0;
}

// How long a peer may stay silent before it is presumed dead: the
// master's sixth rule for slaves, a slave's failover for its master.
double heartbeat_deadline(const HybridParams& params) {
  return kHeartbeatMissLimit * params.heartbeat_period;
}

// The failover successor: the lowest live original master, or — when every
// master is dead — the lowest live slave rank, which promotes itself.
// Every rank computes this from the layout and the runtime's liveness view,
// so the role migrates without any election traffic.  The successor is
// also the acting termination counter.
int successor_rank(const RankContext& ctx, const HybridLayout& layout) {
  for (int m = 0; m < layout.num_masters; ++m) {
    if (ctx.is_alive(m)) return m;
  }
  for (int r = layout.num_masters; r < layout.num_ranks; ++r) {
    if (ctx.is_alive(r)) return r;
  }
  return 0;
}

// The unique live rank responsible for absorbing a dead coordinator, and
// so the rank its orphaned slaves re-home to: its parent root when the
// tree is on and the parent survives, else the global successor (which
// may be an orphan itself, promoting).  Uniqueness keeps ledger recovery
// single-fire on the primary path (duplicate adoption stays safe —
// recovered credits max-merge and re-run terminations dedup — but never
// happens fault-free under this rule).
int adopter_of(const RankContext& ctx, const HybridLayout& layout,
               int dead_coordinator) {
  if (layout.num_roots > 0 && dead_coordinator >= layout.num_roots &&
      dead_coordinator < layout.num_masters) {
    const int parent = layout.root_of(dead_coordinator);
    if (ctx.is_alive(parent)) return parent;
  }
  return successor_rank(ctx, layout);
}

// ---------------------------------------------------------------------------
// Coordinator core
// ---------------------------------------------------------------------------

// The coordinator side of a hybrid rank: dispatch of coordinator traffic,
// the sixth (declare-dead) rule, straggler windows, failover, seed
// brokering between masters and the survivable termination board.  The
// §4.3 rules live in the GroupScheduler; the core sends its orders in
// emission order and charges the seeds that enter and leave the pool.
// Every coordinator hosts one inside the HybridSlave host: a master from
// t=0, a slave promoted by failover from the moment it promotes
// (DESIGN.md §11).
class MasterCore {
 public:
  MasterCore(const BlockDecomposition* decomp, int self, HybridLayout layout,
             HybridParams params, std::uint32_t total_active,
             std::vector<Particle> seeds = {})
      : self_(self),
        layout_(layout),
        params_(params),
        total_active_(total_active),
        initial_seeds_(std::move(seeds)),
        sched_(decomp, params.assign_batch, params.overload_factor,
               params.load_threshold,
               kHintRngSeed + static_cast<std::uint64_t>(self)) {}

  // A master from t=0: register its slave group, pool its seed share and
  // hand out the initial allocation, N seeds per slave (Assign_unloaded).
  void start(RankContext& ctx) {
    const auto [first, last] = layout_.slaves_of(self_);
    for (int s = first; s < last; ++s) sched_.add_slave(s);

    pool_seeds(ctx, std::move(initial_seeds_));
    initial_seeds_.clear();

    if (total_active_ == 0 && successor_rank(ctx, layout_) == self_) {
      finish_everyone(ctx);
      return;
    }
    sched_.initial_allocation(orders_);
    send_orders(ctx);
    if (failover(params_) && !finished_) {
      for (const auto& [slave, record] : sched_.records()) {
        last_heard_[slave] = ctx.now();
      }
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
    } else if (std::holds_alternative<SeedRequest>(msg.payload)) {
      on_seed_demand(ctx, msg.from, /*relayed=*/false);
    } else if (std::holds_alternative<SeedRelay>(msg.payload)) {
      on_seed_demand(ctx, msg.from, /*relayed=*/true);
    } else if (auto* transfer = std::get_if<SeedTransfer>(&msg.payload)) {
      on_seed_transfer(ctx, msg.from, std::move(*transfer));
    } else if (std::holds_alternative<DoneSignal>(msg.payload)) {
      if (!finished_) terminate_group(ctx);
    }
  }

  bool finished() const { return finished_; }

  void snapshot_particles(std::vector<Particle>& out) const {
    out.insert(out.end(), initial_seeds_.begin(), initial_seeds_.end());
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
    for (int m = 0; m < layout_.num_masters; ++m) {
      if (!ctx.is_alive(m)) adopt_coordinator(ctx, m);
    }
    publish_totals(ctx);
    if (!finished_) assignment_pass(ctx);
  }

  void tick(RankContext& ctx) {
    if (finished_) return;
    // The sixth rule: a slave silent for kHeartbeatMissLimit periods is
    // declared dead and its streamlines are reclaimed and reassigned.
    // Detection is purely silence-based — no liveness oracle.
    const double deadline = heartbeat_deadline(params_);
    std::vector<int> missing;
    for (const auto& [slave, heard_at] : last_heard_) {
      if (ctx.now() - heard_at > deadline) missing.push_back(slave);
    }
    for (const int slave : missing) {
      declare_dead(ctx, slave);
      if (finished_) return;  // reclaimed credits may have ended the run
    }

    // Parent duty (tree layouts): each live root absorbs its own dead
    // leaf children, keeping recovery local to the subtree instead of
    // serializing every adoption through the global successor.
    if (layout_.num_roots > 0 && layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      for (int leaf = first; leaf < last; ++leaf) {
        if (ctx.is_alive(leaf)) continue;
        adopt_coordinator(ctx, leaf);
        if (finished_) return;
      }
    }
    // Successor duty: absorb groups whose dead master has no survivor
    // left to re-home (dead promoted coordinators are reached through
    // their own group's dead-slave recovery).  Under the tree, a dead
    // leaf master with a live parent is that parent's duty, not ours —
    // exactly one live rank claims any dead coordinator.
    if (successor_rank(ctx, layout_) == self_) {
      for (int m = 0; m < layout_.num_masters; ++m) {
        if (m == self_ || ctx.is_alive(m)) continue;
        if (adopter_of(ctx, layout_, m) != self_) continue;
        adopt_coordinator(ctx, m);
        if (finished_) return;
      }
    }
    // Un-wedge master-to-master balancing if the donor died mid-request.
    if (seed_request_outstanding_ && !ctx.is_alive(seed_request_target_)) {
      seed_request_outstanding_ = false;
      dry_masters_.insert(seed_request_target_);
    }
    // Same for a brokered relay whose donor died before answering.
    if (relay_outstanding_ && !ctx.is_alive(relay_target_)) {
      relay_outstanding_ = false;
      dry_masters_.insert(relay_target_);
      if (!pending_requests_.empty()) broker(ctx);
      if (finished_) return;
    }
    // Liveness beacons: slaves track the last time they heard us; silence
    // past their miss limit is what triggers their re-homing.
    for (const auto& [slave, rec] : sched_.records()) {
      if (!ctx.is_alive(slave)) continue;
      Message m;
      m.payload = MasterBeacon{};
      ctx.send(slave, std::move(m));
    }
    publish_totals(ctx);  // re-report the board if the counter moved
    if (finished_) return;
    assignment_pass(ctx);  // adopted seeds may be waiting for takers
  }

  void on_status(RankContext& ctx, int from, StatusUpdate status) {
    if (finished_) {
      // A re-home that arrived after the run ended: a master answers with
      // the terminate the orphan missed so it can quiesce.  A promoted
      // slave is always the counter, whose finish already terminated
      // every live slave directly, so it stays silent.
      if (failover(params_) && layout_.is_master(self_)) {
        send_terminate(ctx, from);
      }
      return;
    }
    if (failover(params_) && sched_.records().count(from) == 0) {
      // A re-homing orphan: adopt its dead coordinator's group first,
      // then the orphan itself.
      if (status.orphaned_from >= 0) {
        adopt_coordinator(ctx, status.orphaned_from);
      }
      register_slave(ctx, from);
      if (finished_) return;  // adoption credits may have ended the run
    }
    if (sched_.records().count(from) == 0) return;
    last_heard_[from] = ctx.now();
    sched_.apply_status(from, status);
    update_progress(ctx, from, status.steps_total, status.busy_seconds,
                    status.computing);
    merge_total(from, status.terminated_total);
    publish_totals(ctx);
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
    if (board_.merge(totals)) totals_dirty_ = true;
    publish_totals(ctx);
  }

  // A starving master's SeedRequest, or a broker root's SeedRelay: donate
  // to `requester` (a relay's seeds flow back to the broker, which
  // forwards them to whichever starving master it is serving).  In tree
  // mode a root brokers demand it cannot satisfy from its own pool
  // instead of answering dry — the requester's one candidate is its
  // root, so a dry answer here would quench balancing for the whole
  // subtree while leaf pools still hold seeds.  A relay is brokered
  // within the root's own subtree but never escalated again: the
  // one-escalation rule is what bounds the chain.
  void on_seed_demand(RankContext& ctx, int requester, bool relayed) {
    if (finished_) return;
    if (layout_.num_roots > 0 && layout_.is_root(self_)) {
      pending_requests_.push_back({requester, /*may_escalate=*/!relayed});
      broker(ctx);
      return;
    }
    answer_seed_request(ctx, requester);
  }

  void on_seed_transfer(RankContext& ctx, int from, SeedTransfer transfer) {
    if (finished_) return;
    // Clear only the matching outstanding marker: a broker root can have
    // its own request and a relayed donation in flight at once.
    if (from == seed_request_target_) seed_request_outstanding_ = false;
    if (from == relay_target_) relay_outstanding_ = false;
    if (transfer.seeds.empty()) {
      dry_masters_.insert(from);
    } else {
      pool_seeds(ctx, std::move(transfer.seeds));
    }
    if (!pending_requests_.empty()) {
      broker(ctx);
      if (finished_) return;
    }
    assignment_pass(ctx);
  }

  // A particle-bearing message we sent bounced (dropped link or dead
  // destination): take the payload back and retry through the normal
  // machinery.
  void reclaim_undelivered(RankContext& ctx, Undeliverable u) {
    if (finished_) return;
    if (u.target >= 0 && u.target < layout_.num_masters &&
        u.target != self_ && ctx.is_alive(u.target)) {
      // A master-to-master seed transfer bounced off a live peer: the
      // link dropped it, so just retry the transfer (the requester is
      // still waiting on its outstanding request).  A dead peer's seeds
      // fall through to the generic reclaim below instead.
      SeedTransfer transfer;
      transfer.seeds = std::move(u.particles);
      Message m;
      m.payload = std::move(transfer);
      ctx.send(u.target, std::move(m));
      return;
    }

    // A seed assignment to a slave failed: un-book the optimistic queue
    // accounting so the rules do not chase phantom particles.
    sched_.bounced(u.target, u.block, u.particles.size());
    pool_seeds(ctx, std::move(u.particles));
    assignment_pass(ctx);
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

  // The scheduler's orders go out in emission order; an Assign's seeds
  // leave the pool's charge as they go.
  void send_orders(RankContext& ctx) {
    for (auto& [slave, cmd] : orders_) {
      if (cmd.type == Command::Type::kAssign) release(ctx, cmd.particles);
      send_command(ctx, slave, std::move(cmd));
    }
    orders_.clear();
  }

  // --- straggler detection (gray failures, DESIGN.md §16) ------------------

  struct ProgressTrack {
    std::uint64_t anchor_steps = 0;  // watermark at the window anchor
    double anchor_busy = 0.0;        // busy clock at the window anchor
    double anchor_time = 0.0;        // when the current window opened
    double rate = 0.0;      // steps per *busy* second, last closed window
    double last_busy = 0.0; // busy seconds inside the last closed window
    int windows = 0;        // closed windows so far
    bool computing = false;          // latest status: burst in flight
    bool started = false;
  };

  // Width of one progress-measurement window.  Several heartbeat periods
  // wide, so a window spans multiple bursts: per-status rate samples are
  // all-or-nothing noise (a burst credits its steps at acceptance), while
  // a multi-beat window averages over the burst cadence.
  double progress_window() const {
    return static_cast<double>(kStragglerMinBeats) * params_.heartbeat_period;
  }

  // Straggler detection (gray failures): every status carries the
  // slave's cumulative accepted-step watermark and its cumulative busy
  // clock.  The master differentiates watermark against busy clock over
  // fixed-width wall windows into an *effective compute speed* — steps
  // per busy second.  Wall-clock rates cannot separate "slow" from
  // "starved" (a mostly-idle healthy slave and a continuously-busy slow
  // one post similar steps/wall-second), but busy-second rates can:
  // every healthy slave computes at exactly 1/seconds_per_step no matter
  // how little work it holds, while a gray-slowed slave's bursts take
  // longer than the steps they retire, collapsing its ratio by the
  // slowdown factor.  Cumulative counters make this robust to re-reports
  // and failover re-homing: a duplicate merges as zero delta, never as
  // double progress.
  void update_progress(RankContext& ctx, int slave,
                       std::uint64_t steps_total, double busy_seconds,
                       bool computing) {
    if (params_.heartbeat_period <= 0.0 || !params_.speculative_reissue) {
      return;
    }
    ProgressTrack& t = progress_[slave];
    t.computing = computing;
    const double now = ctx.now();
    if (!t.started) {
      t.started = true;
      t.anchor_steps = steps_total;
      t.anchor_busy = busy_seconds;
      t.anchor_time = now;
      return;
    }
    if (now - t.anchor_time < progress_window()) return;  // window open
    const std::uint64_t ds =
        steps_total > t.anchor_steps ? steps_total - t.anchor_steps : 0;
    const double dbusy = busy_seconds - t.anchor_busy;
    // No busy time in the window: the slave never computed, so there is
    // no speed sample.  Rate 0 with computing set still marks it a
    // candidate (burst accepted but no progress at all = hard stall).
    t.rate = dbusy > 0.0 ? static_cast<double>(ds) / dbusy : 0.0;
    t.last_busy = dbusy > 0.0 ? dbusy : 0.0;
    ++t.windows;
    t.anchor_steps = steps_total;
    t.anchor_busy = busy_seconds;
    t.anchor_time = now;
    flag_stragglers(ctx);
  }

  // A slave is a detection candidate only while it is *expected* to
  // progress: its latest status says a burst is in flight, or it
  // reported runnable (resident-block) work.  A slave whose particles
  // are all blocked on unloaded blocks — or which has simply run dry —
  // produces a zero rate that means "no runnable work", not "slow";
  // flagging the waiting and idle tails would starve them forever and
  // poison the median.
  bool detection_candidate(int slave, const ProgressTrack& t) const {
    if (t.computing) return true;
    const auto it = sched_.records().find(slave);
    return it != sched_.records().end() && it->second.workable > 0;
  }

  // Flag every candidate slave whose last-window effective speed sits
  // below the slowness threshold of the healthy-group median, and
  // speculatively re-issue its ledger-owned streamlines into the seed
  // pool for healthy slaves.  The reference group is every unflagged
  // slave with a positive speed sample — a single short burst already
  // yields an accurate steps-per-busy-second reading — so healthy bursts
  // finishing between heartbeats never shrink it; requiring two of them
  // also guarantees a healthy slave remains to run the copies.  Flagging
  // additionally demands the suspect spent most of its last window
  // *busy*: a slave that barely computed has a noisy speed sample (the
  // pro-rated watermark truncates to whole steps), while a genuinely
  // gray-slowed slave is busy wall-to-wall — its bursts overrun the
  // window — so the gate costs no detection coverage where mitigation
  // matters.
  void flag_stragglers(RankContext& ctx) {
    const auto flagged = [this](int slave) {
      return sched_.records().at(slave).straggler;
    };
    std::vector<double> rates;
    for (const auto& [slave, t] : progress_) {
      if (flagged(slave) || t.windows < 1 || t.rate <= 0.0) continue;
      rates.push_back(t.rate);
    }
    if (rates.size() < 2) return;
    const std::size_t mid = rates.size() / 2;
    std::nth_element(rates.begin(),
                     rates.begin() + static_cast<std::ptrdiff_t>(mid),
                     rates.end());
    const double median = rates[mid];
    if (median <= 0.0) return;
    const double busy_floor = 0.5 * progress_window();
    for (const auto& [slave, t] : progress_) {
      if (flagged(slave) || t.windows < 1) continue;
      if (t.last_busy < busy_floor) continue;
      if (!detection_candidate(slave, t)) continue;
      if (t.rate >= kStragglerSlowness * median) continue;
      sched_.flag_straggler(slave);
      speculate_straggler(ctx, slave);
    }
  }

  // Copy the straggler's in-progress streamlines out of the ledger into
  // the seed pool, exactly like absorb_recovered — except the straggler
  // stays alive and keeps its own copies, so its termination total is NOT
  // merged here (it reports its own credits; first-terminal-wins dedups
  // whichever copy loses the race).
  void speculate_straggler(RankContext& ctx, int straggler) {
    pool_seeds(ctx, ctx.speculate_rank(straggler));
  }

  void send_command(RankContext& ctx, int to, Command cmd) {
    Message m;
    m.payload = std::move(cmd);
    ctx.send(to, std::move(m));
  }

  void send_terminate(RankContext& ctx, int to) {
    Command cmd;
    cmd.type = Command::Type::kTerminate;
    send_command(ctx, to, std::move(cmd));
  }

  void assignment_pass(RankContext& ctx) {
    sched_.assignment_pass(orders_);
    send_orders(ctx);
    // Master-to-master balancing: my pool is dry but slaves are starving.
    if (sched_.seeds().empty() && !seed_request_outstanding_ &&
        layout_.num_masters > 1) {
      bool starving = false;
      for (const auto& [slave, rec] : sched_.records()) {
        if (rec.needs_work && !rec.outstanding) starving = true;
      }
      if (starving) {
        const int candidate = seed_donor_candidate(ctx);
        if (candidate >= 0) {
          Message msg;
          msg.payload = SeedRequest{};
          ctx.send(candidate, std::move(msg));
          seed_request_outstanding_ = true;
          seed_request_target_ = candidate;
        }
      }
    }
  }

  // Whom a starving master asks for seeds.  Flat layout: round-robin over
  // the peer masters.  Tree layout: a leaf asks a root (its parent first),
  // so demand is brokered instead of flooding every master; a root asks
  // its own leaf children first, then peer roots (roots hold no pool of
  // their own unless they adopted one).  -1 when every candidate is dry
  // or dead.
  int seed_donor_candidate(const RankContext& ctx) const {
    auto viable = [&](int m) {
      return m != self_ && dry_masters_.count(m) == 0 && ctx.is_alive(m);
    };
    if (layout_.num_roots == 0 || self_ >= layout_.num_masters) {
      // Flat layout — or a promoted slave, whose master candidates are
      // all dead by the promotion condition (the loop degenerates).
      for (int m = 0; m < layout_.num_masters; ++m) {
        const int candidate = (self_ + 1 + m) % layout_.num_masters;
        if (viable(candidate)) return candidate;
      }
      return -1;
    }
    if (layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      for (int leaf = first; leaf < last; ++leaf) {
        if (viable(leaf)) return leaf;
      }
      for (int i = 0; i < layout_.num_roots; ++i) {
        const int peer = (self_ + 1 + i) % layout_.num_roots;
        if (viable(peer)) return peer;
      }
      return -1;
    }
    const int parent = layout_.root_of(self_);
    for (int i = 0; i < layout_.num_roots; ++i) {
      const int candidate = (parent + i) % layout_.num_roots;
      if (viable(candidate)) return candidate;
    }
    return -1;
  }

  // --- root-tier seed brokering (tree layouts) -----------------------------

  // Donate up to 4N seeds, whole blocks at a time, if we can spare them.
  SeedTransfer collect_donation(RankContext& ctx) {
    SeedTransfer transfer;
    const std::size_t spare_floor =
        static_cast<std::size_t>(params_.assign_batch) *
        sched_.records().size();
    const std::size_t donate_cap =
        static_cast<std::size_t>(4 * params_.assign_batch);
    // One seed at a time: the densest block can change after each take.
    while (sched_.seeds().size() > spare_floor &&
           transfer.seeds.size() < donate_cap) {
      const BlockId b = sched_.seeds().densest_block();
      if (b == kInvalidBlock) break;
      sched_.take_seeds(b, 1, transfer.seeds);
    }
    release(ctx, transfer.seeds);
    return transfer;
  }

  // Always answers with a SeedTransfer — an empty one is the "I am dry"
  // signal the requester's dry_masters_ set quenches on.
  void answer_seed_request(RankContext& ctx, int requester) {
    Message m;
    m.payload = collect_donation(ctx);
    ctx.send(requester, std::move(m));
  }

  // Serve queued demands from this root's own pool; when dry, relay one
  // demand at a time to a child leaf (round-robin), escalating once to a
  // peer root when the whole subtree answered dry.  Donations flow back
  // here (on_seed_transfer re-enters), so every queued demand ends in
  // either seeds or a definitive empty answer once all candidates are dry
  // — the same quenching guarantee the flat round-robin has.
  void broker(RankContext& ctx) {
    while (!pending_requests_.empty()) {
      PendingSeedRequest& req = pending_requests_.front();
      if (!ctx.is_alive(req.reply_to)) {
        pending_requests_.pop_front();  // failover reclaims its work
        continue;
      }
      SeedTransfer transfer = collect_donation(ctx);
      if (!transfer.seeds.empty()) {
        Message m;
        m.payload = std::move(transfer);
        ctx.send(req.reply_to, std::move(m));
        pending_requests_.pop_front();
        continue;
      }
      if (relay_outstanding_) return;  // a donation is already in flight
      const auto [first, last] = layout_.leaves_of(self_);
      const int span = last - first;
      for (int i = 0; i < span; ++i) {
        const int leaf = first + (relay_cursor_ + i) % span;
        if (leaf == req.reply_to || dry_masters_.count(leaf) != 0) continue;
        if (!ctx.is_alive(leaf)) continue;
        relay_cursor_ = (leaf - first + 1) % span;
        send_relay(ctx, leaf);
        return;
      }
      if (req.may_escalate) {
        req.may_escalate = false;
        for (int i = 0; i < layout_.num_roots; ++i) {
          const int peer = (self_ + 1 + i) % layout_.num_roots;
          if (peer == self_ || peer == req.reply_to) continue;
          if (dry_masters_.count(peer) != 0 || !ctx.is_alive(peer)) continue;
          send_relay(ctx, peer);
          return;
        }
      }
      // Every candidate is dry or dead: a definitive empty answer, which
      // marks this root dry at the requester and quenches its asking.
      Message m;
      m.payload = SeedTransfer{};
      ctx.send(req.reply_to, std::move(m));
      pending_requests_.pop_front();
    }
  }

  void send_relay(RankContext& ctx, int donor) {
    Message m;
    m.payload = SeedRelay{};
    ctx.send(donor, std::move(m));
    relay_outstanding_ = true;
    relay_target_ = donor;
  }

  // --- failover ------------------------------------------------------------

  void register_slave(RankContext& ctx, int slave) {
    if (!sched_.add_slave(slave)) return;
    // Adopted slaves get one extra detection window before the sixth rule
    // may declare them: their own re-home detection runs on the same
    // silence clock as ours, so a fresh adoptee may legitimately report
    // up to a full deadline late.
    last_heard_[slave] = ctx.now() + heartbeat_deadline(params_);
  }

  // Absorb a dead coordinator: its unassigned seed pool and termination
  // total come out of the particle ledger; the survivors of its group are
  // registered (their re-reports arrive within a heartbeat), and its dead
  // slaves are recovered too so no credit or streamline is orphaned by a
  // chain of deaths.
  void adopt_coordinator(RankContext& ctx, int dead) {
    if (ctx.is_alive(dead)) return;
    if (!recovered_coords_.insert(dead).second) return;
    absorb_recovered(ctx, dead);
    if (dead < layout_.num_masters) {
      const auto [first, last] = layout_.slaves_of(dead);
      for (int s = first; s < last; ++s) {
        if (s == self_) continue;
        if (ctx.is_alive(s)) {
          register_slave(ctx, s);
        } else if (recovered_coords_.insert(s).second) {
          absorb_recovered(ctx, s);
        }
      }
    }
    publish_totals(ctx);
  }

  void absorb_recovered(RankContext& ctx, int dead) {
    RecoveredWork work = ctx.recover_rank(dead);
    pool_seeds(ctx, std::move(work.active));
    merge_total(dead, work.terminated_total);
  }

  // The sixth rule's action: forget everything we believed about the
  // slave, reclaim its streamlines from the ledger into the seed pool,
  // fold its ledger-logged termination total into the board, and
  // rebalance.
  void declare_dead(RankContext& ctx, int slave) {
    if (!sched_.remove_slave(slave)) return;
    last_heard_.erase(slave);
    progress_.erase(slave);

    recovered_coords_.insert(slave);
    absorb_recovered(ctx, slave);
    publish_totals(ctx);
    if (finished_) return;
    assignment_pass(ctx);
  }

  // --- termination board ---------------------------------------------------

  void merge_total(int rank, std::uint32_t total) {
    if (board_.merge(rank, total)) totals_dirty_ = true;
  }

  // Where this coordinator publishes its board.  Flat layout: straight to
  // the acting counter.  Tree layout: leaf masters report to their parent
  // root, which max-merges its subtree's boards and forwards the merged
  // board to the counter — a two-level reduction that replaces the
  // all-to-all master exchange, so the counter hears O(num_roots) links
  // instead of O(num_masters).  A dead parent falls back to the
  // successor, so every credit still reaches the counter.
  int publish_target(const RankContext& ctx) const {
    if (layout_.num_roots > 0 && !layout_.is_root(self_) &&
        self_ < layout_.num_masters) {
      const int parent = layout_.root_of(self_);
      if (ctx.is_alive(parent)) return parent;
    }
    return successor_rank(ctx, layout_);
  }

  // Push the per-rank high-water board one tier up (or, when we are the
  // counter, check for completion).  Re-publishing the *full* board — not
  // deltas — is what lets a counter successor reconstruct the count after
  // the old counter died with reports it never broadcast, and what makes
  // the tree reduction idempotent (max-merge of cumulative totals).
  void publish_totals(RankContext& ctx) {
    if (finished_) return;
    const int counter = publish_target(ctx);
    if (counter == self_) {
      last_published_counter_ = counter;
      totals_dirty_ = false;
      maybe_finish(ctx);
      return;
    }
    if (!totals_dirty_ && counter == last_published_counter_) return;
    if (board_.totals().empty()) return;
    TerminationCount tc;
    tc.totals.assign(board_.totals().begin(), board_.totals().end());
    Message m;
    m.payload = std::move(tc);
    ctx.send(counter, std::move(m));
    totals_dirty_ = false;
    last_published_counter_ = counter;
  }

  void maybe_finish(RankContext& ctx) {
    if (board_.sum() >= total_active_) finish_everyone(ctx);
  }

  void finish_everyone(RankContext& ctx) {
    for (int m = 0; m < layout_.num_masters; ++m) {
      if (m == self_ || !ctx.is_alive(m)) continue;
      Message msg;
      msg.payload = DoneSignal{};
      ctx.send(m, std::move(msg));
    }
    if (failover(params_)) {
      // A master can die with its DoneSignal still in flight; its orphans
      // would then re-home to a coordinator that already finished.  The
      // counter closes that window by terminating every live slave
      // directly (duplicate kTerminates are idempotent).
      for (int s = layout_.num_masters; s < layout_.num_ranks; ++s) {
        if (s == self_ || !ctx.is_alive(s)) continue;
        send_terminate(ctx, s);
      }
      finished_ = true;
      return;
    }
    terminate_group(ctx);
  }

  void terminate_group(RankContext& ctx) {
    // Every live slave this coordinator is responsible for: the layout
    // group (including slaves the scheduler dropped on a false-positive
    // declare-dead), plus anyone adopted through failover.
    for (int s = layout_.num_masters; s < layout_.num_ranks; ++s) {
      if (s == self_ || !ctx.is_alive(s)) continue;
      if (sched_.records().count(s) == 0 && !coordinates(ctx, s)) continue;
      send_terminate(ctx, s);
    }
    finished_ = true;
  }

  bool coordinates(const RankContext& ctx, int slave) const {
    const int m = layout_.master_of(slave);
    if (ctx.is_alive(m)) return m == self_;
    return adopter_of(ctx, layout_, m) == self_;
  }

  int self_;
  HybridLayout layout_;
  HybridParams params_;
  std::uint32_t total_active_;  // global streamline count
  std::vector<Particle> initial_seeds_;  // this master's pool until start

  GroupScheduler sched_;
  GroupScheduler::Orders orders_;  // reused by every pass
  std::map<int, double> last_heard_;  // heartbeat bookkeeping (§7)
  std::map<int, ProgressTrack> progress_;  // straggler detection (§16)
  std::set<int> dry_masters_;
  bool seed_request_outstanding_ = false;
  int seed_request_target_ = -1;
  // Root-tier brokering state (tree layouts; unused in flat runs).  One
  // queued demand records whom the eventual SeedTransfer goes to (the
  // starving master, or the peer root that escalated on its behalf) and
  // whether one escalation is still allowed.
  struct PendingSeedRequest {
    int reply_to = -1;
    bool may_escalate = false;
  };
  std::deque<PendingSeedRequest> pending_requests_;
  int relay_cursor_ = 0;
  bool relay_outstanding_ = false;
  int relay_target_ = -1;
  // Survivable termination accounting (§11), max-merged from statuses,
  // peer boards, and ledger recoveries.
  TerminationBoard board_;
  bool totals_dirty_ = false;
  int last_published_counter_ = -1;
  // Dead coordinators (and dead slaves) whose ledger state was already
  // absorbed; keeps adoption idempotent across re-homing bursts.
  std::set<int> recovered_coords_;
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
        coord_(layout.master_of(rank)) {
    if (layout.is_master(rank)) {
      core_.emplace(decomp, rank, layout, params, total_active,
                    std::move(seeds));
    }
  }

  void start(RankContext& ctx) override {
    // Slaves begin idle; everything arrives from the master.  Do not
    // report yet — the master hands out the initial allocation unasked.
    master_heard_ = ctx.now();
    if (core_) {
      core_->start(ctx);
      core_post(ctx);
    }
    if (params_.heartbeat_period > 0.0 && !finished_) {
      ctx.set_timer(params_.heartbeat_period);
    }
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
      if (failover(params_) && msg.from != coord_ && !ctx.is_alive(coord_)) {
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
    if (!core_ && failover(params_) && !finished_ &&
        successor_rank(ctx, layout_) == rank_) {
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
    if (!failover(params_)) return;
    if (ctx.now() - master_heard_ <= heartbeat_deadline(params_)) {
      return;  // not silent yet
    }
    if (ctx.is_alive(coord_)) return;  // silent but alive: keep waiting
    const int succ = adopter_of(ctx, layout_, coord_);
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
    double frac = 1.0;
    if (burst_duration_ > 0.0) {
      frac = (ctx.now() - burst_start_) / burst_duration_;
      if (frac > 1.0) frac = 1.0;
      if (frac < 0.0) frac = 0.0;
    }
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
