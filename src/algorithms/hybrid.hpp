#pragma once

// Hybrid Master/Slave (§4.3) — the paper's contribution.
//
// Ranks are split into master processes (one per W slaves) and slave
// processes.  Slaves advance streamlines from their block caches and
// report status when they run out of work; masters monitor slave state
// and rebalance by either communicating streamlines or instructing
// duplicate block loads, using the paper's five rules (Assign_loaded,
// Assign_unloaded, Send_force, Send_hint, Load) as the numbered passes
// (1)-(7) of GroupScheduler::rules_for in hybrid_rules.hpp, with
// heuristics N = 10 (assignment granularity), NO = 20 N (overload
// limit), NL = 40 (load-rather-than-send threshold), W = 32.  Multiple
// masters balance seeds among themselves; the acting counter (the lowest
// live master, master 0 in fault-free runs) aggregates the global
// termination count from per-rank cumulative totals.
//
// Every coordinator decision is made by a runtime-free machine in
// hybrid_rules.hpp: the GroupScheduler's rules, the termination board,
// failover, the straggler windows and seed brokering.  Every rank runs
// one host program; on a coordinator it engages the master core, which
// carries out the machines' orders.
//
// With a heartbeat (fault runs, DESIGN.md §11) coordinator death is
// recoverable: masters beacon their group, slaves that observe a silent
// dead master re-home to a successor — the lowest live master, or the
// lowest live slave promoting itself when no master survives — and the
// successor rebuilds scheduling state from re-reported statuses plus the
// particle ledger, so no streamline is lost.  A coordinator left with no
// live slave integrates its own seed pool.

#include <cstdint>

#include "algorithms/routing.hpp"
#include "runtime/rank_context.hpp"

namespace sf {

struct HybridParams {
  int assign_batch = 10;      // N:  seeds per assignment
  int overload_factor = 20;   // NO = overload_factor * N
  int load_threshold = 40;    // NL: load instead of migrating
  int slaves_per_master = 32; // W
  // Fault tolerance (DESIGN.md §7, §11): when heartbeat_period > 0 slaves
  // report status at least every period and the master declares a slave
  // dead after kHeartbeatMissLimit silent periods, reclaiming its
  // streamlines (the declare-dead rule); masters beacon their slaves, orphaned
  // slaves re-home to a successor (or promote themselves), and the
  // counter terminates stragglers directly.  The driver copies the fault
  // config's heartbeat on fault runs; 0 disables the protocol, keeping
  // fault-free runs bit-identical to the five-rule master.
  double heartbeat_period = 0.0;
  // Gray-failure mitigation (DESIGN.md §16): every status carries a
  // cumulative step watermark and a cumulative busy clock; the master
  // differentiates them over windows of three heartbeat periods into a
  // per-slave *effective compute speed* (steps per busy second — immune
  // to starvation, unlike wall-clock rates), and flags a slave that holds
  // work but whose speed falls below a quarter of the working-group
  // median (both thresholds are constants in hybrid_rules.hpp).  A flagged
  // slave's ledger-owned streamlines are speculatively re-issued to
  // healthy slaves (ownership stays with the straggler; the ledger's
  // first-terminal-wins credit dedups the losing copies) and it receives
  // no further assignments.  speculative_reissue = false turns detection
  // and re-issue off (the unmitigated baseline).  Only active when
  // heartbeat_period > 0, i.e. on fault runs, so fault-free runs keep the
  // exact five-rule message sequence.
  bool speculative_reissue = true;
  // Two-level master tree (DESIGN.md §15): when the flat layout would
  // produce more than root_fanout masters, a root tier is carved out above
  // them — each root aggregates the termination board of up to root_fanout
  // leaf masters and brokers seed balancing between them, so control
  // traffic per master stays flat as ranks grow.  At the defaults the tree
  // only engages above ~1K ranks, which keeps runs at <= 512 ranks
  // bit-identical to the single-tier layout.
  int root_fanout = 32;
};

// How ranks are split into coordinators and slaves.  Coordinators are
// ranks [0, num_masters); slaves the rest, divided into contiguous
// groups.  With a tree layout the coordinator range is itself split:
// ranks [0, num_roots) are root masters (no slave group of their own —
// they aggregate boards and broker seeds for their leaf children) and
// [num_roots, num_masters) are leaf masters owning the slave groups.
// num_roots == 0 is the paper's flat layout, and every formula below
// reduces exactly to it.
struct HybridLayout {
  int num_ranks = 0;
  int num_masters = 0;  // all coordinator ranks: roots + leaf masters
  int num_roots = 0;    // root tier size (0 = flat single-tier layout)

  static HybridLayout make(int num_ranks, int slaves_per_master,
                           int root_fanout = 0);

  int num_slaves() const { return num_ranks - num_masters; }
  int num_leaves() const { return num_masters - num_roots; }
  bool is_master(int rank) const { return rank < num_masters; }
  bool is_root(int rank) const { return rank < num_roots; }

  // The leaf master responsible for a slave rank.
  int master_of(int slave_rank) const;

  // The [first, last) slave-rank range of one master's group.  Roots own
  // no slaves: their range is empty.
  std::pair<int, int> slaves_of(int master_rank) const;

  // The root responsible for a leaf master (tree layouts only).
  int root_of(int leaf_master) const;

  // The [first, last) leaf-master range of one root's subtree.
  std::pair<int, int> leaves_of(int root_rank) const;
};

// Program factory.  `seeds_per_master[l]` is leaf master l's initial seed
// pool (with a flat layout every master is a leaf); `total_active` the
// global live-streamline count.  Roots start with empty pools.
ProgramFactory make_hybrid(const BlockDecomposition* decomp,
                           std::vector<std::vector<Particle>> seeds_per_master,
                           std::uint32_t total_active, HybridParams params);

}  // namespace sf
