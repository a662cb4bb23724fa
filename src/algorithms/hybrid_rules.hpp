#pragma once

// A hybrid coordinator's decisions, with no runtime (DESIGN.md §11).  A
// GroupScheduler holds what a coordinator believes about its slaves and
// its seed pool: the §4.3 rules of one slave group.  It takes statuses,
// registrations, deaths, bounced assignments and straggler flags; its
// passes append (slave, Command) orders to a caller-owned vector, booking
// each order into the view as it is emitted.  Four more machines below
// hold the coordinator's other duties: the termination board, failover,
// the straggler windows and seed brokering.  The caller carries out every
// order in emission order and makes the particle-memory charges for seeds
// entering and leaving the pool.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "algorithms/hybrid.hpp"
#include "algorithms/routing.hpp"
#include "core/rng.hpp"
#include "runtime/message.hpp"

namespace sf {

namespace group_detail {

// A status's queued list as a SlaveRecord keeps it: sorted by block, each
// block once, zero counts dropped.
inline void normalize_queued(
    std::vector<std::pair<BlockId, std::uint32_t>>& list) {
  std::erase_if(list, [](const auto& e) { return e.second == 0; });
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first;
                         }),
             list.end());
}

// In a list of (key, value) pairs sorted by key: the entry for `key`, or
// where it would go.
template <typename K, typename V>
auto key_slot(std::vector<std::pair<K, V>>& list, K key) {
  return std::lower_bound(
      list.begin(), list.end(), key,
      [](const std::pair<K, V>& e, K k) { return e.first < k; });
}

// Insert `v` into a sorted list unless it is there already.
template <typename T>
void insert_sorted(std::vector<T>& list, T v) {
  const auto it = std::lower_bound(list.begin(), list.end(), v);
  if (it == list.end() || *it != v) list.insert(it, v);
}

inline void sort_unique(std::vector<BlockId>& list) {
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
}

// The union of two sorted lists, into `out`.
inline void sorted_union(const std::vector<BlockId>& a,
                         const std::vector<BlockId>& b,
                         std::vector<BlockId>& out) {
  out.clear();
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
}

// Walk two lists sorted by key(element) in step: gone(e) for a key only
// in `before`, kept(was, now) for a key in both, added(e) for a key only
// in `after`.
template <typename T, typename Key, typename Gone, typename Kept,
          typename Added>
void diff_sorted(const std::vector<T>& before, const std::vector<T>& after,
                 Key key, Gone gone, Kept kept, Added added) {
  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    if (a == after.end() || (b != before.end() && key(*b) < key(*a))) {
      gone(*b++);
    } else if (b == before.end() || key(*a) < key(*b)) {
      added(*a++);
    } else {
      kept(*b++, *a++);
    }
  }
}

inline Command command(Command::Type type, BlockId block, int target = -1) {
  Command cmd;
  cmd.type = type;
  cmd.block = block;
  cmd.target = target;
  return cmd;
}

}  // namespace group_detail

class GroupScheduler {
 public:
  // The passes append to any vector of (rank, payload) pairs that a
  // Command converts to: these, or a coordinator's CoordinatorOrders.
  using Orders = std::vector<std::pair<int, Command>>;

  // What the coordinator believes about one slave.  The block lists are
  // sorted by id, so a status applies as a diff against them.
  struct SlaveRecord {
    // Waiting particles by current block; every count is nonzero.
    std::vector<std::pair<BlockId, std::uint32_t>> queued;
    std::vector<BlockId> loaded;
    std::vector<BlockId> loading;
    std::uint32_t workable = 0;
    std::uint32_t workload = 0;  // workable plus every queued count
    bool outstanding = false;  // assigned work since its last status
    bool needs_work = false;
    bool hint_requested = false;  // a Send_hint on its behalf is pending
    bool straggler = false;  // flagged: no new work, no forced particles

    bool has_loaded(BlockId b) const {
      return std::binary_search(loaded.begin(), loaded.end(), b);
    }
    bool has_block(BlockId b) const {
      return has_loaded(b) ||
             std::binary_search(loading.begin(), loading.end(), b);
    }
  };

  // N, NO = overload_factor * N and NL as in HybridParams; `rng_seed`
  // seeds the Send_hint pick among equally busy slaves.
  GroupScheduler(const BlockDecomposition* decomp, int assign_batch,
                 int overload_factor, int load_threshold,
                 std::uint64_t rng_seed)
      : decomp_(decomp),
        assign_batch_(assign_batch),
        overload_limit_(
            static_cast<std::uint32_t>(overload_factor * assign_batch)),
        load_threshold_(static_cast<std::uint32_t>(load_threshold)),
        rng_(rng_seed) {}

  const std::map<int, SlaveRecord>& records() const { return records_; }
  const ParticlePool& seeds() const { return seeds_; }

  // The seed pool, by the block each seed starts in.
  void add_seed(Particle p) {
    seeds_.add(decomp_->block_of(p.pos), std::move(p));
  }

  // Move up to `max` seeds out of block `from` onto `out`.
  void take_seeds(BlockId from, std::size_t max, std::vector<Particle>& out) {
    for (std::size_t i = 0; i < max; ++i) {
      auto p = seeds_.take_from(from);
      if (!p) break;
      out.push_back(std::move(*p));
    }
  }

  // Returns false when the slave was already registered.
  bool add_slave(int slave) { return records_.try_emplace(slave).second; }

  // A declared-dead slave leaves the records and both indexes; returns
  // false when it was not registered.
  bool remove_slave(int slave) {
    const auto it = records_.find(slave);
    if (it == records_.end()) return false;
    if (it->second.straggler) --stragglers_;
    // Purge the record's index entries by applying an empty status, then
    // drop the record: dead slaves take no further part in any rule.
    StatusUpdate none;
    apply_status(slave, none);
    records_.erase(it);
    audit_indexes();
    return true;
  }

  // Replace the record's view with a status, taking over its lists.  The
  // indexes change only where the slave's queued counts or held blocks
  // changed, so a status costs a sort and a walk of its lists, plus an
  // index update per changed block.
  void apply_status(int slave, StatusUpdate& status) {
    using namespace group_detail;
    SlaveRecord& rec = records_.at(slave);
    normalize_queued(status.queued_by_block);
    diff_sorted(
        rec.queued, status.queued_by_block,
        [](const auto& e) { return e.first; },
        [&](const auto& gone) { index_unqueue(slave, gone.first); },
        [&](const auto& was, const auto& now) {
          if (was.second != now.second) {
            index_queue(slave, now.first, now.second);
          }
        },
        [&](const auto& added) {
          index_queue(slave, added.first, added.second);
        });
    rec.queued.swap(status.queued_by_block);
    rec.workload = status.workable;
    for (const auto& [b, count] : rec.queued) rec.workload += count;

    sort_unique(status.loaded);
    sort_unique(status.loading);
    sorted_union(rec.loaded, rec.loading, held_before_);
    sorted_union(status.loaded, status.loading, held_after_);
    diff_sorted(
        held_before_, held_after_, [](BlockId b) { return b; },
        [&](BlockId gone) { index_unhold(slave, gone); },
        [](BlockId, BlockId) {},
        [&](BlockId added) { index_hold(slave, added); });
    rec.loaded.swap(status.loaded);
    rec.loading.swap(status.loading);

    rec.workable = status.workable;
    rec.outstanding = false;
    rec.needs_work = (status.workable == 0);
    rec.hint_requested = false;
    audit_indexes();
  }

  // An Assign of `n` seeds in `block` bounced: un-book the optimistic
  // queue accounting so the rules do not chase phantom particles.
  void bounced(int slave, BlockId block, std::size_t n) {
    const auto it = records_.find(slave);
    if (it == records_.end() || block == kInvalidBlock) return;
    const std::uint32_t count = take_queued(slave, it->second, block);
    if (count > n) {
      add_queued(slave, it->second, block,
                 count - static_cast<std::uint32_t>(n));
    }
    it->second.outstanding = false;
    audit_indexes();
  }

  void flag_straggler(int slave) {
    bool& flagged = records_.at(slave).straggler;
    if (!flagged) ++stragglers_;
    flagged = true;
  }

  // The initial allocation: N seeds per slave, in rank order, while seeds
  // last (Assign_loaded / Assign_unloaded).
  template <typename Out>
  void initial_allocation(Out& out) {
    for (auto& [slave, rec] : records_) {
      if (seeds_.empty()) break;
      assign_seeds(slave, rec, out);
    }
  }

  // The rule sequence for every workless slave.
  template <typename Out>
  void assignment_pass(Out& out) {
    bool expensive_available = true;
    // A flagged straggler gets no new work while an unflagged slave of
    // the group can take it: its remaining copies race the speculated
    // ones, and feeding it more only slows the run.  Once every
    // registered slave is flagged, they are the only takers left (the
    // coordinator integrates its pool only with no registered slave), so
    // they are fed like any other.
    const bool skip_stragglers = stragglers_ < records_.size();
    for (auto& [slave, rec] : records_) {
      if (!rec.needs_work || rec.outstanding) continue;
      if (rec.straggler && skip_stragglers) continue;
      if (rules_for(slave, rec, expensive_available, out)) {
        rec.needs_work = false;
        rec.outstanding = true;
      } else if (expensive_available) {
        // The group-wide last-resort rules ran and found nothing; do not
        // re-scan for every other starving slave in this pass.
        expensive_available = false;
      }
    }
  }

 private:
  // Book one order into the view, then append it.  Every order the rules
  // make passes through here, so after a pass the view holds exactly what
  // the slaves were told.
  template <typename Out>
  void emit(int slave, SlaveRecord& rec, Command cmd, Out& out) {
    switch (cmd.type) {
      case Command::Type::kAssign:
        add_queued(slave, rec, cmd.block,
                   static_cast<std::uint32_t>(cmd.particles.size()));
        rec.outstanding = true;
        rec.needs_work = false;
        // The slave auto-loads the blocks of assigned seeds.
        if (rec.has_block(cmd.block)) break;
        [[fallthrough]];
      case Command::Type::kLoad:
        group_detail::insert_sorted(rec.loading, cmd.block);
        index_hold(slave, cmd.block);
        break;
      case Command::Type::kSendForce: {
        // The queued count moves between the records optimistically,
        // before either slave reports.
        const std::uint32_t count = take_queued(slave, rec, cmd.block);
        add_queued(cmd.target, records_[cmd.target], cmd.block, count);
        break;
      }
      case Command::Type::kSendHint:
        records_[cmd.target].hint_requested = true;
        break;
      case Command::Type::kTerminate:
        break;
    }
    audit_indexes();
    out.emplace_back(slave, std::move(cmd));
  }

  template <typename Out>
  void assign_seeds(int slave, SlaveRecord& rec, Out& out) {
    // Prefer a block the slave already has loaded (Assign_loaded), else
    // the densest seed block (Assign_unloaded).
    BlockId from = seeds_.first_block_where(
        [&rec](BlockId b) { return rec.has_loaded(b); });
    if (from == kInvalidBlock) from = seeds_.densest_block();
    if (from == kInvalidBlock) return;
    Command cmd = group_detail::command(Command::Type::kAssign, from);
    take_seeds(from, static_cast<std::size_t>(assign_batch_), cmd.particles);
    emit(slave, rec, std::move(cmd), out);
  }

  // The unloaded block holding the most of the slave's queued particles,
  // if that is more than `floor` (ties -> lowest id); else kInvalidBlock.
  BlockId most_stuck_block(const SlaveRecord& rec,
                           std::uint32_t floor) const {
    BlockId best = kInvalidBlock;
    for (const auto& [b, count] : rec.queued) {
      if (!rec.has_block(b) && count > floor) {
        best = b;
        floor = count;
      }
    }
    return best;
  }

  // The §4.3 rule sequence for one workless slave.  Returns true when S
  // was supplied with work.  The last-resort rules (6's global fallback
  // and 7) are gated by `allow_expensive`: the assignment pass grants
  // them to one starving slave per pass, because they scan group-wide
  // state and rarely succeed twice in the same pass ("the next time
  // another slave posts a status ... there is another opportunity").
  template <typename Out>
  bool rules_for(int slave, SlaveRecord& rec, bool allow_expensive,
                 Out& out) {
    using group_detail::command;
    bool assigned = false;

    // (1) Send_force away: S's particles in unloaded blocks go to group
    // slaves that have those blocks loaded/loading (if they stay under
    // NO).  A block still in flight counts: particles queue on the
    // receiving slave until its read lands.
    {
      // Copy: a Send_force edits the queue.  It only removes the entry
      // it moves, so every count here stays current.
      stuck_.clear();
      for (const auto& [b, count] : rec.queued) {
        if (!rec.has_block(b)) stuck_.emplace_back(b, count);
      }
      for (const auto& [b, count] : stuck_) {
        const auto hit = holders_.find(b);
        if (hit == holders_.end()) continue;
        int target = -1;
        for (const int cand : hit->second) {
          if (cand == slave || records_[cand].straggler) continue;
          if (records_[cand].workload + count <= overload_limit_) {
            target = cand;
            break;
          }
        }
        if (target >= 0) {
          emit(slave, rec, command(Command::Type::kSendForce, b, target),
               out);
        }
      }
    }

    // (2) Load: S has more than NL particles stuck in one unloaded block.
    {
      const BlockId best = most_stuck_block(rec, load_threshold_);
      if (best != kInvalidBlock) {
        emit(slave, rec, command(Command::Type::kLoad, best), out);
        assigned = true;
      }
    }

    // (3) The loads above changed the group's loaded sets: other slaves
    // may now Send_force their stuck particles to S.
    {
      // A Send_force to S leaves S's block lists alone, so they need no
      // copy.
      const auto take_waiters = [&](BlockId b) {
        const auto qit = queued_idx_.find(b);
        if (qit == queued_idx_.end()) return;
        // Copy: a Send_force edits the index.
        waiters_.assign(qit->second.begin(), qit->second.end());
        for (const auto& [other, count] : waiters_) {
          if (other == slave) continue;
          SlaveRecord& orec = records_[other];
          if (orec.has_block(b)) continue;  // they can run it themselves
          if (rec.workload + count > overload_limit_) break;
          emit(other, orec, command(Command::Type::kSendForce, b, slave),
               out);
          assigned = true;
        }
      };
      for (const BlockId b : rec.loaded) take_waiters(b);
      for (const BlockId b : rec.loading) take_waiters(b);
    }

    // (4) Assign_loaded / (5) Assign_unloaded from the seed pool.
    if (!assigned && !seeds_.empty()) {
      assign_seeds(slave, rec, out);
      return true;  // the Assign booked the record flags itself
    }

    // (6) Still nothing: make S load the block holding its most
    // streamlines (or, failing that, the group's hottest block).
    if (!assigned) {
      BlockId best = most_stuck_block(rec, 0);
      if (best == kInvalidBlock && allow_expensive) {
        // Fall back to the group's hottest block — but only one held by
        // *no* group slave.  If somebody already holds it, migration
        // (rules 1/3/7) is strictly cheaper than a duplicate 12 MB read,
        // and without this guard every starved slave in a large group
        // re-loads the same hot block.
        std::uint32_t best_count = 0;
        for (const auto& [b, waiters] : queued_idx_) {
          if (holders_.count(b) != 0) continue;
          std::uint32_t total = 0;
          for (const auto& [other, count] : waiters) total += count;
          if (total > best_count) {
            best = b;
            best_count = total;
          }
        }
      }
      if (best != kInvalidBlock) {
        emit(slave, rec, command(Command::Type::kLoad, best), out);
        assigned = true;
      }
    }

    // (7) Hint the busiest slave that S can take work off its hands.
    // At most one outstanding hint per starving slave (re-armed by its
    // next status) — unthrottled hinting floods the group.
    if (!assigned && allow_expensive && !rec.hint_requested) {
      busiest_.clear();
      std::uint32_t most = 0;
      for (const auto& [other, orec] : records_) {
        if (other == slave) continue;
        const std::uint32_t w = orec.workload;
        if (w > most) {
          most = w;
          busiest_.assign(1, other);
        } else if (w == most && w > 0) {
          busiest_.push_back(other);
        }
      }
      if (!busiest_.empty() && most > 0) {
        const int target = busiest_[static_cast<std::size_t>(
            rng_.next_below(busiest_.size()))];
        SlaveRecord& trec = records_[target];
        Command cmd = command(Command::Type::kSendHint, kInvalidBlock, slave);
        for (const auto& [b, count] : trec.queued) {
          if (!trec.has_block(b)) cmd.hint_blocks.push_back(b);
        }
        if (!cmd.hint_blocks.empty()) emit(target, trec, std::move(cmd), out);
      }
    }

    return assigned;
  }

  // --- bookkeeping ---------------------------------------------------------

  // Queue `n` more particles in block `b` on a slave's record.
  void add_queued(int slave, SlaveRecord& rec, BlockId b, std::uint32_t n) {
    if (n == 0) return;
    auto it = group_detail::key_slot(rec.queued, b);
    if (it != rec.queued.end() && it->first == b) {
      it->second += n;
    } else {
      it = rec.queued.insert(it, {b, n});
    }
    rec.workload += n;
    index_queue(slave, b, it->second);
  }

  // Drop block `b` from a slave's queue; returns the count it held.
  std::uint32_t take_queued(int slave, SlaveRecord& rec, BlockId b) {
    const auto it = group_detail::key_slot(rec.queued, b);
    if (it == rec.queued.end() || it->first != b) return 0;
    const std::uint32_t n = it->second;
    rec.queued.erase(it);
    rec.workload -= n;
    index_unqueue(slave, b);
    return n;
  }

  // Two inverted indexes keep the rule passes O(own state) instead of
  // O(slaves x blocks): which slaves hold a block (loaded or loading),
  // and which slaves have particles queued in it.  Each block's list is
  // sorted by slave.

  void index_hold(int slave, BlockId b) {
    group_detail::insert_sorted(holders_[b], slave);
  }

  void index_unhold(int slave, BlockId b) {
    const auto it = holders_.find(b);
    if (it == holders_.end()) return;
    std::erase(it->second, slave);
    if (it->second.empty()) holders_.erase(it);
  }

  void index_queue(int slave, BlockId b, std::uint32_t count) {
    auto& waiters = queued_idx_[b];
    const auto it = group_detail::key_slot(waiters, slave);
    if (it != waiters.end() && it->first == slave) {
      it->second = count;
    } else {
      waiters.insert(it, {slave, count});
    }
  }

  void index_unqueue(int slave, BlockId b) {
    const auto it = queued_idx_.find(b);
    if (it == queued_idx_.end()) return;
    std::erase_if(it->second,
                  [slave](const auto& e) { return e.first == slave; });
    if (it->second.empty()) queued_idx_.erase(it);
  }

  // Equivalence audit: the indexes and the cached workloads, kept up to
  // date edit by edit, must equal a rebuild from the records.  Debug-only
  // — the rebuild is the O(slaves x blocks) cost the edits avoid.
  void audit_indexes() const {
#ifndef NDEBUG
    // Slaves in ascending order, so every list is built sorted.
    decltype(holders_) holders;
    decltype(queued_idx_) queued;
    for (const auto& [slave, rec] : records_) {
      std::uint32_t workload = rec.workable;
      for (const auto& [b, count] : rec.queued) {
        queued[b].emplace_back(slave, count);
        workload += count;
      }
      for (const auto* held : {&rec.loaded, &rec.loading}) {
        for (const BlockId b : *held) {
          std::vector<int>& h = holders[b];
          if (h.empty() || h.back() != slave) h.push_back(slave);
        }
      }
      assert(rec.workload == workload && "cached workload diverged");
    }
    assert(holders == holders_ && "holders index diverged from a rebuild");
    assert(queued == queued_idx_ && "queued index diverged from a rebuild");
#endif
  }

  const BlockDecomposition* decomp_;
  int assign_batch_;
  std::uint32_t overload_limit_;  // NO
  std::uint32_t load_threshold_;  // NL
  Rng rng_;

  ParticlePool seeds_;
  std::map<int, SlaveRecord> records_;
  std::size_t stragglers_ = 0;  // records flagged straggler
  // The inverted indexes over the records (see index_* above).
  std::map<BlockId, std::vector<int>> holders_;
  std::map<BlockId, std::vector<std::pair<int, std::uint32_t>>> queued_idx_;
  // Buffers reused across calls, so the status diff and the rule pass do
  // not allocate once warm.
  std::vector<BlockId> held_before_;
  std::vector<BlockId> held_after_;
  std::vector<std::pair<BlockId, std::uint32_t>> stuck_;
  std::vector<std::pair<int, std::uint32_t>> waiters_;
  std::vector<int> busiest_;
};

// ---------------------------------------------------------------------------
// The coordinator's other duties.  Each machine takes events plus a
// liveness predicate `alive(rank)` and appends to a CoordinatorOrders.

// Heartbeat periods a peer may stay silent before it is presumed dead.
constexpr int kHeartbeatMissLimit = 3;
// Straggler detection (DESIGN.md §16): a progress window spans this many
// heartbeat periods, and a slave is flagged when its effective speed
// falls below this fraction of the working-group median.
constexpr int kStragglerMinBeats = 3;
constexpr double kStragglerSlowness = 0.25;

// Ask a rank for seeds: sent as a SeedRequest, or as a SeedRelay when a
// root relays a demand it brokers.
struct SeedDemand {
  bool relayed = false;
};

// Pool a rank's streamlines from the particle ledger: a dead rank's, with
// its termination total (recover_rank), or a live straggler's in-progress
// copies (speculate_rank).
struct LedgerRequest {
  bool speculate = false;
};

using CoordinatorOrders = std::vector<
    std::pair<int, std::variant<Command, TerminationCount, DoneSignal,
                                MasterBeacon, SeedTransfer, SeedDemand,
                                LedgerRequest>>>;

// The failover successor: the lowest live original master, or — when
// every master is dead — the lowest live slave rank, which promotes
// itself.  Every rank computes this from the layout and its liveness
// view, so the role migrates without any election traffic.  The
// successor is also the acting termination counter.
template <typename Alive>
int successor_rank(const HybridLayout& layout, const Alive& alive) {
  for (int r = 0; r < layout.num_ranks; ++r) {
    if (alive(r)) return r;
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
template <typename Alive>
int adopter_of(const HybridLayout& layout, const Alive& alive,
               int dead_coordinator) {
  if (layout.num_roots > 0 && dead_coordinator >= layout.num_roots &&
      dead_coordinator < layout.num_masters) {
    const int parent = layout.root_of(dead_coordinator);
    if (alive(parent)) return parent;
  }
  return successor_rank(layout, alive);
}

// Survivable termination accounting (DESIGN.md §11): per-rank cumulative
// totals, max-merged from statuses, peer boards and ledger recoveries.
// Static Allocation runs it too, with every rank a coordinator.
class TerminationDuty {
 public:
  // `failover`: the finish terminates every live slave directly, and a
  // master answers a status that arrives after it.
  TerminationDuty(const HybridLayout& layout, int self,
                  std::uint32_t total_active, bool failover)
      : layout_(layout),
        self_(self),
        total_active_(total_active),
        failover_(failover) {}

  void merge(int rank, std::uint32_t total) {
    if (board_.merge(rank, total)) dirty_ = true;
  }
  void merge(std::span<const std::pair<int, std::uint32_t>> report) {
    if (board_.merge(report)) dirty_ = true;
  }

  // Where this coordinator publishes its board.  Flat layout: straight to
  // the acting counter.  Tree layout: leaf masters report to their parent
  // root, which max-merges its subtree's boards and forwards the merged
  // board to the counter — a two-level reduction that replaces the
  // all-to-all master exchange, so the counter hears O(num_roots) links
  // instead of O(num_masters).  A dead parent falls back to the
  // successor, so every credit still reaches the counter.
  template <typename Alive>
  int publish_target(const Alive& alive) const {
    if (layout_.num_roots > 0 && !layout_.is_root(self_) &&
        self_ < layout_.num_masters) {
      const int parent = layout_.root_of(self_);
      if (alive(parent)) return parent;
    }
    return successor_rank(layout_, alive);
  }

  // Push the per-rank high-water board one tier up when it rose or its
  // target moved, or — on the acting counter — finish once every
  // streamline is accounted for; returns true when it finished.
  // Re-publishing the *full* board — not deltas — is what lets a counter
  // successor reconstruct the count after the old counter died with
  // reports it never broadcast, and what makes the tree reduction
  // idempotent (max-merge of cumulative totals).  `mine(slave)`: this
  // coordinator terminates the slave at the finish.
  template <typename Alive, typename Mine>
  bool publish(const Alive& alive, const Mine& mine, CoordinatorOrders& out) {
    const int target = publish_target(alive);
    if (target == self_) {
      last_target_ = target;
      dirty_ = false;
      if (board_.sum() < total_active_) return false;
      // DoneSignal to every live coordinator.  With failover on, a master
      // can die with its DoneSignal still in flight and its orphans would
      // re-home to a coordinator that already finished; the counter
      // closes that window by terminating every live slave directly
      // (duplicate kTerminates are idempotent).
      for (int m = 0; m < layout_.num_masters; ++m) {
        if (m != self_ && alive(m)) out.emplace_back(m, DoneSignal{});
      }
      terminate_group(
          alive, [&](int s) { return failover_ || mine(s); }, out);
      return true;
    }
    if (!dirty_ && target == last_target_) return false;
    if (board_.totals().empty()) return false;
    TerminationCount tc;
    tc.totals.assign(board_.totals().begin(), board_.totals().end());
    out.emplace_back(target, std::move(tc));
    dirty_ = false;
    last_target_ = target;
    return false;
  }

  // Terminate the live slaves this coordinator answers for (on a
  // DoneSignal, and at the finish).
  template <typename Alive, typename Mine>
  void terminate_group(const Alive& alive, const Mine& mine,
                       CoordinatorOrders& out) const {
    for (int s = layout_.num_masters; s < layout_.num_ranks; ++s) {
      if (s == self_ || !alive(s) || !mine(s)) continue;
      out.emplace_back(s, group_detail::command(Command::Type::kTerminate,
                                                kInvalidBlock));
    }
  }

  // A re-home that arrived after the run ended: a master answers with the
  // terminate the orphan missed so it can quiesce.  A promoted slave is
  // always the counter, whose finish already terminated every live slave
  // directly, so it stays silent.
  void after_finish(int from, CoordinatorOrders& out) const {
    if (failover_ && layout_.is_master(self_)) {
      out.emplace_back(from, group_detail::command(Command::Type::kTerminate,
                                                   kInvalidBlock));
    }
  }

 private:
  HybridLayout layout_;
  int self_;
  std::uint32_t total_active_;  // global streamline count
  bool failover_;
  TerminationBoard board_;
  bool dirty_ = false;  // the board rose since it was last published
  int last_target_ = -1;
};

// Failover (DESIGN.md §11), on when the heartbeat period is positive:
// the declare-dead rule over heartbeat silence, and the claiming of dead
// coordinators from the liveness view.
class Failover {
 public:
  Failover(const HybridLayout& layout, int self, double heartbeat_period)
      : layout_(layout),
        self_(self),
        deadline_(kHeartbeatMissLimit * heartbeat_period) {}

  bool on() const { return deadline_ > 0.0; }

  // A status from `slave`, or the start of the run.
  void heard(int slave, double now) {
    if (on()) last_heard_[slave] = now;
  }

  // Register an adopted slave.  It gets one extra detection window before
  // the declare-dead rule may fire: its own re-home detection runs on the
  // same silence clock as ours, so a fresh adoptee may legitimately report
  // up to a full deadline late.
  void enroll(GroupScheduler& sched, int slave, double now) {
    if (sched.add_slave(slave)) last_heard_[slave] = now + deadline_;
  }

  // The declare-dead rule: the slaves silent for kHeartbeatMissLimit
  // periods.  Detection is purely silence-based — no liveness oracle.
  const std::vector<int>& silent(double now) {
    silent_.clear();
    for (const auto& [slave, heard_at] : last_heard_) {
      if (now - heard_at > deadline_) silent_.push_back(slave);
    }
    return silent_;
  }

  // The rule's action: forget the slave and reclaim its streamlines and
  // termination total.  False when it was not registered.
  bool declare_dead(GroupScheduler& sched, int slave, CoordinatorOrders& out) {
    if (!sched.remove_slave(slave)) return false;
    last_heard_.erase(slave);
    recovered_.insert(slave);
    out.emplace_back(slave, LedgerRequest{});
    return true;
  }

  // The dead coordinators a tick claims.  Parent duty (tree layouts): a
  // live root absorbs its own dead leaf children, keeping recovery local
  // to the subtree instead of serializing every adoption through the
  // global successor.  Successor duty: absorb groups whose dead master
  // has no survivor left to re-home (dead promoted coordinators are
  // reached through their own group's dead-slave recovery).  Under the
  // tree, a dead leaf master with a live parent is that parent's duty —
  // exactly one live rank claims any dead coordinator.
  template <typename Alive>
  const std::vector<int>& claims(const Alive& alive) {
    claims_.clear();
    if (layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      for (int leaf = first; leaf < last; ++leaf) {
        if (!alive(leaf)) claims_.push_back(leaf);
      }
    }
    if (successor_rank(layout_, alive) == self_) {
      for (int m = 0; m < layout_.num_masters; ++m) {
        if (m != self_ && !alive(m) && adopter_of(layout_, alive, m) == self_) {
          claims_.push_back(m);
        }
      }
    }
    return claims_;
  }

  // Absorb a dead coordinator: its unassigned seed pool and termination
  // total come out of the particle ledger; the survivors of its group are
  // enrolled (their re-reports arrive within a heartbeat), and its dead
  // slaves are recovered too so no credit or streamline is orphaned by a
  // chain of deaths.  Idempotent: false when `dead` is alive or was
  // already absorbed.
  template <typename Alive>
  bool adopt(int dead, const Alive& alive, GroupScheduler& sched, double now,
             CoordinatorOrders& out) {
    if (alive(dead) || !recovered_.insert(dead).second) return false;
    out.emplace_back(dead, LedgerRequest{});
    if (dead >= layout_.num_masters) return true;
    const auto [first, last] = layout_.slaves_of(dead);
    for (int s = first; s < last; ++s) {
      if (s == self_) continue;
      if (alive(s)) {
        enroll(sched, s, now);
      } else if (recovered_.insert(s).second) {
        out.emplace_back(s, LedgerRequest{});
      }
    }
    return true;
  }

  // Liveness beacons: slaves track the last time they heard us; silence
  // past their miss limit is what triggers their re-homing.
  template <typename Alive>
  static void beacon(const GroupScheduler& sched, const Alive& alive,
                     CoordinatorOrders& out) {
    for (const auto& [slave, rec] : sched.records()) {
      if (alive(slave)) out.emplace_back(slave, MasterBeacon{});
    }
  }

  // Whether the layout makes this coordinator answer for `slave`: it is
  // the slave's live master, or the adopter of its dead one.
  template <typename Alive>
  bool coordinates(int slave, const Alive& alive) const {
    const int m = layout_.master_of(slave);
    if (alive(m)) return m == self_;
    return adopter_of(layout_, alive, m) == self_;
  }

 private:
  HybridLayout layout_;
  int self_;
  double deadline_;
  std::map<int, double> last_heard_;  // heartbeat bookkeeping (§7)
  // Dead coordinators (and dead slaves) whose ledger state was already
  // requested; keeps adoption idempotent across re-homing bursts.
  std::set<int> recovered_;
  std::vector<int> silent_;  // reused by silent()
  std::vector<int> claims_;  // reused by claims()
};

// Straggler detection (gray failures, DESIGN.md §16): every status
// carries the slave's cumulative accepted-step watermark and its
// cumulative busy clock.  The master differentiates watermark against
// busy clock over fixed-width wall windows into an *effective compute
// speed* — steps per busy second.  Wall-clock rates cannot separate
// "slow" from "starved" (a mostly-idle healthy slave and a
// continuously-busy slow one post similar steps/wall-second), but
// busy-second rates can: every healthy slave computes at exactly
// 1/seconds_per_step no matter how little work it holds, while a
// gray-slowed slave's bursts take longer than the steps they retire,
// collapsing its ratio by the slowdown factor.  Cumulative counters make
// this robust to re-reports and failover re-homing: a duplicate merges as
// zero delta, never as double progress.
class StragglerWatch {
 public:
  // Off when the heartbeat period is 0 or speculative re-issue is off.
  // A window is several heartbeat periods wide, so it spans multiple
  // bursts: per-status rate samples are all-or-nothing noise (a burst
  // credits its steps at acceptance), while a multi-beat window averages
  // over the burst cadence.
  StragglerWatch(double heartbeat_period, bool speculative_reissue)
      : window_(heartbeat_period > 0.0 && speculative_reissue
                    ? static_cast<double>(kStragglerMinBeats) *
                          heartbeat_period
                    : 0.0) {}

  // A status the scheduler just applied.  A window that closes may flag
  // stragglers: each is flagged in the scheduler, and a LedgerRequest
  // copies its streamlines into the seed pool for healthy slaves.
  void on_status(int slave, double now, const StatusUpdate& status,
                 GroupScheduler& sched, CoordinatorOrders& out) {
    if (window_ <= 0.0) return;
    Track& t = progress_[slave];
    t.computing = status.computing;
    if (!t.started) {
      t.started = true;
      t.anchor_steps = status.steps_total;
      t.anchor_busy = status.busy_seconds;
      t.anchor_time = now;
      return;
    }
    if (now - t.anchor_time < window_) return;  // window open
    const std::uint64_t ds = status.steps_total > t.anchor_steps
                                 ? status.steps_total - t.anchor_steps
                                 : 0;
    const double dbusy = status.busy_seconds - t.anchor_busy;
    // No busy time in the window: the slave never computed, so there is
    // no speed sample.  Rate 0 with computing set still marks it a
    // candidate (burst accepted but no progress at all = hard stall).
    t.rate = dbusy > 0.0 ? static_cast<double>(ds) / dbusy : 0.0;
    t.last_busy = dbusy > 0.0 ? dbusy : 0.0;
    ++t.windows;
    t.anchor_steps = status.steps_total;
    t.anchor_busy = status.busy_seconds;
    t.anchor_time = now;
    flag_stragglers(sched, out);
  }

  void forget(int slave) { progress_.erase(slave); }

 private:
  struct Track {
    std::uint64_t anchor_steps = 0;  // watermark at the window anchor
    double anchor_busy = 0.0;        // busy clock at the window anchor
    double anchor_time = 0.0;        // when the current window opened
    double rate = 0.0;       // steps per *busy* second, last closed window
    double last_busy = 0.0;  // busy seconds inside the last closed window
    int windows = 0;         // closed windows so far
    bool computing = false;  // latest status: burst in flight
    bool started = false;
  };

  // A slave is a detection candidate only while it is *expected* to
  // progress: its latest status says a burst is in flight, or it
  // reported runnable (resident-block) work.  A slave whose particles
  // are all blocked on unloaded blocks — or which has simply run dry —
  // produces a zero rate that means "no runnable work", not "slow";
  // flagging the waiting and idle tails would starve them forever and
  // poison the median.
  static bool candidate(const GroupScheduler& sched, int slave,
                        const Track& t) {
    if (t.computing) return true;
    const auto it = sched.records().find(slave);
    return it != sched.records().end() && it->second.workable > 0;
  }

  // Flag every candidate slave whose last-window effective speed sits
  // below the slowness threshold of the healthy-group median, and
  // speculatively re-issue its ledger-owned streamlines.  The straggler
  // stays alive and keeps its own copies, so its termination total is
  // not merged (first-terminal-wins dedups whichever copy loses the
  // race).  The reference group is every unflagged slave with a positive
  // speed sample — a single short burst already yields an accurate
  // steps-per-busy-second reading — so healthy bursts finishing between
  // heartbeats never shrink it; requiring two of them also guarantees a
  // healthy slave remains to run the copies.  Flagging additionally
  // demands the suspect spent most of its last window *busy*: a slave
  // that barely computed has a noisy speed sample (the pro-rated
  // watermark truncates to whole steps), while a genuinely gray-slowed
  // slave is busy wall-to-wall — its bursts overrun the window — so the
  // gate costs no detection coverage where mitigation matters.
  void flag_stragglers(GroupScheduler& sched, CoordinatorOrders& out) {
    const auto flagged = [&sched](int slave) {
      return sched.records().at(slave).straggler;
    };
    rates_.clear();
    for (const auto& [slave, t] : progress_) {
      if (flagged(slave) || t.windows < 1 || t.rate <= 0.0) continue;
      rates_.push_back(t.rate);
    }
    if (rates_.size() < 2) return;
    const std::size_t mid = rates_.size() / 2;
    std::nth_element(rates_.begin(),
                     rates_.begin() + static_cast<std::ptrdiff_t>(mid),
                     rates_.end());
    const double median = rates_[mid];
    if (median <= 0.0) return;
    const double busy_floor = 0.5 * window_;
    for (const auto& [slave, t] : progress_) {
      if (flagged(slave) || t.windows < 1) continue;
      if (t.last_busy < busy_floor) continue;
      if (!candidate(sched, slave, t)) continue;
      if (t.rate >= kStragglerSlowness * median) continue;
      sched.flag_straggler(slave);
      out.emplace_back(slave, LedgerRequest{/*speculate=*/true});
    }
  }

  double window_;  // 0 = off
  std::map<int, Track> progress_;
  std::vector<double> rates_;  // reused by flag_stragglers
};

// Master-to-master seed balancing (DESIGN.md §15).  A master whose pool
// is dry while its slaves starve asks one donor at a time; an empty
// SeedTransfer is the "I am dry" answer that quenches its asking.
// Flat layout: round-robin over the peer masters.  Tree layout: a leaf
// asks a root (its parent first), so demand is brokered instead of
// flooding every master; a root asks its own leaf children first, then
// peer roots (roots hold no pool of their own unless they adopted one).
class SeedBroker {
 public:
  SeedBroker(const HybridLayout& layout, int self, int assign_batch)
      : layout_(layout), self_(self), assign_batch_(assign_batch) {}

  // After an assignment pass: the pool is dry but slaves are starving.
  template <typename Alive>
  void after_pass(const GroupScheduler& sched, const Alive& alive,
                  CoordinatorOrders& out) {
    if (!sched.seeds().empty() || request_outstanding_ ||
        layout_.num_masters <= 1) {
      return;
    }
    const auto& recs = sched.records();
    if (std::none_of(recs.begin(), recs.end(), [](const auto& e) {
          return e.second.needs_work && !e.second.outstanding;
        })) {
      return;
    }
    const auto viable = [&](int m) { return donor(m, alive); };
    int to = -1;
    if (layout_.num_roots == 0 || self_ >= layout_.num_masters) {
      // Flat layout — or a promoted slave, whose master candidates are
      // all dead by the promotion condition (the ring degenerates).
      to = ring(0, layout_.num_masters, self_ + 1, viable);
    } else if (layout_.is_root(self_)) {
      const auto [first, last] = layout_.leaves_of(self_);
      to = ring(first, last - first, 0, viable);
      if (to < 0) to = ring(0, layout_.num_roots, self_ + 1, viable);
    } else {
      to = ring(0, layout_.num_roots, layout_.root_of(self_), viable);
    }
    if (to < 0) return;  // every candidate is dry or dead
    out.emplace_back(to, SeedDemand{});
    request_outstanding_ = true;
    request_target_ = to;
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
  template <typename Alive>
  void on_demand(int requester, bool relayed, GroupScheduler& sched,
                 const Alive& alive, CoordinatorOrders& out) {
    if (layout_.is_root(self_)) {
      pending_.push_back({requester, /*may_escalate=*/!relayed});
      broker(sched, alive, out);
      return;
    }
    out.emplace_back(requester, donation(sched));
  }

  // A SeedTransfer from `from`, whose seeds the caller already pooled.
  // Only the matching marker clears: a broker root can have its own
  // request and a relayed donation in flight at once.
  template <typename Alive>
  void on_transfer(int from, bool empty, GroupScheduler& sched,
                   const Alive& alive, CoordinatorOrders& out) {
    if (from == request_target_) request_outstanding_ = false;
    if (from == relay_target_) relay_outstanding_ = false;
    if (empty) dry_.insert(from);
    broker(sched, alive, out);
  }

  // Un-wedge balancing if a request's or a relay's donor died before
  // answering.
  template <typename Alive>
  void tick(GroupScheduler& sched, const Alive& alive,
            CoordinatorOrders& out) {
    if (request_outstanding_ && !alive(request_target_)) {
      request_outstanding_ = false;
      dry_.insert(request_target_);
    }
    if (relay_outstanding_ && !alive(relay_target_)) {
      relay_outstanding_ = false;
      dry_.insert(relay_target_);
      broker(sched, alive, out);
    }
  }

 private:
  // The first rank of [first, first + n) that passes `ok`, scanning
  // round-robin from first + start; -1 when none does.
  template <typename Ok>
  static int ring(int first, int n, int start, const Ok& ok) {
    for (int i = 0; i < n; ++i) {
      const int r = first + (start + i) % n;
      if (ok(r)) return r;
    }
    return -1;
  }

  template <typename Alive>
  bool donor(int m, const Alive& alive) const {
    return m != self_ && dry_.count(m) == 0 && alive(m);
  }

  // Donate up to 4N seeds, whole blocks at a time, if we can spare them.
  SeedTransfer donation(GroupScheduler& sched) const {
    SeedTransfer transfer;
    const std::size_t spare_floor =
        static_cast<std::size_t>(assign_batch_) * sched.records().size();
    const auto donate_cap = static_cast<std::size_t>(4 * assign_batch_);
    // One seed at a time: the densest block can change after each take.
    while (sched.seeds().size() > spare_floor &&
           transfer.seeds.size() < donate_cap) {
      const BlockId b = sched.seeds().densest_block();
      if (b == kInvalidBlock) break;
      sched.take_seeds(b, 1, transfer.seeds);
    }
    return transfer;
  }

  // Serve queued demands from this root's own pool; when dry, relay one
  // demand at a time to a child leaf (round-robin), escalating once to a
  // peer root when the whole subtree answered dry.  Donations flow back
  // here (on_transfer re-enters), so every queued demand ends in either
  // seeds or a definitive empty answer once all candidates are dry — the
  // same quenching guarantee the flat round-robin has.
  template <typename Alive>
  void broker(GroupScheduler& sched, const Alive& alive,
              CoordinatorOrders& out) {
    while (!pending_.empty()) {
      Pending& req = pending_.front();
      if (!alive(req.reply_to)) {
        pending_.pop_front();  // failover reclaims its work
        continue;
      }
      SeedTransfer transfer = donation(sched);
      if (!transfer.seeds.empty()) {
        out.emplace_back(req.reply_to, std::move(transfer));
        pending_.pop_front();
        continue;
      }
      if (relay_outstanding_) return;  // a donation is already in flight
      const auto relay_to = [&](int donor_rank) {
        return donor_rank != req.reply_to && donor(donor_rank, alive);
      };
      const auto [first, last] = layout_.leaves_of(self_);
      int to = ring(first, last - first, relay_cursor_, relay_to);
      if (to >= 0) {
        relay_cursor_ = (to - first + 1) % (last - first);
      } else if (req.may_escalate) {
        req.may_escalate = false;
        to = ring(0, layout_.num_roots, self_ + 1, relay_to);
      }
      if (to >= 0) {
        out.emplace_back(to, SeedDemand{/*relayed=*/true});
        relay_outstanding_ = true;
        relay_target_ = to;
        return;
      }
      // Every candidate is dry or dead: a definitive empty answer, which
      // marks this root dry at the requester and quenches its asking.
      out.emplace_back(req.reply_to, SeedTransfer{});
      pending_.pop_front();
    }
  }

  HybridLayout layout_;
  int self_;
  int assign_batch_;  // N
  std::set<int> dry_;  // donors that answered empty
  bool request_outstanding_ = false;
  int request_target_ = -1;
  // Root-tier brokering state (tree layouts; unused in flat runs).  One
  // queued demand records whom the eventual SeedTransfer goes to (the
  // starving master, or the peer root that escalated on its behalf) and
  // whether one escalation is still allowed.
  struct Pending {
    int reply_to = -1;
    bool may_escalate = false;
  };
  std::deque<Pending> pending_;
  int relay_cursor_ = 0;
  bool relay_outstanding_ = false;
  int relay_target_ = -1;
};

}  // namespace sf
