#pragma once

// The §4.3 rules of one hybrid slave group, with no runtime (DESIGN.md
// §11).  A GroupScheduler holds what a coordinator believes about its
// slaves and its seed pool.  It takes statuses, registrations, deaths,
// bounced assignments and straggler flags; its passes append (slave,
// Command) orders to a caller-owned vector, booking each order into the
// view as it is emitted.  The caller sends the orders in emission order
// and makes the particle-memory charges for seeds entering and leaving
// the pool.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

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

  void flag_straggler(int slave) { records_.at(slave).straggler = true; }

  // The initial allocation: N seeds per slave, in rank order, while seeds
  // last (Assign_loaded / Assign_unloaded).
  void initial_allocation(Orders& out) {
    for (auto& [slave, rec] : records_) {
      if (seeds_.empty()) break;
      assign_seeds(slave, rec, out);
    }
  }

  // The rule sequence for every workless slave.
  void assignment_pass(Orders& out) {
    bool expensive_available = true;
    for (auto& [slave, rec] : records_) {
      if (!rec.needs_work || rec.outstanding) continue;
      // A flagged straggler gets no new work: its remaining copies race
      // the speculated ones, and feeding it more only slows the run.
      if (rec.straggler) continue;
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
  void emit(int slave, SlaveRecord& rec, Command cmd, Orders& out) {
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

  void assign_seeds(int slave, SlaveRecord& rec, Orders& out) {
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
  bool rules_for(int slave, SlaveRecord& rec, bool allow_expensive,
                 Orders& out) {
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

}  // namespace sf
