#pragma once

// The per-rank host both runtimes share (DESIGN.md §10.5).
//
// The three algorithms are per-rank state machines over a per-rank LRU
// block cache (§4–5).  SimRuntime and ThreadRuntime host them over the
// same per-rank state: the cache, the demand loads in flight, the async
// prefetch pipeline (in-flight reads and a bounded staging area), the
// particle-memory budget and the rank's metrics.  RankHost owns that
// state, implements the RankContext calls that only touch it, and fires
// the invariant hooks that audit it, timed by the runtime's now().  Each
// runtime derives its Context from RankHost and adds only what differs:
// the clock, the transport, how a block read is timed and when a compute
// burst completes.
//
// RankHosts is the run-level half: one run's hosts plus what they share
// (the invariant checker and the per-query completion board), and the
// bookkeeping both run() functions do at the start and the end of a run.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/dataset.hpp"
#include "core/thread_annotations.hpp"
#include "core/tracer.hpp"
#include "io/async_loader.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_context.hpp"
#include "sim/machine_model.hpp"

namespace sf {

// A query cancellation (service control plane): at time `at`, every
// active particle of `query` terminates as kCancelled at its next advance.
struct QueryCancelAt {
  std::uint32_t query = 0;
  double at = 0.0;
};

// The configuration both runtimes take; SimRuntimeConfig extends it.
struct RuntimeConfig {
  int num_ranks = 4;
  // Memory budgets and per-particle overheads (and, on SimRuntime, the
  // modelled machine).
  MachineModel model{};
  // LRU capacity per rank, in blocks ("user defined upper bound", §5).
  std::size_t cache_blocks = 32;
  // Whether communicated particles carry their recorded trajectory
  // geometry (the paper's behaviour) or only solver state (§8's proposed
  // optimization).
  bool carry_geometry = true;
  // Which protocol's legality rules the invariant checker enforces
  // (DESIGN.md §8).  kNone still checks conservation, cache coherence
  // and termination accounting.  Only meaningful in builds with
  // SF_CHECK_INVARIANTS; Release runs ignore it entirely.
  CheckedProtocol checked_protocol = CheckedProtocol::kNone;
  // Hybrid layout input for the protocol model (ranks [0, n) are masters;
  // with a tree layout ranks [0, num_roots) of them are the root tier).
  int checker_num_masters = 0;
  int checker_num_roots = 0;
  // Asynchronous block I/O (DESIGN.md §10).  Off by default: the
  // synchronous path stays bit-identical to the pre-async runtime.
  // When enabled, prefetch_block() overlaps reads with compute;
  // prefetched grids wait in a staging area and only enter the LRU
  // cache (and the load count) when a demand claims them, so the
  // trajectory and load/purge accounting match the sync path exactly.
  AsyncIoConfig async_io{};
  // Cross-query cache sharing (src/service).  Non-owning; nullptr for
  // standalone runs.  At run start each rank adopts the pool's captured
  // blocks into its fresh LRU (counted as adoptions, not loads); at run
  // end the surviving ranks' residency is captured back.
  SharedBlockPool* shared_blocks = nullptr;
  // Query cancellations; ThreadRuntime takes only those at 0.
  std::vector<QueryCancelAt> cancels;
  // ThreadRuntime's seeded yields and sleeps at mailbox and cache
  // boundaries, so sanitizer runs explore interleavings (DESIGN.md §8);
  // 0 disables.  Results are unaffected either way.
  std::uint64_t schedule_fuzz_seed = 0;
};

// Prefetched grids that arrived before a demand claimed them, oldest
// first.  The host bounds it (AsyncIoConfig::staging_blocks).
class StagingArea {
 public:
  bool contains(BlockId id) const { return staged_.count(id) != 0; }
  std::size_t size() const { return staged_.size(); }

  void put(BlockId id, GridPtr grid) {
    staged_[id] = std::move(grid);
    staged_order_.push_back(id);
  }

  // Remove and return `id`'s grid; nullptr when it is not staged.
  GridPtr take(BlockId id) {
    auto it = staged_.find(id);
    if (it == staged_.end()) return nullptr;
    GridPtr grid = std::move(it->second);
    staged_.erase(it);
    staged_order_.erase(
        std::remove(staged_order_.begin(), staged_order_.end(), id),
        staged_order_.end());
    return grid;
  }

  // Remove the oldest staged grid (the area must not be empty).
  BlockId pop_oldest() {
    const BlockId oldest = staged_order_.front();
    staged_order_.erase(staged_order_.begin());
    staged_.erase(oldest);
    return oldest;
  }

 private:
  std::map<BlockId, GridPtr> staged_;
  std::vector<BlockId> staged_order_;
};

// Per-query termination board: each query's live streamlines count down
// as they terminate, so the last terminator of a query records its
// completion exactly once.  ThreadRuntime's rank threads count down
// concurrently, hence the mutex.
class QueryBoard {
 public:
  // Start a run with `live[q]` streamlines of query q outstanding.
  void reset(std::map<std::uint32_t, std::uint32_t> live)
      SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    query_total_ = live;
    query_remaining_ = std::move(live);
    completions_.clear();
    completions_.reserve(query_total_.size());
  }

  // Count one first-time termination at runtime clock `now`; true when
  // it was its query's last.  Unknown queries (particles terminated by a
  // test program that never snapshot them) and already-complete queries
  // are not obligations.
  bool note(const Particle& p, double now) SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = query_remaining_.find(p.query);
    if (it == query_remaining_.end() || it->second == 0) return false;
    if (--it->second != 0) return false;
    completions_.push_back(
        QueryCompletion{p.query, now, query_total_[p.query]});
    return true;
  }

  // The run's completion records, sorted by query id; empties the board.
  std::vector<QueryCompletion> take() SF_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    std::sort(completions_.begin(), completions_.end(),
              [](const QueryCompletion& a, const QueryCompletion& b) {
                return a.query < b.query;
              });
    return std::exchange(completions_, {});
  }

 private:
  Mutex mutex_{LockRank::kQueryBoard};
  std::map<std::uint32_t, std::uint32_t> query_remaining_
      SF_GUARDED_BY(mutex_);
  std::map<std::uint32_t, std::uint32_t> query_total_ SF_GUARDED_BY(mutex_);
  std::vector<QueryCompletion> completions_ SF_GUARDED_BY(mutex_);
};

class RankHosts;

class RankHost : public RankContext {
 public:
  // Events and rank threads hold the host's address.
  RankHost(const RankHost&) = delete;
  RankHost& operator=(const RankHost&) = delete;

  int rank() const final { return rank_; }
  int num_ranks() const final;
  const BlockDecomposition& decomposition() const final;
  const Tracer& tracer() const final;
  const MachineModel& model() const final;

  int prefetch_capacity() const final;
  void pin_block(BlockId id) final;
  void unpin_block(BlockId id) final;
  bool block_resident(BlockId id) const final { return cache_.contains(id); }
  bool block_pending(BlockId id) const final {
    return pending_.count(id) != 0;
  }
  std::vector<BlockId> resident_blocks() const final {
    return cache_.resident();
  }
  const StructuredGrid* block(BlockId id) final;

  // Over budget, marks the rank OOM and throws SimAbort naming it.  A
  // release below zero is a program bug: std::logic_error naming the rank.
  void charge_particle_memory(std::int64_t delta_bytes) final;

  std::unique_ptr<RankProgram> program;
  RankMetrics metrics;

 protected:
  RankHost(RankHosts* run, int rank);

  const RuntimeConfig& config() const;
  const BlockSource& source() const;
  InvariantChecker* checker() const;

  // --- demand loads --------------------------------------------------------

  enum class Demand {
    kServed,   // resident now; the runtime notifies the program
    kPending,  // a load of it is already outstanding
    kMiss,     // the runtime must read it
  };
  // Serve a demand from the cache or, claiming it, from the staging area.
  // A claim is when a prefetched load "happens" for LRU order and the
  // E-metric, so accounting matches the sync path (and the stall is 0).
  Demand serve_demand(BlockId id);
  // A read of `id` completed into the cache (one load).
  void land(BlockId id, GridPtr grid);
  // A demand that waited `waited` seconds on an in-flight prefetch
  // claims the grid that read delivered.
  void claim_inflight(BlockId id, GridPtr grid, double waited);
  // Seconds the rank sat blocked on a demand read.
  void charge_stall(double seconds) {
    metrics.io_time += seconds;
    metrics.stall_time += seconds;
  }
  // Count one block read's bytes; returns them.
  std::size_t count_read(BlockId id);
  // A rank terminated `p`: the checker hears of it, and a first-time
  // termination counts toward its query's completion.
  void credit_termination(const Particle& p, bool first);

  // --- prefetches ------------------------------------------------------------

  // Admit a prefetch hint into prefetch_inflight_ (counted as issued);
  // false drops it: async I/O off, the block already resident, pending,
  // staged or in flight, or the in-flight depth reached.
  bool admit_prefetch(BlockId id);
  // A prefetch read delivered `grid` with no demand waiting: stage it,
  // discarding the oldest staged grid beyond the bound.  A null grid (a
  // failed or cancelled read) or one already resident is discarded.
  void stage(BlockId id, GridPtr grid);
  // A prefetch ends unclaimed (one wasted prefetch).
  void discard_prefetch(BlockId id);
  // Discard whatever the pipeline still holds, so every issued prefetch
  // is resolved before the run ends.
  void resolve_outstanding_prefetches();

  std::set<BlockId> pending_;  // demand loads outstanding
  // Prefetches in flight: the loader's future on ThreadRuntime; unset on
  // SimRuntime, whose reads are simulated events.
  std::map<BlockId, std::shared_future<GridPtr>> prefetch_inflight_;

 private:
  friend class RankHosts;

  // Warm start from a previous run's captured residency (MRU first).
  void adopt_shared(const std::vector<std::pair<BlockId, GridPtr>>& blocks);
  void sync_cache_counters();

  RankHosts* run_;
  int rank_;
  BlockCache cache_;
  StagingArea staged_;
  std::int64_t particle_bytes_ = 0;
};

class RankHosts {
 public:
  // Runtime-specific seeding from the same snapshot (SimRuntime's ledger).
  using SeedHook =
      std::function<void(int rank, const std::vector<Particle>& snapshot)>;

  // Validates the shared inputs; `runtime` names the caller in errors.
  RankHosts(const RuntimeConfig* config, const BlockDecomposition* decomp,
            const BlockSource* source, const Tracer* tracer,
            const char* runtime);

  const RuntimeConfig& config() const { return *config_; }
  const BlockDecomposition& decomposition() const { return *decomp_; }
  const BlockSource& source() const { return *source_; }
  const Tracer& tracer() const { return *tracer_; }

  std::size_t size() const { return hosts_.size(); }
  RankHost& operator[](int rank) {
    return *hosts_[static_cast<std::size_t>(rank)];
  }
  const RankHost& operator[](int rank) const {
    return *hosts_[static_cast<std::size_t>(rank)];
  }

  // Start a run over `hosts` (one per rank, programs built): build the
  // checker, then take one seeding snapshot per rank for the checker,
  // the query board and `seed_hook`; then adopt the shared pool.
  void begin(std::vector<std::unique_ptr<RankHost>> hosts, bool fault_mode,
             const std::vector<Particle>& presettled,
             const SeedHook& seed_hook);

  // A first-time termination at runtime clock `now`.
  void note_termination(const Particle& p, double now);

  // End the run: resolve the live ranks' prefetches, append every rank's
  // metrics (and, with `gather_particles`, its terminated particles —
  // partial results on a failed run) to `out`, run the checker's
  // run-end audit, capture the live ranks' residency into the shared
  // pool, sort the particles and query completions, release the hosts.
  void finish(RunMetrics& out, bool completed, double now,
              bool gather_particles);

  // Live only during a run; null when the checker is compiled out.
  std::unique_ptr<InvariantChecker> checker;

 private:
  const RuntimeConfig* config_;
  const BlockDecomposition* decomp_;
  const BlockSource* source_;
  const Tracer* tracer_;
  std::vector<std::unique_ptr<RankHost>> hosts_;
  QueryBoard queries_;
};

}  // namespace sf
