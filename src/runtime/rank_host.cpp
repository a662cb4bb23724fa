#include "runtime/rank_host.hpp"

#include <stdexcept>
#include <string>

#include "sim/sim_engine.hpp"

namespace sf {

RankHost::RankHost(RankHosts* run, int rank)
    : run_(run), rank_(rank), cache_(run->config().cache_blocks) {}

int RankHost::num_ranks() const { return run_->config().num_ranks; }
const BlockDecomposition& RankHost::decomposition() const {
  return run_->decomposition();
}
const Tracer& RankHost::tracer() const { return run_->tracer(); }
const MachineModel& RankHost::model() const { return run_->config().model; }
const RuntimeConfig& RankHost::config() const { return run_->config(); }
const BlockSource& RankHost::source() const { return run_->source(); }
InvariantChecker* RankHost::checker() const { return run_->checker.get(); }

int RankHost::prefetch_capacity() const {
  const AsyncIoConfig& aio = config().async_io;
  return aio.enabled ? std::max(1, aio.prefetch_depth) : 0;
}

void RankHost::pin_block(BlockId id) {
  cache_.pin(id);
  SF_INVARIANT_HOOK(checker(), on_block_pin(rank_, id));
}

void RankHost::unpin_block(BlockId id) {
  cache_.unpin(id);  // may run the deferred eviction
  SF_INVARIANT_HOOK(checker(),
                    on_block_unpin(rank_, id, cache_.resident(), now()));
}

const StructuredGrid* RankHost::block(BlockId id) {
  const StructuredGrid* grid = cache_.find(id);
  if (grid != nullptr) {
    // find() moved the block to the front of the LRU; mirror it.
    SF_INVARIANT_HOOK(checker(), on_block_touch(rank_, id));
  }
  return grid;
}

void RankHost::charge_particle_memory(std::int64_t delta_bytes) {
  particle_bytes_ += delta_bytes;
  if (particle_bytes_ < 0) {
    // A program released more than it charged: its accounting is wrong,
    // and the budget no longer sees what the rank holds.
    throw std::logic_error("rank " + std::to_string(rank_) +
                           " released more particle memory than it held");
  }
  metrics.peak_particle_bytes =
      std::max(metrics.peak_particle_bytes,
               static_cast<std::size_t>(particle_bytes_));
  if (static_cast<std::size_t>(particle_bytes_) >
      config().model.particle_memory_bytes) {
    metrics.oom = true;
    throw SimAbort("rank " + std::to_string(rank_) +
                       " exceeded its particle memory budget",
                   rank_);
  }
}

RankHost::Demand RankHost::serve_demand(BlockId id) {
  if (cache_.contains(id)) return Demand::kServed;
  if (pending_.count(id) != 0) return Demand::kPending;
  GridPtr grid = staged_.take(id);  // always null with async I/O off
  if (grid == nullptr) return Demand::kMiss;
  ++metrics.prefetch_hits;
  SF_INVARIANT_HOOK(checker(), on_prefetch_claimed(rank_, id, now()));
  land(id, std::move(grid));
  return Demand::kServed;
}

void RankHost::land(BlockId id, GridPtr grid) {
  cache_.insert(id, std::move(grid));
  SF_INVARIANT_HOOK(checker(),
                    on_block_insert(rank_, id, cache_.resident(), now()));
  pending_.erase(id);
}

void RankHost::claim_inflight(BlockId id, GridPtr grid, double waited) {
  ++metrics.prefetch_hits;
  charge_stall(waited);
  SF_INVARIANT_HOOK(checker(), on_prefetch_claimed(rank_, id, now()));
  land(id, std::move(grid));
}

std::size_t RankHost::count_read(BlockId id) {
  const std::size_t bytes = source().block_bytes(id);
  metrics.bytes_read += bytes;
  return bytes;
}

void RankHost::credit_termination(const Particle& p, bool first) {
  SF_INVARIANT_HOOK(checker(), on_terminated(rank_, p, first, now()));
  if (first) run_->note_termination(p, now());
}

bool RankHost::admit_prefetch(BlockId id) {
  // Capacity is 0 with async I/O off; dropping a hint is always legal.
  if (prefetch_inflight_.size() >=
          static_cast<std::size_t>(prefetch_capacity()) ||
      cache_.contains(id) || pending_.count(id) != 0 ||
      staged_.contains(id) || prefetch_inflight_.count(id) != 0) {
    return false;
  }
  prefetch_inflight_.emplace(id, std::shared_future<GridPtr>());
  ++metrics.prefetches_issued;
  SF_INVARIANT_HOOK(checker(), on_prefetch_issued(rank_, id, now()));
  return true;
}

void RankHost::stage(BlockId id, GridPtr grid) {
  if (grid == nullptr || cache_.contains(id)) {
    discard_prefetch(id);
    return;
  }
  // The grid waits outside the cache until a demand claims it; past the
  // bound, the oldest staged grid is discarded.
  staged_.put(id, std::move(grid));
  SF_INVARIANT_HOOK(checker(), on_prefetch_staged(rank_, id, now()));
  const std::size_t cap =
      std::max<std::size_t>(1, config().async_io.staging_blocks);
  while (staged_.size() > cap) discard_prefetch(staged_.pop_oldest());
}

void RankHost::discard_prefetch([[maybe_unused]] BlockId id) {
  ++metrics.prefetches_wasted;
  SF_INVARIANT_HOOK(checker(), on_prefetch_cancelled(rank_, id, now()));
}

void RankHost::resolve_outstanding_prefetches() {
  while (staged_.size() != 0) discard_prefetch(staged_.pop_oldest());
  for (const auto& inflight : prefetch_inflight_) {
    discard_prefetch(inflight.first);
  }
  prefetch_inflight_.clear();
}

void RankHost::adopt_shared(
    const std::vector<std::pair<BlockId, GridPtr>>& blocks) {
  // Adopting LRU-last -> MRU-first rebuilds the same recency order, and
  // each adoption replays through the checker's LRU model so coherence
  // checks keep holding.
  const std::size_t n = std::min(blocks.size(), cache_.capacity());
  for (std::size_t i = n; i-- > 0;) {
    cache_.adopt(blocks[i].first, blocks[i].second);
    SF_INVARIANT_HOOK(checker(), on_block_insert(rank_, blocks[i].first,
                                                 cache_.resident(), now()));
  }
}

void RankHost::sync_cache_counters() {
  metrics.blocks_loaded = cache_.loads();
  metrics.blocks_purged = cache_.purges();
  metrics.cache_hits = cache_.hits();
  metrics.cache_misses = cache_.misses();
  metrics.blocks_adopted = cache_.adopted();
}

RankHosts::RankHosts(const RuntimeConfig* config,
                     const BlockDecomposition* decomp,
                     const BlockSource* source, const Tracer* tracer,
                     const char* runtime)
    : config_(config), decomp_(decomp), source_(source), tracer_(tracer) {
  if (config_->num_ranks < 1) {
    throw std::invalid_argument(std::string(runtime) + ": num_ranks >= 1");
  }
  if (decomp_ == nullptr || source_ == nullptr) {
    throw std::invalid_argument(std::string(runtime) +
                                ": null decomposition or source");
  }
}

void RankHosts::begin(std::vector<std::unique_ptr<RankHost>> hosts,
                      bool fault_mode,
                      const std::vector<Particle>& presettled,
                      const SeedHook& seed_hook) {
  hosts_ = std::move(hosts);
  const RuntimeConfig& cfg = *config_;
  checker = make_invariant_checker(
      {.protocol = cfg.checked_protocol,
       .num_ranks = cfg.num_ranks,
       .num_masters = cfg.checker_num_masters,
       .num_roots = cfg.checker_num_roots,
       .num_blocks = decomp_->num_blocks(),
       .cache_blocks = cfg.cache_blocks,
       .fault_mode = fault_mode,
       .track_queries = true});

  // Per-query live counts are deduped by particle id: at t = 0 each live
  // streamline has exactly one owner.
  std::map<std::uint32_t, std::uint32_t> live;
  std::set<std::uint32_t> seen;
  std::vector<Particle> snap;
  for (int r = 0; r < cfg.num_ranks; ++r) {
    snap.clear();
    (*this)[r].program->snapshot_particles(snap);
    if (checker) checker->on_seeded(r, snap);
    for (const Particle& p : snap) {
      if (!is_terminal(p.status) && seen.insert(p.id).second) ++live[p.query];
    }
    if (seed_hook) seed_hook(r, snap);
  }
  if (checker) checker->on_presettled(presettled);
  queries_.reset(std::move(live));

  // Cross-query warm start before any program runs, so the first demands
  // of an overlapping query hit.
  if (cfg.shared_blocks != nullptr) {
    for (int r = 0; r < cfg.num_ranks; ++r) {
      (*this)[r].adopt_shared(cfg.shared_blocks->blocks(r));
    }
  }
}

void RankHosts::note_termination(const Particle& p, double now) {
  // The checker hook fires after the board's lock is released (the
  // checker is last in the lock order).
  if (queries_.note(p, now)) {
    SF_INVARIANT_HOOK(checker, on_query_done(p.query, now));
  }
}

void RankHosts::finish(RunMetrics& out, [[maybe_unused]] bool completed,
                       [[maybe_unused]] double now, bool gather_particles) {
  out.ranks.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    // A crashed rank's prefetches were already cleared by the checker's
    // on_crash, and died with it.
    if (!host->metrics.crashed) host->resolve_outstanding_prefetches();
    host->sync_cache_counters();
    out.ranks.push_back(host->metrics);
    if (gather_particles) host->program->collect_particles(out.particles);
  }
  SF_INVARIANT_HOOK(checker, on_run_end(completed, now));
  checker.reset();

  // Capture cross-query residency for the next epoch; a dead rank's
  // memory died with it.
  if (SharedBlockPool* pool = config_->shared_blocks) {
    for (int r = 0; r < static_cast<int>(hosts_.size()); ++r) {
      const RankHost& host = (*this)[r];
      if (host.metrics.crashed) {
        pool->drop(r);
      } else {
        pool->capture(r, host.cache_);
      }
    }
  }

  std::sort(out.particles.begin(), out.particles.end(),
            [](const Particle& a, const Particle& b) { return a.id < b.id; });
  out.query_completions = queries_.take();
  hosts_.clear();
}

}  // namespace sf
