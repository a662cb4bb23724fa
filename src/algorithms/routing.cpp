#include "algorithms/routing.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>

namespace sf {

std::pair<BlockId, BlockId> contiguous_range(int num_blocks, int num_ranks,
                                             int rank) {
  const auto nb = static_cast<std::int64_t>(num_blocks);
  const BlockId first = static_cast<BlockId>(nb * rank / num_ranks);
  const BlockId last = static_cast<BlockId>(nb * (rank + 1) / num_ranks);
  return {first, last};
}

int contiguous_owner(int num_blocks, int num_ranks, BlockId block) {
  if (block < 0 || block >= num_blocks) {
    throw std::out_of_range("contiguous_owner: bad block id");
  }
  // Inverse of contiguous_range with first(r) = floor(NB*r/P): the owner
  // of b is floor(((b+1)*P - 1) / NB).
  return static_cast<int>(
      ((static_cast<std::int64_t>(block) + 1) * num_ranks - 1) / num_blocks);
}

std::size_t resident_particle_bytes(const Particle& p,
                                    const MachineModel& model) {
  return model.particle_overhead_bytes +
         static_cast<std::size_t>(p.geometry_points) * sizeof(Vec3);
}

void ParticlePool::add(BlockId block, Particle p) {
  by_block_[block].push_back(std::move(p));
  ++total_;
}

std::optional<Particle> ParticlePool::take_from(BlockId b) {
  auto it = by_block_.find(b);
  if (it == by_block_.end() || it->second.empty()) return std::nullopt;
  Particle p = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) by_block_.erase(it);
  --total_;
  return p;
}

std::size_t ParticlePool::count_in(BlockId b) const {
  auto it = by_block_.find(b);
  return it == by_block_.end() ? 0 : it->second.size();
}

BlockId ParticlePool::densest_block() const {
  BlockId best = kInvalidBlock;
  std::size_t best_count = 0;
  for (const auto& [block, queue] : by_block_) {
    if (queue.size() > best_count) {
      best_count = queue.size();
      best = block;
    }
  }
  return best;
}

std::vector<std::pair<BlockId, std::uint32_t>> ParticlePool::census() const {
  std::vector<std::pair<BlockId, std::uint32_t>> out;
  out.reserve(by_block_.size());
  for (const auto& [block, queue] : by_block_) {
    if (!queue.empty()) {
      out.emplace_back(block, static_cast<std::uint32_t>(queue.size()));
    }
  }
  return out;
}

std::vector<Particle> ParticlePool::drain_block(BlockId b) {
  std::vector<Particle> out;
  auto it = by_block_.find(b);
  if (it == by_block_.end()) return out;
  out.assign(std::make_move_iterator(it->second.begin()),
             std::make_move_iterator(it->second.end()));
  total_ -= out.size();
  by_block_.erase(it);
  return out;
}

void ParticlePool::append_all(std::vector<Particle>& out) const {
  for (const auto& [block, queue] : by_block_) {
    out.insert(out.end(), queue.begin(), queue.end());
  }
}

std::vector<Particle> make_particles(const BlockDecomposition& decomp,
                                     std::span<const Vec3> seeds,
                                     std::vector<Particle>& rejected) {
  std::vector<Particle> out;
  out.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    Particle p;
    p.id = static_cast<std::uint32_t>(i);
    p.pos = seeds[i];
    if (decomp.block_of(seeds[i]) == kInvalidBlock) {
      p.status = ParticleStatus::kExitedDomain;
      rejected.push_back(p);
    } else {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<std::vector<Particle>> split_evenly(
    int parts, std::vector<Particle> particles) {
  std::vector<std::vector<Particle>> out(static_cast<std::size_t>(parts));
  const std::size_t total = particles.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::size_t first = total * i / out.size();
    const std::size_t last = total * (i + 1) / out.size();
    out[i].assign(std::make_move_iterator(particles.begin() + first),
                  std::make_move_iterator(particles.begin() + last));
  }
  return out;
}

namespace {

// Shared tail of every predictor: hint the ranked candidates (count
// descending, id ascending) that are not already resident, pending, or
// the excluded focus block.  prefetch_block is a no-op when async I/O
// is off, so the synchronous demand path is untouched.
void issue_ranked_hints(RankContext& ctx,
                        std::vector<std::pair<BlockId, std::uint32_t>> ranked,
                        BlockId exclude, int max_hints) {
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  int hinted = 0;
  for (const auto& [block, count] : ranked) {
    if (block == exclude || ctx.block_resident(block) ||
        ctx.block_pending(block)) {
      continue;
    }
    ctx.prefetch_block(block);
    if (++hinted >= max_hints) break;
  }
}

}  // namespace

void prefetch_densest(RankContext& ctx, const ParticlePool& pool,
                      BlockId exclude, int max_hints) {
  if (max_hints <= 0) return;
  issue_ranked_hints(ctx, pool.census(), exclude, max_hints);
}

void prefetch_blocking_targets(RankContext& ctx,
                               std::span<const AdvanceOutcome> outcomes,
                               BlockId exclude, int max_hints) {
  if (max_hints <= 0) return;
  std::map<BlockId, std::uint32_t> census;
  for (const AdvanceOutcome& o : outcomes) {
    if (o.status == ParticleStatus::kActive &&
        o.blocking_block != kInvalidBlock) {
      ++census[o.blocking_block];
    }
  }
  issue_ranked_hints(ctx, {census.begin(), census.end()}, exclude, max_hints);
}

void prefetch_streamline_lookahead(RankContext& ctx,
                                   const BlockDecomposition& decomp,
                                   std::span<const Particle> batch,
                                   std::span<const Vec3> start_positions,
                                   std::span<const AdvanceOutcome> outcomes,
                                   BlockId exclude, int max_hints) {
  if (max_hints <= 0) return;
  const AABB& dom = decomp.domain();
  const Vec3 bsize{(dom.hi.x - dom.lo.x) / decomp.nbx(),
                   (dom.hi.y - dom.lo.y) / decomp.nby(),
                   (dom.hi.z - dom.lo.z) / decomp.nbz()};
  // Far enough past the blocking block's near face to land inside the
  // neighbour, short enough not to skip it.
  const double probe = 0.75 * std::min({bsize.x, bsize.y, bsize.z});
  std::map<BlockId, std::uint32_t> census;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const AdvanceOutcome& o = outcomes[i];
    if (o.status != ParticleStatus::kActive ||
        o.blocking_block == kInvalidBlock) {
      continue;
    }
    const Vec3 dir = batch[i].pos - start_positions[i];
    const double len =
        std::sqrt(dir.x * dir.x + dir.y * dir.y + dir.z * dir.z);
    if (len <= 0.0) continue;
    const BlockId next = decomp.block_of(batch[i].pos + dir * (probe / len));
    if (next == kInvalidBlock || next == o.blocking_block) continue;
    ++census[next];
  }
  issue_ranked_hints(ctx, {census.begin(), census.end()}, exclude, max_hints);
}

int next_live_rank(const RankContext& ctx, int after) {
  const int n = ctx.num_ranks();
  for (int i = 1; i <= n; ++i) {
    const int r = (after + i) % n;
    if (ctx.is_alive(r)) return r;
  }
  throw std::logic_error("next_live_rank: no live ranks");
}

int live_owner(const RankContext& ctx, int num_blocks, BlockId block) {
  const int owner = contiguous_owner(num_blocks, ctx.num_ranks(), block);
  return ctx.is_alive(owner) ? owner : next_live_rank(ctx, owner);
}

void StreamlineWorker::accept(RankContext& ctx, Particle p) {
  ctx.charge_particle_memory(
      static_cast<std::int64_t>(resident_particle_bytes(p, ctx.model())));
  pool_.add(ctx.tracer().block_of(p), std::move(p));
}

void StreamlineWorker::accept(RankContext& ctx,
                              std::vector<Particle> particles) {
  for (Particle& p : particles) accept(ctx, std::move(p));
}

void StreamlineWorker::ship(RankContext& ctx, int to, BlockId block,
                            std::vector<Particle> particles) {
  if (particles.empty()) return;
  std::size_t bytes = 0;
  for (const Particle& p : particles) {
    bytes += resident_particle_bytes(p, ctx.model());
  }
  ctx.charge_particle_memory(-static_cast<std::int64_t>(bytes));
  Message m;
  m.payload = ParticleBatch{block, std::move(particles)};
  ctx.send(to, std::move(m));
}

BlockId StreamlineWorker::runnable_block(const RankContext& ctx) const {
  return pool_.first_block_where(
      [&ctx](BlockId id) { return ctx.block_resident(id); });
}

std::uint64_t StreamlineWorker::start_burst(RankContext& ctx, BlockId block,
                                            std::vector<Vec3>* starts) {
  burst_ = pool_.drain_block(block);
  if (starts != nullptr) {
    starts->clear();
    starts->reserve(burst_.size());
    for (const Particle& p : burst_) starts->push_back(p.pos);
  }
  std::int64_t points_before = 0;
  for (const Particle& p : burst_) points_before += p.geometry_points;
  // The focus block of each batch round is pinned in the rank's cache so
  // async load completions landing between rounds can't evict it from
  // under the tracer's cursor (no-ops on contexts without a cache).
  const BlockPinHooks pins{
      [&ctx](BlockId id) { ctx.pin_block(id); },
      [&ctx](BlockId id) { ctx.unpin_block(id); }};
  outcomes_ = ctx.tracer().advance_batch(
      burst_, [&ctx](BlockId id) { return ctx.block(id); }, nullptr, &pins);

  std::int64_t points_after = 0;
  for (const Particle& p : burst_) points_after += p.geometry_points;
  const std::int64_t grown = points_after - points_before;
  if (grown != 0) {
    ctx.charge_particle_memory(grown *
                               static_cast<std::int64_t>(sizeof(Vec3)));
  }
  std::uint64_t steps = 0;
  for (const AdvanceOutcome& o : outcomes_) steps += o.steps;
  ctx.begin_compute(
      static_cast<double>(steps) * ctx.model().seconds_per_step, steps);
  return steps;
}

void StreamlineWorker::collect(std::vector<Particle>& out) const {
  out.insert(out.end(), done_.begin(), done_.end());
}

void StreamlineWorker::snapshot(std::vector<Particle>& out) const {
  pool_.append_all(out);
  out.insert(out.end(), burst_.begin(), burst_.end());
}

bool TerminationBoard::merge(int rank, std::uint32_t total) {
  if (total == 0) return false;
  auto [it, inserted] = totals_.try_emplace(rank, total);
  if (inserted) {
    sum_ += total;
    return true;
  }
  if (total <= it->second) return false;
  sum_ += total - it->second;
  it->second = total;
  return true;
}

bool TerminationBoard::merge(
    std::span<const std::pair<int, std::uint32_t>> report) {
  bool rose = false;
  auto it = totals_.begin();
  for (const auto& [rank, total] : report) {
    if (total == 0) continue;
    // Walk `it` to the first entry at or after `rank`.  In a by-rank
    // report that is the previous entry's successor; only a gap in the
    // report, or a report out of order, needs the log-time lookup.
    if (it != totals_.end() && it->first < rank) ++it;
    if ((it != totals_.end() && it->first < rank) ||
        (it != totals_.begin() && std::prev(it)->first >= rank)) {
      it = totals_.lower_bound(rank);
    }
    if (it == totals_.end() || it->first != rank) {
      it = totals_.emplace_hint(it, rank, total);
      sum_ += total;
      rose = true;
    } else if (total > it->second) {
      sum_ += total - it->second;
      it->second = total;
      rose = true;
    }
  }
  return rose;
}

}  // namespace sf
