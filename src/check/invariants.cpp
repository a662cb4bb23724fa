#include "check/invariants.hpp"

#include <algorithm>
#include <sstream>

#include "algorithms/routing.hpp"

namespace sf {

const char* to_string(ViolationKind k) {
  switch (k) {
    case ViolationKind::kConservation: return "conservation";
    case ViolationKind::kDoubleAssign: return "double-assign";
    case ViolationKind::kPhantomDelivery: return "phantom-delivery";
    case ViolationKind::kPhantomTermination: return "phantom-termination";
    case ViolationKind::kDuplicateTermination:
      return "duplicate-termination";
    case ViolationKind::kLostParticle: return "lost-particle";
    case ViolationKind::kCacheOverflow: return "cache-overflow";
    case ViolationKind::kCacheMismatch: return "cache-mismatch";
    case ViolationKind::kIllegalMessage: return "illegal-message";
    case ViolationKind::kPrematureTermination:
      return "premature-termination";
    case ViolationKind::kDoubleTermination: return "double-termination";
    case ViolationKind::kSendAfterFinish: return "send-after-finish";
    case ViolationKind::kPinnedPurge: return "pinned-purge";
    case ViolationKind::kPrefetchState: return "prefetch-state";
    case ViolationKind::kUnresolvedPrefetch: return "unresolved-prefetch";
    case ViolationKind::kDedupRegression: return "dedup-regression";
    case ViolationKind::kQueryDoneDouble: return "query-done-double";
    case ViolationKind::kQueryDonePremature: return "query-done-premature";
    case ViolationKind::kQueryDoneMissing: return "query-done-missing";
  }
  return "unknown";
}

namespace {

std::string format_diag(const InvariantDiagnostic& d) {
  std::ostringstream os;
  os << "invariant violation [" << to_string(d.kind) << "] rank " << d.rank
     << " t=" << d.when;
  if (d.particle != InvariantDiagnostic::kNoParticle) {
    os << " particle " << d.particle;
  }
  if (d.block != kInvalidBlock) os << " block " << d.block;
  if (!d.detail.empty()) os << ": " << d.detail;
  return os.str();
}

const char* payload_name(const Message& msg) {
  struct Namer {
    const char* operator()(const ParticleBatch&) { return "ParticleBatch"; }
    const char* operator()(const StatusUpdate&) { return "StatusUpdate"; }
    const char* operator()(const Command&) { return "Command"; }
    const char* operator()(const TerminationCount&) {
      return "TerminationCount";
    }
    const char* operator()(const DoneSignal&) { return "DoneSignal"; }
    const char* operator()(const SeedRequest&) { return "SeedRequest"; }
    const char* operator()(const SeedRelay&) { return "SeedRelay"; }
    const char* operator()(const SeedTransfer&) { return "SeedTransfer"; }
    const char* operator()(const Undeliverable&) { return "Undeliverable"; }
    const char* operator()(const MasterBeacon&) { return "MasterBeacon"; }
    const char* operator()(const ControlAck&) { return "ControlAck"; }
  };
  return std::visit(Namer{}, msg.payload);
}

// Is the message a terminate broadcast (DoneSignal or Command::kTerminate)?
bool is_finish_broadcast(const Message& msg) {
  if (std::holds_alternative<DoneSignal>(msg.payload)) return true;
  const auto* cmd = std::get_if<Command>(&msg.payload);
  return cmd != nullptr && cmd->type == Command::Type::kTerminate;
}

}  // namespace

InvariantViolation::InvariantViolation(InvariantDiagnostic diag)
    : std::logic_error(format_diag(diag)), diag_(std::move(diag)) {}

InvariantChecker::InvariantChecker(const CheckerConfig& config)
    : config_(config) {
  ranks_.resize(static_cast<std::size_t>(std::max(0, config_.num_ranks)));
}

void InvariantChecker::fail(InvariantDiagnostic diag) const {
  throw InvariantViolation(std::move(diag));
}

const std::vector<Particle>* InvariantChecker::payload_particles(
    const Message& msg) {
  if (const auto* b = std::get_if<ParticleBatch>(&msg.payload)) {
    return &b->particles;
  }
  if (const auto* c = std::get_if<Command>(&msg.payload)) {
    return c->particles.empty() ? nullptr : &c->particles;
  }
  if (const auto* t = std::get_if<SeedTransfer>(&msg.payload)) {
    return t->seeds.empty() ? nullptr : &t->seeds;
  }
  if (const auto* u = std::get_if<Undeliverable>(&msg.payload)) {
    return &u->particles;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

void InvariantChecker::on_seeded(int rank,
                                 const std::vector<Particle>& particles) {
  MutexLock lock(mutex_);
  for (const Particle& p : particles) {
    const bool fresh = particles_.count(p.id) == 0;
    ParticleState& s = particles_[p.id];
    if (is_terminal(p.status)) {
      if (!s.done) {
        s.done = true;
        ++done_count_;
      }
      continue;
    }
    if (fresh) {
      // Per-query account: only live seeds count, and only once per
      // streamline (restart re-seeding of a known particle is not a new
      // obligation).
      s.query = p.query;
      ++queries_[p.query].seeded;
    }
    s.holders[rank] += 1;
    ++live_copies_;
  }
}

void InvariantChecker::on_presettled(const std::vector<Particle>& particles) {
  MutexLock lock(mutex_);
  for (const Particle& p : particles) {
    ParticleState& s = particles_[p.id];
    if (!s.done) {
      s.done = true;
      ++done_count_;
    }
  }
}

void InvariantChecker::on_run_end(bool completed, double now) {
  MutexLock lock(mutex_);
  audit_locked(now);
  if (!completed) return;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& rs = ranks_[r];
    if (rs.crashed || rs.prefetches.empty()) continue;
    fail({.kind = ViolationKind::kUnresolvedPrefetch,
          .rank = static_cast<int>(r),
          .when = now,
          .block = rs.prefetches.begin()->first,
          .detail = std::to_string(rs.prefetches.size()) +
                    " prefetch(es) neither claimed, discarded nor "
                    "cancelled by run end"});
  }
  for (const auto& [id, s] : particles_) {
    if (!s.done) {
      fail({.kind = ViolationKind::kLostParticle,
            .rank = -1,
            .when = now,
            .particle = id,
            .detail = "run completed but streamline never terminated"});
    }
  }
  if (config_.track_queries) {
    for (const auto& [query, q] : queries_) {
      if (q.seeded > 0 && !q.fired) {
        fail({.kind = ViolationKind::kQueryDoneMissing,
              .rank = -1,
              .when = now,
              .detail = "run completed but query " + std::to_string(query) +
                        " never fired query-done (" +
                        std::to_string(q.done) + "/" +
                        std::to_string(q.seeded) + " streamlines done)"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation transitions
// ---------------------------------------------------------------------------

void InvariantChecker::take_from_holder(int rank, const Particle& p,
                                        double now, ViolationKind kind) {
  ParticleState& s = particles_[p.id];
  auto it = s.holders.find(rank);
  if (it == s.holders.end() || it->second <= 0) {
    std::ostringstream os;
    os << "rank does not hold the particle (holders:";
    for (const auto& [r, n] : s.holders) os << ' ' << r << 'x' << n;
    os << ", in-flight " << s.in_flight << ", done "
       << (s.done ? "yes" : "no") << ")";
    fail({.kind = kind,
          .rank = rank,
          .when = now,
          .particle = p.id,
          .detail = os.str()});
  }
  if (--it->second == 0) s.holders.erase(it);
  --live_copies_;
}

void InvariantChecker::on_send(int from, int to, const Message& msg,
                               double now) {
  MutexLock lock(mutex_);
  check_protocol(from, to, msg, now);
  if (is_finish_broadcast(msg)) note_finish_broadcast(from, to, now);

  const std::vector<Particle>* particles = payload_particles(msg);
  if (particles == nullptr) return;
  if (from >= 0 && from < config_.num_ranks &&
      ranks_[static_cast<std::size_t>(from)].told_to_finish) {
    fail({.kind = ViolationKind::kSendAfterFinish,
          .rank = from,
          .when = now,
          .particle = particles->empty()
                          ? InvariantDiagnostic::kNoParticle
                          : particles->front().id,
          .detail = std::string(payload_name(msg)) +
                    " sent after terminate was received"});
  }
  for (const Particle& p : *particles) {
    // The sender must hold the copy it ships: shipping a particle twice
    // (or one that lives on another rank) is the double-assign bug class.
    take_from_holder(from, p, now, ViolationKind::kDoubleAssign);
    ParticleState& s = particles_[p.id];
    s.in_flight += 1;
    ++live_copies_;
  }
}

void InvariantChecker::on_deliver(int to, const Message& msg, double now) {
  MutexLock lock(mutex_);
  if (is_finish_broadcast(msg) && to >= 0 && to < config_.num_ranks) {
    RankState& r = ranks_[static_cast<std::size_t>(to)];
    // Fault mode tolerates duplicate terminates: under coordinator
    // failover a late re-home can be answered with a kTerminate the
    // sweep already sent, and receivers are idempotent by contract.
    if (config_.protocol != CheckedProtocol::kNone && r.told_to_finish &&
        !config_.fault_mode) {
      fail({.kind = ViolationKind::kDoubleTermination,
            .rank = to,
            .when = now,
            .detail = "second terminate broadcast delivered to this rank"});
    }
    r.told_to_finish = true;
  }

  const std::vector<Particle>* particles = payload_particles(msg);
  if (particles == nullptr) return;
  for (const Particle& p : *particles) {
    ParticleState& s = particles_[p.id];
    if (s.in_flight <= 0) {
      fail({.kind = ViolationKind::kPhantomDelivery,
            .rank = to,
            .when = now,
            .particle = p.id,
            .detail = "delivery without a matching in-flight copy"});
    }
    s.in_flight -= 1;
    s.holders[to] += 1;
    // live_copies_ unchanged: one wire copy became one resident copy.
    if (!config_.fault_mode && !s.done &&
        s.in_flight + static_cast<int>(s.holders.size()) != 1) {
      fail({.kind = ViolationKind::kConservation,
            .rank = to,
            .when = now,
            .particle = p.id,
            .detail = "particle resident in more than one place"});
    }
  }
}

void InvariantChecker::on_terminated(int rank, const Particle& p,
                                     bool first_time, double now) {
  MutexLock lock(mutex_);
  take_from_holder(rank, p, now, ViolationKind::kPhantomTermination);
  ParticleState& s = particles_[p.id];
  if (first_time) {
    if (s.done) {
      fail({.kind = ViolationKind::kDuplicateTermination,
            .rank = rank,
            .when = now,
            .particle = p.id,
            .detail = "first-time credit for an already-done streamline"});
    }
    s.done = true;
    ++done_count_;
    ++queries_[s.query].done;
  } else {
    if (!config_.fault_mode) {
      fail({.kind = ViolationKind::kDuplicateTermination,
            .rank = rank,
            .when = now,
            .particle = p.id,
            .detail = "duplicate termination outside fault mode"});
    }
    if (!s.done) {
      fail({.kind = ViolationKind::kConservation,
            .rank = rank,
            .when = now,
            .particle = p.id,
            .detail = "ledger says duplicate but checker never saw the "
                      "first termination"});
    }
  }
}

// ---------------------------------------------------------------------------
// Query plane
// ---------------------------------------------------------------------------

void InvariantChecker::on_query_done(std::uint32_t query, double now) {
  MutexLock lock(mutex_);
  QueryAccount& q = queries_[query];
  if (q.fired) {
    fail({.kind = ViolationKind::kQueryDoneDouble,
          .rank = -1,
          .when = now,
          .detail = "query " + std::to_string(query) +
                    " fired query-done twice"});
  }
  if (q.done < q.seeded) {
    fail({.kind = ViolationKind::kQueryDonePremature,
          .rank = -1,
          .when = now,
          .detail = "query " + std::to_string(query) + " fired with " +
                    std::to_string(q.seeded - q.done) +
                    " streamlines undone"});
  }
  q.fired = true;
}

// ---------------------------------------------------------------------------
// Fault plane
// ---------------------------------------------------------------------------

void InvariantChecker::on_crash(int rank, double now) {
  (void)now;
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  ranks_[static_cast<std::size_t>(rank)].crashed = true;
  // The rank's resident replicas die with it; they stay reachable through
  // the ledger until a recovery re-owns them.
  for (auto& [id, s] : particles_) {
    auto it = s.holders.find(rank);
    if (it == s.holders.end()) continue;
    s.recoverable += it->second;
    live_copies_ -= static_cast<std::size_t>(it->second);
    s.holders.erase(it);
  }
  // Its cache contents are gone too, and its prefetch obligations die
  // with it (an in-flight completion for a dead rank is discarded).
  ranks_[static_cast<std::size_t>(rank)].lru.clear();
  ranks_[static_cast<std::size_t>(rank)].pins.clear();
  ranks_[static_cast<std::size_t>(rank)].prefetches.clear();
}

void InvariantChecker::on_recover(int dead_rank, int new_owner,
                                  const std::vector<Particle>& particles,
                                  double now) {
  MutexLock lock(mutex_);
  for (const Particle& p : particles) {
    ParticleState& s = particles_[p.id];
    if (s.done) {
      fail({.kind = ViolationKind::kConservation,
            .rank = dead_rank,
            .when = now,
            .particle = p.id,
            .detail = "recovery re-activated a terminated streamline"});
    }
    if (s.recoverable > 0) s.recoverable -= 1;
    s.holders[new_owner] += 1;
    ++live_copies_;
  }
}

void InvariantChecker::on_speculate(int straggler, int speculator,
                                    const std::vector<Particle>& particles,
                                    double now) {
  MutexLock lock(mutex_);
  for (const Particle& p : particles) {
    ParticleState& s = particles_[p.id];
    if (s.done) {
      fail({.kind = ViolationKind::kConservation,
            .rank = speculator,
            .when = now,
            .particle = p.id,
            .detail = "speculation re-issued a terminated streamline"});
    }
    // The ledger transfers ownership at wire time, so a "straggler-owned"
    // entry may still be on the wire toward it — both are legal sources.
    if (s.holders.count(straggler) == 0 && s.in_flight == 0) {
      fail({.kind = ViolationKind::kConservation,
            .rank = speculator,
            .when = now,
            .particle = p.id,
            .detail = "speculation copied a streamline the straggler (rank " +
                      std::to_string(straggler) + ") does not hold"});
    }
    // The straggler keeps its copy and keeps racing; the speculator gets
    // an extra legal replica (fault-mode multi-residency), so its later
    // re-assign send is not a double-assign.
    s.holders[speculator] += 1;
    ++live_copies_;
  }
}

// ---------------------------------------------------------------------------
// Reliable control transport
// ---------------------------------------------------------------------------

void InvariantChecker::on_dedup_window(int from, int to,
                                       std::uint32_t low_water, double now) {
  MutexLock lock(mutex_);
  auto [it, inserted] = dedup_low_.try_emplace({from, to}, low_water);
  if (!inserted) {
    if (low_water < it->second) {
      fail({.kind = ViolationKind::kDedupRegression,
            .rank = to,
            .when = now,
            .detail = "control link " + std::to_string(from) + " -> " +
                      std::to_string(to) + " low-water moved back from " +
                      std::to_string(it->second) + " to " +
                      std::to_string(low_water)});
    }
    it->second = low_water;
  }
}

// ---------------------------------------------------------------------------
// Block-cache coherence
// ---------------------------------------------------------------------------

void InvariantChecker::replay_eviction_and_compare(
    int rank, RankState& rs, BlockId id, const std::vector<BlockId>& actual,
    double now, const char* what) {
  // Same policy as BlockCache::evict_to_capacity: walk from the LRU end
  // skipping pinned ids; stop when at capacity or only pins remain.
  auto victim = rs.lru.rbegin();
  while (rs.lru.size() > config_.cache_blocks && victim != rs.lru.rend()) {
    if (rs.pins.count(*victim) != 0) {
      ++victim;
      continue;
    }
    victim = std::make_reverse_iterator(rs.lru.erase(std::next(victim).base()));
  }

  if (actual.size() > config_.cache_blocks) {
    // Overflow is legal only while every modelled entry is pinned (the
    // all-pinned corner of BlockCache::insert); anything else means the
    // cache kept an evictable block past capacity.
    bool all_pinned = true;
    for (BlockId b : rs.lru) {
      if (rs.pins.count(b) == 0) {
        all_pinned = false;
        break;
      }
    }
    if (rs.lru.size() <= config_.cache_blocks || !all_pinned) {
      fail({.kind = ViolationKind::kCacheOverflow,
            .rank = rank,
            .when = now,
            .block = id,
            .detail = std::string(what) + ": resident " +
                      std::to_string(actual.size()) + " blocks, capacity " +
                      std::to_string(config_.cache_blocks)});
    }
  }
  for (const auto& [b, n] : rs.pins) {
    const bool modelled =
        std::find(rs.lru.begin(), rs.lru.end(), b) != rs.lru.end();
    const bool present =
        std::find(actual.begin(), actual.end(), b) != actual.end();
    if (modelled && !present) {
      fail({.kind = ViolationKind::kPinnedPurge,
            .rank = rank,
            .when = now,
            .block = b,
            .detail = std::string(what) + ": pinned block left the cache"});
    }
  }
  if (!std::equal(rs.lru.begin(), rs.lru.end(), actual.begin(),
                  actual.end())) {
    std::ostringstream os;
    os << what << ": cache residency diverged from the LRU ledger (ledger:";
    for (BlockId b : rs.lru) os << ' ' << b;
    os << "; cache:";
    for (BlockId b : actual) os << ' ' << b;
    os << ")";
    fail({.kind = ViolationKind::kCacheMismatch,
          .rank = rank,
          .when = now,
          .detail = os.str()});
  }
}

void InvariantChecker::on_block_insert(int rank, BlockId id,
                                       const std::vector<BlockId>& actual,
                                       double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks || config_.cache_blocks == 0) {
    return;
  }
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  auto it = std::find(rs.lru.begin(), rs.lru.end(), id);
  if (it != rs.lru.end()) {
    rs.lru.splice(rs.lru.begin(), rs.lru, it);  // re-insert touches
  } else {
    rs.lru.push_front(id);
  }
  replay_eviction_and_compare(rank, rs, id, actual, now, "insert");
}

void InvariantChecker::on_block_touch(int rank, BlockId id) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  std::list<BlockId>& lru = ranks_[static_cast<std::size_t>(rank)].lru;
  auto it = std::find(lru.begin(), lru.end(), id);
  if (it != lru.end()) lru.splice(lru.begin(), lru, it);
}

void InvariantChecker::on_block_pin(int rank, BlockId id) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks || config_.cache_blocks == 0) {
    return;
  }
  ++ranks_[static_cast<std::size_t>(rank)].pins[id];
}

void InvariantChecker::on_block_unpin(int rank, BlockId id,
                                      const std::vector<BlockId>& actual,
                                      double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks || config_.cache_blocks == 0) {
    return;
  }
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  auto it = rs.pins.find(id);
  if (it == rs.pins.end()) {
    fail({.kind = ViolationKind::kCacheMismatch,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "unpin without a matching pin"});
  }
  if (--it->second == 0) rs.pins.erase(it);
  // The unpin may run the cache's deferred eviction; replay it.
  replay_eviction_and_compare(rank, rs, id, actual, now, "unpin");
}

// ---------------------------------------------------------------------------
// Async prefetch state machine
// ---------------------------------------------------------------------------

void InvariantChecker::on_prefetch_issued(int rank, BlockId id, double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.prefetches.count(id) != 0) {
    fail({.kind = ViolationKind::kPrefetchState,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "prefetch issued while one is already outstanding"});
  }
  if (std::find(rs.lru.begin(), rs.lru.end(), id) != rs.lru.end()) {
    fail({.kind = ViolationKind::kPrefetchState,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "prefetch issued for an already-resident block"});
  }
  rs.prefetches[id] = 'i';
}

void InvariantChecker::on_prefetch_staged(int rank, BlockId id, double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  auto it = rs.prefetches.find(id);
  if (it == rs.prefetches.end() || it->second != 'i') {
    fail({.kind = ViolationKind::kPrefetchState,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "staged a prefetch that was not in flight"});
  }
  it->second = 's';
}

void InvariantChecker::on_prefetch_claimed(int rank, BlockId id, double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.prefetches.erase(id) == 0) {
    fail({.kind = ViolationKind::kPrefetchState,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "claimed a prefetch that was never issued"});
  }
}

void InvariantChecker::on_prefetch_cancelled(int rank, BlockId id,
                                             double now) {
  MutexLock lock(mutex_);
  if (rank < 0 || rank >= config_.num_ranks) return;
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.prefetches.erase(id) == 0) {
    fail({.kind = ViolationKind::kPrefetchState,
          .rank = rank,
          .when = now,
          .block = id,
          .detail = "cancelled a prefetch that was never issued"});
  }
}

// ---------------------------------------------------------------------------
// Protocol legality
// ---------------------------------------------------------------------------

void InvariantChecker::note_finish_broadcast(int from, int to, double now) {
  (void)from;
  if (config_.protocol == CheckedProtocol::kNone) return;
  if (to < 0 || to >= config_.num_ranks) return;
  RankState& r = ranks_[static_cast<std::size_t>(to)];
  if (r.finish_sent && !config_.fault_mode) {
    fail({.kind = ViolationKind::kDoubleTermination,
          .rank = to,
          .when = now,
          .detail = "terminate broadcast sent twice to this rank"});
  }
  r.finish_sent = true;
  // Single-fire AND only at global completion: the checker's own done
  // count must already equal the seeded count.
  if (done_count_ != particles_.size()) {
    fail({.kind = ViolationKind::kPrematureTermination,
          .rank = to,
          .when = now,
          .detail = "terminate broadcast with " +
                    std::to_string(particles_.size() - done_count_) +
                    " streamlines undone"});
  }
}

int InvariantChecker::acting_counter() const {
  const int nm =
      config_.protocol == CheckedProtocol::kHybrid ? config_.num_masters : 0;
  for (int r = 0; r < nm; ++r) {
    if (!ranks_[static_cast<std::size_t>(r)].crashed) return r;
  }
  for (int r = nm; r < config_.num_ranks; ++r) {
    if (!ranks_[static_cast<std::size_t>(r)].crashed) return r;
  }
  return 0;
}

void InvariantChecker::check_protocol(int from, int to, const Message& msg,
                                      double now) {
  const auto illegal = [&](const char* why) {
    fail({.kind = ViolationKind::kIllegalMessage,
          .rank = from,
          .when = now,
          .detail = std::string(payload_name(msg)) + " " +
                    std::to_string(from) + " -> " + std::to_string(to) +
                    ": " + why});
  };

  // Undeliverable frames and control acks are minted by the runtime's
  // reliable-transport model, never by a program.
  if (std::holds_alternative<Undeliverable>(msg.payload)) {
    illegal("only the runtime may emit Undeliverable bounces");
  }
  if (std::holds_alternative<ControlAck>(msg.payload)) {
    illegal("only the runtime transport may emit control acks");
  }

  switch (config_.protocol) {
    case CheckedProtocol::kNone:
      return;

    case CheckedProtocol::kLoadOnDemand:
      // §4.2: pure data parallelism — ranks never communicate.  Even
      // under fault injection the recovery hand-off bypasses the send
      // plane, so any program-issued message is a bug.
      illegal("load-on-demand ranks never send messages");
      return;

    case CheckedProtocol::kStaticAllocation: {
      if (const auto* b = std::get_if<ParticleBatch>(&msg.payload)) {
        // §4.1 routing: hand-offs go to the block's static owner.  Under
        // fault injection ownership is redirected past dead ranks, so
        // the exact-owner check only binds in fault-free runs.
        if (!config_.fault_mode && b->block != kInvalidBlock &&
            config_.num_blocks > 0) {
          const int owner =
              contiguous_owner(config_.num_blocks, config_.num_ranks,
                               b->block);
          if (owner != to) illegal("batch routed to a non-owner rank");
        }
        return;
      }
      if (std::holds_alternative<TerminationCount>(msg.payload)) {
        // §4.1 aggregates on rank 0; under fault injection the counter
        // role migrates to the lowest live rank (§11).
        const int counter = config_.fault_mode ? acting_counter() : 0;
        if (to != counter) {
          illegal("termination counts aggregate on the acting counter");
        }
        return;
      }
      if (std::holds_alternative<DoneSignal>(msg.payload)) {
        const int counter = config_.fault_mode ? acting_counter() : 0;
        if (from != counter) {
          illegal("only the acting counter broadcasts the done signal");
        }
        return;
      }
      illegal("payload kind is not part of the static-allocation protocol");
      return;
    }

    case CheckedProtocol::kHybrid: {
      const int nm = config_.num_masters;
      const int nroots = config_.num_roots;
      const auto is_master = [nm](int r) { return r >= 0 && r < nm; };
      const auto is_root = [nroots](int r) { return r >= 0 && r < nroots; };
      // Mirrors of HybridLayout's balanced contiguous splits (slaves over
      // leaf masters, leaf masters over roots).
      const auto master_of = [this, nm, nroots](int slave) {
        const std::int64_t ns = config_.num_ranks - nm;
        const std::int64_t s = slave - nm;
        return nroots + static_cast<int>(((s + 1) * (nm - nroots) - 1) / ns);
      };
      const auto root_of = [nm, nroots](int leaf) {
        const std::int64_t nl = nm - nroots;
        const std::int64_t l = leaf - nroots;
        return static_cast<int>(((l + 1) * nroots - 1) / nl);
      };
      // Fault mode admits the §11 failover edges: an orphaned slave may
      // report to any acting coordinator, a promoted slave (the acting
      // counter once every master is dead) issues commands and beacons,
      // and board publishes follow the migrating counter.
      if (std::holds_alternative<StatusUpdate>(msg.payload)) {
        if (is_master(from)) illegal("masters do not send status updates");
        if (!config_.fault_mode && to != master_of(from)) {
          illegal("status update addressed to a foreign master");
        }
        return;
      }
      if (std::holds_alternative<Command>(msg.payload)) {
        if (!is_master(from) &&
            !(config_.fault_mode && from == acting_counter())) {
          illegal("only masters (or the promoted successor) issue commands");
        }
        if (is_master(to)) illegal("commands go to slaves");
        if (!config_.fault_mode && master_of(to) != from) {
          illegal("command addressed to another master's slave");
        }
        return;
      }
      if (std::holds_alternative<ParticleBatch>(msg.payload)) {
        // Send_force / Send_hint shipments travel slave-to-slave.
        if (is_master(from) || is_master(to)) {
          illegal("particle batches travel between slaves");
        }
        return;
      }
      if (std::holds_alternative<TerminationCount>(msg.payload)) {
        const int counter = config_.fault_mode ? acting_counter() : 0;
        bool ok = is_master(from);
        if (ok && nroots > 0 && !is_root(from)) {
          // Tree reduction: leaf boards climb to the leaf's parent root;
          // a dead parent re-routes them to the acting counter.
          ok = to == root_of(from) || (config_.fault_mode && to == counter);
        } else if (ok) {
          ok = to == counter;
        }
        if (!ok) {
          illegal("termination counts flow up the master tree to the "
                  "acting counter");
        }
        return;
      }
      if (std::holds_alternative<DoneSignal>(msg.payload)) {
        const int counter = config_.fault_mode ? acting_counter() : 0;
        if (from != counter || !is_master(to)) {
          illegal("done signal flows acting counter -> masters");
        }
        return;
      }
      if (std::holds_alternative<SeedRequest>(msg.payload) ||
          std::holds_alternative<SeedTransfer>(msg.payload)) {
        if (!is_master(from) || !is_master(to)) {
          illegal("seed balancing is master-to-master traffic");
        }
        return;
      }
      if (std::holds_alternative<SeedRelay>(msg.payload)) {
        // Only a root brokers: relays go to a child leaf or (escalated
        // once) to a peer root; the donation returns as a SeedTransfer.
        if (nroots == 0) {
          illegal("seed relays only exist in tree layouts");
        }
        if (!is_root(from) || !is_master(to)) {
          illegal("seed relays flow root -> master");
        }
        return;
      }
      if (std::holds_alternative<MasterBeacon>(msg.payload)) {
        if (!config_.fault_mode) {
          illegal("beacons only exist under fault injection");
        }
        if (!(is_master(from) || from == acting_counter()) ||
            is_master(to)) {
          illegal("beacons flow acting coordinator -> slave");
        }
        return;
      }
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Audit
// ---------------------------------------------------------------------------

void InvariantChecker::audit_locked(double now) const {
  for (const auto& [id, s] : particles_) {
    int holders = s.in_flight;
    for (const auto& [rank, n] : s.holders) holders += n;
    if (s.done) continue;
    if (config_.fault_mode) {
      if (holders + s.recoverable < 1) {
        fail({.kind = ViolationKind::kConservation,
              .rank = -1,
              .when = now,
              .particle = id,
              .detail = "undone streamline with no live or recoverable "
                        "copy"});
      }
    } else if (holders != 1) {
      fail({.kind = ViolationKind::kConservation,
            .rank = -1,
            .when = now,
            .particle = id,
            .detail = "undone streamline held " + std::to_string(holders) +
                      " times (want exactly 1)"});
    }
  }
  // Per-query conservation: the done count can never exceed the seeded
  // count, and a query that fired query-done must stay fully drained.
  for (const auto& [query, q] : queries_) {
    if (q.done > q.seeded || (q.fired && q.done != q.seeded)) {
      fail({.kind = ViolationKind::kConservation,
            .rank = -1,
            .when = now,
            .detail = "query " + std::to_string(query) + " accounts " +
                      std::to_string(q.done) + " done of " +
                      std::to_string(q.seeded) + " seeded (fired: " +
                      (q.fired ? "yes" : "no") + ")"});
    }
  }
}

void InvariantChecker::audit(double now) const {
  MutexLock lock(mutex_);
  audit_locked(now);
}

std::size_t InvariantChecker::seeded() const {
  MutexLock lock(mutex_);
  return particles_.size();
}

std::size_t InvariantChecker::done() const {
  MutexLock lock(mutex_);
  return done_count_;
}

std::unique_ptr<InvariantChecker> make_invariant_checker(
    const CheckerConfig& config) {
#if SF_CHECK_INVARIANTS
  return std::make_unique<InvariantChecker>(config);
#else
  (void)config;
  return nullptr;
#endif
}

}  // namespace sf
