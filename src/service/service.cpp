#include "service/service.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace sf {

const char* to_string(QueryState s) {
  switch (s) {
    case QueryState::kQueued: return "queued";
    case QueryState::kRunning: return "running";
    case QueryState::kDone: return "done";
    case QueryState::kCancelled: return "cancelled";
    case QueryState::kRejected: return "rejected";
  }
  return "unknown";
}

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kDepth: return "depth";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kMalformed: return "malformed";
  }
  return "unknown";
}

namespace {

// Nearest-rank percentile over an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  rank = std::min(std::max<std::size_t>(rank, 1), v.size());
  return v[rank - 1];
}

}  // namespace

StreamlineService::StreamlineService(const ServiceConfig& config,
                                     const BlockDecomposition* decomp,
                                     const BlockSource* source)
    : config_(config),
      decomp_(decomp),
      source_(source),
      queue_(config.max_queue_depth) {
  if (!config_.base.restart_from.empty()) {
    throw std::invalid_argument(
        "service: base.restart_from must be empty (checkpoint restart is "
        "a standalone-driver feature)");
  }
  if (!config_.base.seed_queries.empty()) {
    throw std::invalid_argument(
        "service: base.seed_queries is owned by the service");
  }
  if (!config_.base.runtime.cancels.empty() ||
      config_.base.runtime.shared_blocks != nullptr) {
    throw std::invalid_argument(
        "service: base.runtime cancels/shared_blocks are owned by the "
        "service");
  }
  if (config_.max_queries_per_epoch == 0) {
    throw std::invalid_argument("service: max_queries_per_epoch must be > 0");
  }
}

QueryId StreamlineService::submit(std::vector<Vec3> seeds, double deadline) {
  return submit_at(std::move(seeds), clock_, deadline);
}

QueryId StreamlineService::submit_at(std::vector<Vec3> seeds, double at,
                                     double deadline) {
  if (at < clock_) {
    throw std::invalid_argument("service: submission in the past");
  }
  if (deadline <= 0.0) deadline = config_.default_deadline;
  const QueryId id = next_id_++;
  QueryRecord rec;
  rec.query = id;
  rec.num_seeds = seeds.size();
  rec.submit_time = at;
  rec.deadline = deadline;
  if (seeds.empty() || seeds.size() > config_.max_seeds_per_query) {
    // Malformed submissions never enter the queue.
    rec.state = QueryState::kRejected;
    rec.reject_reason = RejectReason::kMalformed;
    records_.push_back(std::move(rec));
    return id;
  }
  records_.push_back(std::move(rec));
  pending_.push_back(StreamlineQuery{id, std::move(seeds), at, deadline});
  return id;
}

bool StreamlineService::cancel(QueryId id) { return cancel_at(id, clock_); }

bool StreamlineService::cancel_at(QueryId id, double at) {
  if (at < clock_) {
    throw std::invalid_argument("service: cancellation in the past");
  }
  if (id == 0 || id >= next_id_) return false;
  const QueryRecord& rec = record(id);
  if (rec.state == QueryState::kDone || rec.state == QueryState::kCancelled ||
      rec.state == QueryState::kRejected) {
    return false;
  }
  cancels_.push_back(PendingCancel{id, at});
  return true;
}

const QueryRecord& StreamlineService::record(QueryId id) const {
  if (id == 0 || id > records_.size()) {
    throw std::out_of_range("service: unknown query " + std::to_string(id));
  }
  return records_[id - 1];
}

QueryRecord& StreamlineService::record_mut(QueryId id) {
  return const_cast<QueryRecord&>(record(id));
}

void StreamlineService::ingest_arrivals() {
  // Deterministic arrival order: by instant, ties by QueryId.
  std::sort(pending_.begin(), pending_.end(),
            [](const StreamlineQuery& a, const StreamlineQuery& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival
                                            : a.id < b.id;
            });
  std::size_t taken = 0;
  for (; taken < pending_.size() && pending_[taken].arrival <= clock_;
       ++taken) {
    StreamlineQuery& q = pending_[taken];
    const QueryId id = q.id;
    if (!queue_.submit(std::move(q))) {
      // Admission control: the queue is full at arrival time.
      QueryRecord& rec = record_mut(id);
      rec.state = QueryState::kRejected;
      rec.reject_reason = RejectReason::kDepth;
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(taken));
}

void StreamlineService::apply_queued_cancels() {
  for (auto it = cancels_.begin(); it != cancels_.end();) {
    QueryRecord& rec = record_mut(it->query);
    const bool finished = rec.state == QueryState::kDone ||
                          rec.state == QueryState::kCancelled ||
                          rec.state == QueryState::kRejected;
    if (finished) {
      it = cancels_.erase(it);  // stale: the query already left the system
    } else if (it->at <= clock_ && rec.state == QueryState::kQueued &&
               queue_.cancel(it->query)) {
      rec.state = QueryState::kCancelled;
      rec.cancel_time = it->at;
      it = cancels_.erase(it);
    } else {
      ++it;
    }
  }
}

void StreamlineService::shed_expired() {
  for (QueryRecord& rec : records_) {
    if (rec.state != QueryState::kQueued || rec.deadline <= 0.0) continue;
    if (clock_ < rec.submit_time + rec.deadline) continue;
    // Only queries actually sitting in the admission queue are shed;
    // future arrivals (still in pending_) have not started waiting.
    if (!queue_.cancel(rec.query)) continue;
    rec.state = QueryState::kRejected;
    rec.reject_reason = RejectReason::kDeadline;
    rec.cancel_time = rec.submit_time + rec.deadline;
  }
}

RunMetrics StreamlineService::run_epoch(
    const std::vector<StreamlineQuery>& batch) {
  const double epoch_start = clock_;
  ExperimentConfig cfg = config_.base;
  cfg.runtime.shared_blocks = config_.share_cache ? &pool_ : nullptr;

  // Merge the batch into one query-tagged seed set.  Particle ids are the
  // merged seed indices, so each query owns the contiguous id range
  // [offset, offset + num_seeds); demux subtracts the offset back out.
  std::vector<Vec3> seeds;
  std::map<QueryId, std::uint32_t> offset;
  for (const StreamlineQuery& q : batch) {
    offset[q.id] = static_cast<std::uint32_t>(seeds.size());
    seeds.insert(seeds.end(), q.seeds.begin(), q.seeds.end());
    cfg.seed_queries.resize(seeds.size(), q.id);
    QueryRecord& rec = record_mut(q.id);
    rec.state = QueryState::kRunning;
    rec.admit_time = epoch_start;
  }

  // Route pending cancels aimed at this batch into the runtime.  Due
  // cancels were consumed while the query was still queued, so whatever
  // remains is strictly in this epoch's future: the simulated runtime
  // fires it mid-flight at the exact instant; the thread runtime cannot
  // (no deterministic mid-run instant), so the cancel waits and goes
  // stale when the query completes first — the documented granularity
  // difference (DESIGN.md §12).
  for (auto it = cancels_.begin(); it != cancels_.end();) {
    if (offset.count(it->query) == 0 || config_.use_thread_runtime) {
      ++it;
      continue;
    }
    cfg.runtime.cancels.push_back(
        QueryCancelAt{it->query, std::max(0.0, it->at - epoch_start)});
    record_mut(it->query).cancel_time = std::max(it->at, epoch_start);
    it = cancels_.erase(it);
  }

  // Deadline expiry drives the same graceful-cancellation path: a query
  // admitted with budget left gets a timed cancel at its exact expiry
  // instant (simulated runtime; the thread runtime's deadline bite is at
  // admission only — DESIGN.md §16).
  if (!config_.use_thread_runtime) {
    for (const StreamlineQuery& q : batch) {
      const QueryRecord& rec = record(q.id);
      if (rec.deadline <= 0.0 || rec.cancel_time >= 0.0) continue;
      cfg.runtime.cancels.push_back(QueryCancelAt{
          q.id,
          std::max(0.0, rec.submit_time + rec.deadline - epoch_start)});
    }
  }

  RunMetrics m = config_.use_thread_runtime
                     ? run_experiment_threads(cfg, *decomp_, *source_, seeds)
                     : run_experiment(cfg, *decomp_, *source_, seeds);
  if (m.failed_oom || m.failed_fault) {
    throw std::runtime_error(
        "service: epoch failed: " +
        (m.abort_reason.empty() ? std::string("unrecovered failure")
                                : m.abort_reason));
  }

  // Demux results per query, renumbering ids to the query's own seed
  // indices.  The runtime sorts particles by id, so per-query order is
  // already a standalone run's order.
  for (const Particle& p : m.particles) {
    const auto it = offset.find(p.query);
    if (it == offset.end()) {
      throw std::runtime_error(
          "service: epoch produced a particle of an unadmitted query " +
          std::to_string(p.query));
    }
    Particle local = p;
    local.id -= it->second;
    record_mut(p.query).particles.push_back(local);
  }

  // Completion times from the runtime's per-query accounting.  A query
  // whose seeds were all rejected at admission (outside the domain)
  // never seeds an active particle and completes at epoch start.
  std::map<QueryId, double> done_at;
  for (const QueryCompletion& c : m.query_completions) {
    done_at[c.query] = epoch_start + c.done_time;
  }
  for (const StreamlineQuery& q : batch) {
    QueryRecord& rec = record_mut(q.id);
    const auto it = done_at.find(q.id);
    if (it != done_at.end()) {
      rec.done_time = it->second;
    } else if (rec.particles.size() == rec.num_seeds) {
      rec.done_time = epoch_start;
    } else {
      throw std::runtime_error("service: query " + std::to_string(q.id) +
                               " never completed its epoch");
    }
    const bool any_cancelled = std::any_of(
        rec.particles.begin(), rec.particles.end(), [](const Particle& p) {
          return p.status == ParticleStatus::kCancelled;
        });
    rec.state = any_cancelled ? QueryState::kCancelled : QueryState::kDone;
    if (any_cancelled && rec.cancel_time < 0.0) {
      // No client cancel was routed: the cancellation was deadline expiry.
      rec.deadline_expired = true;
      rec.cancel_time = rec.submit_time + rec.deadline;
    }
  }
  return m;
}

void StreamlineService::run_until_idle() {
  for (;;) {
    ingest_arrivals();
    apply_queued_cancels();
    shed_expired();
    if (queue_.empty()) {
      if (pending_.empty()) break;
      // Idle: jump the service clock to the next arrival.
      double next = pending_.front().arrival;
      for (const StreamlineQuery& q : pending_) {
        next = std::min(next, q.arrival);
      }
      clock_ = std::max(clock_, next);
      continue;
    }
    const std::vector<StreamlineQuery> batch =
        queue_.admit(config_.max_queries_per_epoch);
    const RunMetrics m = run_epoch(batch);
    cumulative_.accumulate(m);
    ++epochs_;
    clock_ += m.wall_clock;
  }
}

ServiceReport StreamlineService::report() const {
  ServiceReport r;
  r.submitted = records_.size();
  r.epochs = epochs_;
  r.makespan = clock_;
  std::vector<double> waits;
  std::vector<double> latencies;
  for (const QueryRecord& rec : records_) {
    switch (rec.state) {
      case QueryState::kDone: ++r.completed; break;
      case QueryState::kCancelled:
        ++r.cancelled;
        if (rec.deadline_expired) ++r.deadline_cancelled;
        break;
      case QueryState::kRejected:
        ++r.rejected;
        switch (rec.reject_reason) {
          case RejectReason::kDepth: ++r.rejected_depth; break;
          case RejectReason::kDeadline: ++r.rejected_deadline; break;
          case RejectReason::kMalformed: ++r.rejected_malformed; break;
          case RejectReason::kNone: break;
        }
        break;
      default: break;
    }
    if (rec.admit_time >= 0.0 || rec.cancel_time >= 0.0) {
      waits.push_back(rec.queue_wait());
    }
    if (rec.state == QueryState::kDone) latencies.push_back(rec.latency());
  }
  r.p50_queue_wait = percentile(waits, 0.50);
  r.p99_queue_wait = percentile(waits, 0.99);
  r.p50_latency = percentile(latencies, 0.50);
  r.p99_latency = percentile(latencies, 0.99);
  r.cache_hit_rate = cumulative_.cache_hit_rate();
  for (const RankMetrics& rm : cumulative_.ranks) {
    r.blocks_adopted += rm.blocks_adopted;
    r.blocks_loaded += rm.blocks_loaded;
  }
  return r;
}

}  // namespace sf
