#pragma once

// Streamline-as-a-service (DESIGN.md §12): a long-lived, multi-query
// runtime layered on the existing experiment driver.
//
// The service accepts a stream of independent streamline queries and
// multiplexes them onto the rank pool in admission epochs: each epoch
// merges the admitted queries' seeds into one query-tagged particle set
// and runs it through run_experiment (simulated ranks) or
// run_experiment_threads (real threads).  The service clock advances by
// each epoch's wall clock plus any idle gap to the next arrival, so a
// fully seeded submission schedule (e.g. PoissonArrivals) replays
// deterministically.
//
// Cross-query cache sharing: a SharedBlockPool carries each rank's
// resident blocks from epoch to epoch, so a query whose streamlines
// revisit another query's footprint hits warm cache instead of re-reading
// the dataset (adoptions are counted separately from loads; the cache
// audit stays exact).
//
// Equivalence gate: a single query through the service is bit-identical
// — trajectories and step counts — to a standalone Driver run of the
// same seeds, because an epoch with one cold query *is* that run.  With
// multiple queries per epoch, per-query results remain bit-identical to
// solo runs because Tracer::advance_batch treats every particle
// independently (DESIGN.md §5.1).

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "algorithms/driver.hpp"
#include "core/dataset.hpp"
#include "runtime/block_cache.hpp"
#include "runtime/metrics.hpp"
#include "service/query.hpp"
#include "service/query_queue.hpp"

namespace sf {

struct ServiceConfig {
  // The experiment every epoch runs: algorithm, machine, integrator,
  // limits, fault plane.  restart_from and seed_queries must be empty
  // (the service owns query tagging).
  ExperimentConfig base{};
  // Real threads instead of the simulated machine.  The thread runtime
  // has no fault plane and applies cancellations only at epoch
  // boundaries (timed mid-flight cancels are a SimRuntime feature).
  bool use_thread_runtime = false;
  // Admission control: how many queries one epoch may merge, how many
  // submissions may wait (beyond that, submissions are rejected), and
  // the largest per-query seed set accepted.
  std::size_t max_queries_per_epoch = 4;
  std::size_t max_queue_depth = 16;
  std::size_t max_seeds_per_query = 65536;
  // Carry each rank's resident blocks across epochs.  Off = every epoch
  // starts cold (the baseline bench/service_load compares against).
  bool share_cache = true;
  // Deadline applied to queries submitted without one (0 = none).  A
  // query's deadline is a service-clock latency budget from submission:
  // still queued past it -> shed at admission (rejected_deadline);
  // admitted in time -> the simulated runtime cancels its remaining
  // particles at the exact expiry instant (the thread runtime, which has
  // no deterministic mid-run instant, only sheds at admission — the same
  // granularity difference as user cancels, DESIGN.md §12).
  double default_deadline = 0.0;
};

// Aggregate latency/fairness metrics over a service lifetime
// (bench/service_load plots these).
struct ServiceReport {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t cancelled = 0;
  std::size_t rejected = 0;  // = rejected_depth + rejected_deadline +
                             //   rejected_malformed
  std::size_t rejected_depth = 0;     // queue full at arrival
  std::size_t rejected_deadline = 0;  // deadline expired while queued
  std::size_t rejected_malformed = 0;  // empty/oversized seed set
  std::size_t deadline_cancelled = 0;  // admitted, then expired mid-flight
  std::size_t epochs = 0;
  double makespan = 0.0;  // service clock at the end of run_until_idle
  double p50_queue_wait = 0.0;
  double p99_queue_wait = 0.0;
  double p50_latency = 0.0;
  double p99_latency = 0.0;
  double cache_hit_rate = 0.0;       // over all epochs' demands
  std::uint64_t blocks_adopted = 0;  // warm blocks inherited across epochs
  std::uint64_t blocks_loaded = 0;
};

class StreamlineService {
 public:
  StreamlineService(const ServiceConfig& config,
                    const BlockDecomposition* decomp,
                    const BlockSource* source);

  // Submit a query arriving at the current service clock (or at a given
  // future instant).  Returns its QueryId; inspect record(id).state for
  // kRejected (queue full or seed set oversized/empty) and
  // record(id).reject_reason for why.  QueryIds start at 1 — 0 is the
  // standalone-run tag.  `deadline` is the query's latency budget in
  // seconds from submission; 0 means "use ServiceConfig::default_deadline"
  // (which itself defaults to no deadline).
  QueryId submit(std::vector<Vec3> seeds, double deadline = 0.0);
  QueryId submit_at(std::vector<Vec3> seeds, double at,
                    double deadline = 0.0);

  // Cancel a query, now or at a future service-clock instant.  Queued:
  // removed before it ever runs.  Running (simulated runtime): its
  // remaining particles terminate as kCancelled at the given instant.
  // Returns false if the query is unknown or already finished.
  bool cancel(QueryId id);
  bool cancel_at(QueryId id, double at);

  // Drive admission epochs until every accepted query has finished.
  // Throws std::runtime_error if an epoch fails (OOM / unrecovered
  // fault) — queries must not vanish silently.
  void run_until_idle();

  double now() const { return clock_; }
  const QueryRecord& record(QueryId id) const;
  const std::vector<QueryRecord>& records() const { return records_; }
  // Per-epoch metrics accumulated without double-counting (satellite:
  // RunMetrics::accumulate/reset).
  const RunMetrics& cumulative() const { return cumulative_; }
  ServiceReport report() const;

 private:
  struct PendingCancel {
    QueryId query = 0;
    double at = 0.0;
  };

  QueryRecord& record_mut(QueryId id);
  // Move submissions with arrival <= now into the queue, enforcing
  // admission control.
  void ingest_arrivals();
  // Apply due cancels to still-queued queries.
  void apply_queued_cancels();
  // Deadline-aware admission: shed still-queued queries whose queue wait
  // has already exhausted their budget (rejected_deadline, distinct from
  // depth rejections).
  void shed_expired();
  // Run one admission epoch over `batch`; returns the epoch's metrics.
  RunMetrics run_epoch(const std::vector<StreamlineQuery>& batch);

  ServiceConfig config_;
  const BlockDecomposition* decomp_;
  const BlockSource* source_;
  QueryQueue queue_;
  SharedBlockPool pool_;
  double clock_ = 0.0;
  QueryId next_id_ = 1;
  std::vector<QueryRecord> records_;        // index = QueryId - 1
  std::vector<StreamlineQuery> pending_;    // future arrivals, by submit_at
  std::vector<PendingCancel> cancels_;
  RunMetrics cumulative_;
  std::size_t epochs_ = 0;
};

}  // namespace sf
