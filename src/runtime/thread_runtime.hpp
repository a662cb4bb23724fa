#pragma once

// Real-thread runtime: runs the same RankPrograms as SimRuntime, but with
// one OS thread per rank, real mailboxes and real block I/O.  The
// per-rank state is RankHost's and the config RuntimeConfig
// (runtime/rank_host.hpp), as on SimRuntime.
//
// This demonstrates that the algorithms are not simulator-bound — the
// identical state machines execute end to end on actual threads and
// disks — and it is the execution engine a downstream user would run on a
// real multi-core node.  Timing metrics are measured wall-clock seconds;
// for scaling *studies* use SimRuntime, which models a large machine.
//
// With async I/O on, one shared AsyncBlockLoader serves every rank's
// prefetch hints (reads of one block coalesce across ranks); completions
// are polled from each rank thread's event loop, so all cache mutation
// stays on the owning thread.

#include <atomic>
#include <exception>
#include <memory>

#include "core/dataset.hpp"
#include "core/thread_annotations.hpp"
#include "core/tracer.hpp"
#include "io/async_loader.hpp"
#include "runtime/metrics.hpp"
#include "runtime/rank_host.hpp"

namespace sf {

class ThreadRuntime {
 public:
  // Real threads have no deterministic mid-run instant: cancels apply at
  // run start, and one whose `at` is above 0 throws std::invalid_argument.
  ThreadRuntime(const RuntimeConfig& config, const BlockDecomposition* decomp,
                const BlockSource* source, const IntegratorParams& iparams,
                const TraceLimits& limits);

  RunMetrics run(const ProgramFactory& factory);

 private:
  class Context;

  Context& context(int rank);
  // First exception a rank thread died on; rethrown from run().
  void note_failure(std::exception_ptr error) SF_EXCLUDES(failure_mutex_);

  RuntimeConfig config_;
  // Shared read-only by every rank thread during run(); the embedded
  // QueryCancelSet is the only mutable member and locks internally.
  Tracer tracer_;
  QueryCancelSet cancel_set_;
  // The run's Contexts (one per rank), its invariant checker (which
  // serializes internally, so all rank threads share it) and its
  // per-query completion board.
  RankHosts hosts_;
  // Live only inside run(), and only when config_.async_io.enabled.
  std::unique_ptr<AsyncBlockLoader> loader_;
  Mutex failure_mutex_{LockRank::kFailureBoard};
  std::exception_ptr failure_ SF_GUARDED_BY(failure_mutex_);
  // Written by run() on the main thread strictly before the rank
  // threads launch and after they join; rank threads only load/store
  // through the pointee atomic.
  std::atomic<bool>* abort_flag_ = nullptr;
};

}  // namespace sf
