#pragma once

// Asynchronous block loader: a small worker pool that services block
// reads in the background so the compute path can overlap integration
// with I/O (DESIGN.md §10).
//
// The loader sits between a rank's demand/prefetch logic and the
// blocking BlockSource::load.  Concurrent requests for the same block
// coalesce onto one read; demand requests jump the queue ahead of
// prefetches; queued requests can be cancelled before a worker picks
// them up.  Completions are delivered through a shared_future.
//
// Locking: one mutex (mu_, LockRank::kLoader) guards the queues and the
// entry map.  A finished entry's promise is resolved and the entry
// erased in one step under the lock (settle); resolving a promise runs
// no caller code, so nothing re-enters the loader with mu_ held.  The
// read itself runs with mu_ released.
//
// Faults: each request gets exactly one BlockSource::load attempt.  A
// failed read surfaces through the future as the load's exception; the
// rank decides what to do with it (a failed prefetch is discarded and
// re-read synchronously by ThreadRuntime).

#include <deque>
#include <exception>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "core/thread_annotations.hpp"

namespace sf {

// Shared async-I/O knobs.  Both runtimes embed one of these in their
// config; `enabled == false` (the default) keeps the synchronous
// behaviour bit-identical to the pre-async code.
struct AsyncIoConfig {
  bool enabled = false;
  int workers = 2;              // loader threads (ThreadRuntime only)
  std::size_t staging_blocks = 4;  // staged prefetched grids per rank
  int prefetch_depth = 2;       // in-flight prefetches per rank
};

class AsyncBlockLoader {
 public:
  AsyncBlockLoader(const BlockSource* source, int workers);
  ~AsyncBlockLoader();  // cancels queued work, then joins the workers

  AsyncBlockLoader(const AsyncBlockLoader&) = delete;
  AsyncBlockLoader& operator=(const AsyncBlockLoader&) = delete;

  // Enqueue a read.  A request for a block already queued or loading
  // coalesces: the same future is returned.  `demand` requests are
  // serviced before prefetches and promote an already-queued prefetch to
  // the demand queue.  The future resolves to the grid, to nullptr if
  // cancelled, or rethrows the load error.
  std::shared_future<GridPtr> request(BlockId id, bool demand)
      SF_EXCLUDES(mu_);

  // Cancel a request that is still queued.  Returns true if it was
  // cancelled (its future resolves to nullptr); false if it already
  // started loading or was never requested.
  bool cancel(BlockId id) SF_EXCLUDES(mu_);

 private:
  struct Entry {
    bool loading = false;  // a worker is reading it (no longer cancellable)
    bool demand = false;
    std::promise<GridPtr> promise;
    std::shared_future<GridPtr> future;
  };

  void worker_main();
  // Blocks until there is a block to read (demand queue first).  Returns
  // false when stopping and both queues are empty.
  bool pop_next(BlockId& id) SF_REQUIRES(mu_);
  // Resolve the entry's future (to `error` if set, else to `grid`) and
  // take it out of the map.
  void settle(BlockId id, GridPtr grid, std::exception_ptr error)
      SF_REQUIRES(mu_);

  const BlockSource* source_;

  Mutex mu_{LockRank::kLoader};
  CondVar cv_;
  bool stop_ SF_GUARDED_BY(mu_) = false;
  std::deque<BlockId> demand_q_ SF_GUARDED_BY(mu_);
  std::deque<BlockId> prefetch_q_ SF_GUARDED_BY(mu_);
  std::map<BlockId, Entry> entries_ SF_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;  // written in the ctor only
};

}  // namespace sf
