#include "io/async_loader.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace sf {

namespace {

void erase_from(std::deque<BlockId>& q, BlockId id) {
  q.erase(std::remove(q.begin(), q.end(), id), q.end());
}

}  // namespace

AsyncBlockLoader::AsyncBlockLoader(const BlockSource* source, int workers)
    : source_(source) {
  const int n = std::max(1, workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

AsyncBlockLoader::~AsyncBlockLoader() {
  // Cancel every still-queued request; entries being read resolve
  // normally before their worker exits.
  {
    MutexLock lock(mu_);
    stop_ = true;
    for (std::deque<BlockId>* q : {&demand_q_, &prefetch_q_}) {
      for (const BlockId id : *q) settle(id, nullptr, nullptr);
      q->clear();
    }
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::shared_future<GridPtr> AsyncBlockLoader::request(BlockId id,
                                                      bool demand) {
  std::shared_future<GridPtr> fut;
  {
    MutexLock lock(mu_);
    if (stop_) {
      throw std::logic_error("AsyncBlockLoader: request after shutdown");
    }
    auto [it, inserted] = entries_.try_emplace(id);
    Entry& e = it->second;
    if (!inserted) {
      if (demand && !e.demand) {
        // Promote a queued prefetch: a particle faulted on it for real.
        e.demand = true;
        if (!e.loading) {
          erase_from(prefetch_q_, id);
          demand_q_.push_back(id);
        }
      }
      return e.future;
    }
    e.demand = demand;
    e.future = e.promise.get_future().share();
    (demand ? demand_q_ : prefetch_q_).push_back(id);
    fut = e.future;
  }
  cv_.notify_one();
  return fut;
}

bool AsyncBlockLoader::cancel(BlockId id) {
  MutexLock lock(mu_);
  auto it = entries_.find(id);
  if (it == entries_.end() || it->second.loading) return false;
  erase_from(it->second.demand ? demand_q_ : prefetch_q_, id);
  settle(id, nullptr, nullptr);
  return true;
}

bool AsyncBlockLoader::pop_next(BlockId& id) {
  while (!stop_ && demand_q_.empty() && prefetch_q_.empty()) {
    cv_.wait(mu_);
  }
  if (demand_q_.empty() && prefetch_q_.empty()) return false;  // stopping
  auto& q = demand_q_.empty() ? prefetch_q_ : demand_q_;
  id = q.front();
  q.pop_front();
  return true;
}

void AsyncBlockLoader::settle(BlockId id, GridPtr grid,
                              std::exception_ptr error) {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  if (error != nullptr) {
    it->second.promise.set_exception(error);
  } else {
    it->second.promise.set_value(std::move(grid));
  }
  entries_.erase(it);
}

void AsyncBlockLoader::worker_main() {
  for (;;) {
    BlockId id = kInvalidBlock;
    {
      MutexLock lock(mu_);
      if (!pop_next(id)) return;
      auto eit = entries_.find(id);
      assert(eit != entries_.end());
      eit->second.loading = true;
    }

    // The read itself runs unlocked: other workers keep draining the
    // queues and ranks keep submitting while this block is on the disk —
    // and the checksum verification inside BlockSource::load runs here
    // too, off the compute hot path.
    GridPtr grid;
    std::exception_ptr error;
    try {
      grid = source_->load(id);
    } catch (...) {
      error = std::current_exception();
    }

    MutexLock lock(mu_);
    settle(id, std::move(grid), error);
  }
}

}  // namespace sf
