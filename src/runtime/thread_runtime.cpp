#include "runtime/thread_runtime.hpp"

#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/rng.hpp"
#include "core/thread_annotations.hpp"
#include "sim/sim_engine.hpp"

namespace sf {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

// The RankContext handed to one rank's program: RankHost's per-rank
// state on the rank's own thread, with real reads and a locked inbox.
class ThreadRuntime::Context final : public RankHost {
 public:
  Context(ThreadRuntime* runtime, int rank,
          std::chrono::steady_clock::time_point epoch,
          std::atomic<bool>* abort)
      : RankHost(&runtime->hosts_, rank),
        runtime_(runtime),
        epoch_(epoch),
        abort_(abort),
        fuzz_enabled_(runtime->config_.schedule_fuzz_seed != 0) {
    // Derive a distinct per-rank stream from the shared fuzz seed.
    std::uint64_t sm = runtime->config_.schedule_fuzz_seed +
                       0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                  rank + 1);
    fuzz_ = Rng(splitmix64(sm));
  }

  double now() const override { return seconds_since(epoch_); }

  void send(int to, Message msg) override {
    msg.from = rank();
    SF_INVARIANT_HOOK(checker(), on_send(rank(), to, msg, now()));
    maybe_perturb();
    const std::size_t bytes = message_bytes(msg, config().carry_geometry);
    const bool control = !std::holds_alternative<ParticleBatch>(msg.payload);
    const auto t0 = std::chrono::steady_clock::now();
    runtime_->context(to).deliver(std::move(msg));
    metrics.comm_time += seconds_since(t0);
    metrics.messages_sent += 1;
    metrics.bytes_sent += bytes;
    if (control) metrics.control_messages_sent += 1;
  }

  void request_block(BlockId id) override {
    switch (serve_demand(id)) {
      case Demand::kPending:
        return;
      case Demand::kServed:
        local_.push_back(id);
        return;
      case Demand::kMiss:
        break;
    }
    auto inflight = prefetch_inflight_.find(id);
    if (inflight != prefetch_inflight_.end()) {
      // Demand overtook an in-flight prefetch: promote it to the demand
      // queue and wait out the remaining read (a partial overlap still
      // beats a cold read).
      runtime_->loader_->request(id, /*demand=*/true);
      const auto t0 = std::chrono::steady_clock::now();
      GridPtr grid = arrived(id, inflight->second);
      prefetch_inflight_.erase(inflight);
      const double waited = seconds_since(t0);
      if (grid != nullptr) {
        claim_inflight(id, std::move(grid), waited);
        local_.push_back(id);
        return;
      }
      // The read was cancelled or failed while we waited; the hint is
      // dead — do the demand read synchronously like any other miss.
      charge_stall(waited);
      discard_prefetch(id);
    }
    pending_.insert(id);
    maybe_perturb();
    // Real synchronous read; completion is delivered through the local
    // event queue so the program still sees it asynchronously.
    const auto t0 = std::chrono::steady_clock::now();
    GridPtr grid = source().load(id);
    charge_stall(seconds_since(t0));
    count_read(id);
    land(id, std::move(grid));
    maybe_perturb();
    local_.push_back(id);
  }

  void prefetch_block(BlockId id) override {
    if (!admit_prefetch(id)) return;
    prefetch_inflight_[id] = runtime_->loader_->request(id, /*demand=*/false);
    maybe_perturb();
  }

  bool log_termination(const Particle& p) override {
    // No fault plane on the thread runtime yet: always a first-time credit.
    credit_termination(p, /*first=*/true);
    return true;
  }

  void begin_compute(double seconds, std::uint64_t steps) override {
    // The real work already happened inside the handler; record it and
    // queue the completion notification.
    metrics.compute_time += seconds;
    metrics.steps += steps;
    metrics.bursts += 1;
    local_.push_back(ComputeDone{});
  }

  bool busy() const override { return false; }

  // --- thread driver -------------------------------------------------------

  // Called from the sender's thread; must not touch this rank's Rng.
  void deliver(Message msg) SF_EXCLUDES(inbox_mutex_) {
    {
      MutexLock lock(inbox_mutex_);
      inbox_.push_back(std::move(msg));
    }
    inbox_ready_.notify_one();
  }

  // After the join: a message still in the inbox reached this rank, so
  // its bytes count, as SimRuntime counts a delivery to a finished
  // program.
  void count_undrained() SF_EXCLUDES(inbox_mutex_) {
    MutexLock lock(inbox_mutex_);
    for (const Message& msg : inbox_) {
      metrics.bytes_received += message_bytes(msg, config().carry_geometry);
    }
  }

  void thread_main() {
    try {
      program->start(*this);
      drain_local();
      while (!program->finished() && !abort_->load()) {
        poll_arrivals();
        Message msg;
        if (!pop_inbox(msg, /*wait=*/true)) continue;
        receive(std::move(msg));
        drain_local();
      }
      // Every issued prefetch must be resolved before the run ends:
      // cancel what is still in flight (best effort — a read a worker
      // already started just completes into the void) and discard staged
      // grids nobody claimed.
      for (const auto& inflight : prefetch_inflight_) {
        runtime_->loader_->cancel(inflight.first);
      }
      resolve_outstanding_prefetches();
    } catch (const SimAbort& abort) {
      // A rank blew its particle-memory budget: record why, and wind
      // every thread down.
      abort_reason = abort.what();
      abort_->store(true);
    } catch (...) {
      // Anything else (an InvariantViolation, a program bug) must reach
      // the caller, not std::terminate: park it and stop every thread.
      runtime_->note_failure(std::current_exception());
    }
  }

  // Why this rank aborted the run, empty if it did not.  Written by the
  // rank thread, read by run() after the join.
  std::string abort_reason;

 private:
  struct ComputeDone {};
  using LocalEvent = std::variant<BlockId, ComputeDone>;

  // The grid a loader read delivered to this rank, counted as read;
  // nullptr when the read was cancelled or failed.
  GridPtr arrived(BlockId id, const std::shared_future<GridPtr>& read) {
    GridPtr grid;
    try {
      grid = read.get();
    } catch (...) {
      return nullptr;
    }
    if (grid != nullptr) count_read(id);
    return grid;
  }

  // Move finished background reads into the staging area.  Futures are
  // polled from the rank thread only, so the cache, the staging store
  // and the checker hooks never race.
  void poll_arrivals() {
    for (auto it = prefetch_inflight_.begin();
         it != prefetch_inflight_.end();) {
      if (it->second.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const BlockId id = it->first;
      GridPtr grid = arrived(id, it->second);
      it = prefetch_inflight_.erase(it);
      stage(id, std::move(grid));
    }
  }

  void drain_local() {
    poll_arrivals();
    while (!local_.empty() && !abort_->load()) {
      // Drain the inbox between local events so commands interleave
      // with compute, like they do under the simulator.
      Message msg;
      while (pop_inbox(msg, /*wait=*/false)) receive(std::move(msg));
      if (local_.empty()) break;
      LocalEvent ev = local_.front();
      local_.pop_front();
      if (std::holds_alternative<ComputeDone>(ev)) {
        program->on_compute_done(*this);
      } else {
        program->on_block_loaded(*this, std::get<BlockId>(ev));
      }
    }
  }

  // The oldest inbox message, if any.  With `wait`, an empty inbox
  // sleeps first; the bounded timeout doubles as the abort-flag poll
  // interval, and a spurious wake just re-enters the caller's loop.
  bool pop_inbox(Message& out, bool wait) SF_EXCLUDES(inbox_mutex_) {
    MutexLock lock(inbox_mutex_);
    if (inbox_.empty() && wait) {
      inbox_ready_.wait_for(inbox_mutex_, std::chrono::milliseconds(20));
    }
    if (inbox_.empty()) return false;
    out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

  // The one receive path.  Receiver-side accounting happens here, on the
  // owning thread (the sender must not touch this rank's metrics).
  void receive(Message msg) {
    maybe_perturb();
    metrics.bytes_received += message_bytes(msg, config().carry_geometry);
    SF_INVARIANT_HOOK(checker(), on_deliver(rank(), msg, now()));
    program->on_message(*this, std::move(msg));
  }

  // Seeded schedule perturbation: nudge the OS scheduler at the points
  // where rank threads interact (mailboxes, the shared block source) so
  // TSan runs explore many interleavings instead of one.
  void maybe_perturb() {
    if (!fuzz_enabled_) return;
    const std::uint64_t draw = fuzz_.next_below(16);
    if (draw == 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(fuzz_.next_below(200)));
    } else if (draw < 8) {
      std::this_thread::yield();
    }
  }

  ThreadRuntime* runtime_;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool>* abort_;
  bool fuzz_enabled_;
  Rng fuzz_;
  std::deque<LocalEvent> local_;

  // The inbox (DESIGN.md §14): every sender appends, only this rank's
  // thread pops.  One FIFO keeps each sender's messages in order.
  Mutex inbox_mutex_{LockRank::kMailbox};
  CondVar inbox_ready_;
  std::deque<Message> inbox_ SF_GUARDED_BY(inbox_mutex_);
};

ThreadRuntime::ThreadRuntime(const RuntimeConfig& config,
                             const BlockDecomposition* decomp,
                             const BlockSource* source,
                             const IntegratorParams& iparams,
                             const TraceLimits& limits)
    : config_(config),
      tracer_(decomp, iparams, limits),
      hosts_(&config_, decomp, source, &tracer_, "ThreadRuntime") {
  for (const QueryCancelAt& c : config_.cancels) {
    if (c.at > 0.0) {
      throw std::invalid_argument(
          "ThreadRuntime: timed query cancels are a SimRuntime feature; "
          "the thread runtime applies cancels at run start");
    }
  }
}

ThreadRuntime::Context& ThreadRuntime::context(int rank) {
  return static_cast<Context&>(hosts_[rank]);
}

void ThreadRuntime::note_failure(std::exception_ptr error) {
  {
    MutexLock lock(failure_mutex_);
    if (!failure_) failure_ = std::move(error);
  }
  abort_flag_->store(true);
}

RunMetrics ThreadRuntime::run(const ProgramFactory& factory) {
  const auto epoch = std::chrono::steady_clock::now();
  std::atomic<bool> abort{false};
  abort_flag_ = &abort;
  failure_ = nullptr;

  loader_.reset();
  if (config_.async_io.enabled) {
    loader_ = std::make_unique<AsyncBlockLoader>(&hosts_.source(),
                                                 config_.async_io.workers);
  }

  std::vector<std::unique_ptr<RankHost>> hosts;
  for (int r = 0; r < config_.num_ranks; ++r) {
    hosts.push_back(std::make_unique<Context>(this, r, epoch, &abort));
    hosts.back()->program = factory(r, config_.num_ranks);
  }
  // On the main thread, before any rank runs.
  hosts_.begin(std::move(hosts), /*fault_mode=*/false, /*presettled=*/{},
               /*seed_hook=*/nullptr);
  cancel_set_.clear();
  for (const QueryCancelAt& c : config_.cancels) cancel_set_.cancel(c.query);
  tracer_.set_cancel_set(&cancel_set_);

  std::vector<std::thread> threads;
  threads.reserve(hosts_.size());
  for (int r = 0; r < config_.num_ranks; ++r) {
    threads.emplace_back([c = &context(r)] { c->thread_main(); });
  }
  for (std::thread& t : threads) t.join();
  for (int r = 0; r < config_.num_ranks; ++r) context(r).count_undrained();
  loader_.reset();  // cancels leftover queued reads, joins the workers
  abort_flag_ = nullptr;
  std::exception_ptr failure;
  {
    // The rank threads are joined, but the annotation discipline holds
    // unconditionally: the board is only ever read under its mutex.
    MutexLock lock(failure_mutex_);
    failure = std::exchange(failure_, nullptr);
  }
  if (failure) {
    hosts_.checker.reset();
    std::rethrow_exception(failure);
  }

  RunMetrics run_metrics;
  run_metrics.num_ranks = config_.num_ranks;
  run_metrics.wall_clock = seconds_since(epoch);
  run_metrics.failed_oom = abort.load();
  for (int r = 0; r < config_.num_ranks && run_metrics.abort_reason.empty();
       ++r) {
    run_metrics.abort_reason = context(r).abort_reason;
  }
  hosts_.finish(run_metrics, !run_metrics.failed_oom, run_metrics.wall_clock,
                /*gather_particles=*/true);
  return run_metrics;
}

}  // namespace sf
