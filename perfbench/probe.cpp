#include "probe.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/hybrid.hpp"
#include "algorithms/load_on_demand.hpp"
#include "algorithms/static_alloc.hpp"

namespace perfbench {

void LayerTotals::add(const LayerTotals& other) {
  for (std::size_t i = 0; i < kLayers; ++i) {
    seconds[i] += other.seconds[i];
    calls[i] += other.calls[i];
  }
}

void TraceTotals::add(const TraceTotals& other) {
  main.add(other.main);
  ranks.add(other.ranks);
  loaders.add(other.loaders);
}

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

// One thread's tallies.  Written only by its own thread; read by the main
// thread once that thread has joined.
struct Ledger {
  std::thread::id owner;
  LayerTotals totals;
  std::vector<Layer> open;   // span stack, innermost last
  Clock::time_point last{};  // start of the segment being timed
  bool in_run = false;       // a span of the current run has closed
  bool ran_handler = false;
};

std::atomic<bool> g_tracing{false};
std::mutex g_mutex;
std::vector<std::unique_ptr<Ledger>> g_ledgers;  // guarded by g_mutex
std::thread::id g_main;                          // guarded by g_mutex
thread_local Ledger* t_ledger = nullptr;

Ledger& this_thread_ledger() {
  if (t_ledger == nullptr) {
    auto fresh = std::make_unique<Ledger>();
    fresh->owner = std::this_thread::get_id();
    fresh->open.reserve(16);
    t_ledger = fresh.get();
    const std::lock_guard lock(g_mutex);
    g_ledgers.push_back(std::move(fresh));
  }
  return *t_ledger;
}

// Times one call into a layer.  Elapsed time always goes to the innermost
// open span; with none open it is a gap between two spans of the run.
class Span {
 public:
  explicit Span(Layer layer) : l_(this_thread_ledger()) {
    const Clock::time_point now = Clock::now();
    if (!l_.open.empty()) {
      charge(l_.open.back(), now);
    } else if (l_.in_run) {
      charge(Layer::kGap, now);
      ++l_.totals.calls[idx(Layer::kGap)];
    }
    l_.open.push_back(layer);
    ++l_.totals.calls[idx(layer)];
    if (layer == Layer::kWorker || layer == Layer::kMaster) {
      l_.ran_handler = true;
    }
    l_.last = now;
  }

  ~Span() {
    const Clock::time_point now = Clock::now();
    charge(l_.open.back(), now);
    l_.open.pop_back();
    l_.last = now;
    if (l_.open.empty()) l_.in_run = true;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void charge(Layer layer, Clock::time_point now) {
    l_.totals.seconds[idx(layer)] +=
        std::chrono::duration<double>(now - l_.last).count();
  }

  Ledger& l_;
};

// Forwards every call to the runtime's context, timing the ones that do
// runtime work.
class TracedContext final : public sf::RankContext {
 public:
  void bind(sf::RankContext& inner) { inner_ = &inner; }

  int rank() const override { return inner_->rank(); }
  int num_ranks() const override { return inner_->num_ranks(); }
  double now() const override { return inner_->now(); }
  const sf::BlockDecomposition& decomposition() const override {
    return inner_->decomposition();
  }
  const sf::Tracer& tracer() const override { return inner_->tracer(); }
  const sf::MachineModel& model() const override { return inner_->model(); }

  void send(int to, sf::Message msg) override {
    const Span span(Layer::kSend);
    inner_->send(to, std::move(msg));
  }
  void request_block(sf::BlockId id) override {
    const Span span(Layer::kRequest);
    inner_->request_block(id);
  }
  void prefetch_block(sf::BlockId id) override {
    const Span span(Layer::kRequest);
    inner_->prefetch_block(id);
  }
  int prefetch_capacity() const override {
    return inner_->prefetch_capacity();
  }
  void pin_block(sf::BlockId id) override { inner_->pin_block(id); }
  void unpin_block(sf::BlockId id) override { inner_->unpin_block(id); }
  bool block_resident(sf::BlockId id) const override {
    return inner_->block_resident(id);
  }
  bool block_pending(sf::BlockId id) const override {
    return inner_->block_pending(id);
  }
  std::vector<sf::BlockId> resident_blocks() const override {
    return inner_->resident_blocks();
  }
  const sf::StructuredGrid* block(sf::BlockId id) override {
    const Span span(Layer::kLookup);
    return inner_->block(id);
  }
  void begin_compute(double seconds, std::uint64_t steps) override {
    inner_->begin_compute(seconds, steps);
  }
  bool busy() const override { return inner_->busy(); }
  void charge_particle_memory(std::int64_t delta_bytes) override {
    inner_->charge_particle_memory(delta_bytes);
  }
  void set_timer(double seconds) override { inner_->set_timer(seconds); }
  bool is_alive(int target) const override { return inner_->is_alive(target); }
  bool log_termination(const sf::Particle& p) override {
    const Span span(Layer::kLedger);
    return inner_->log_termination(p);
  }
  sf::RecoveredWork recover_rank(int dead_rank) override {
    return inner_->recover_rank(dead_rank);
  }
  std::vector<sf::Particle> speculate_rank(int straggler) override {
    return inner_->speculate_rank(straggler);
  }

 private:
  sf::RankContext* inner_ = nullptr;
};

// Times each handler as worker or coordinator self time and hands the
// program a TracedContext in place of the runtime's.
class TracedProgram final : public sf::RankProgram {
 public:
  TracedProgram(std::unique_ptr<sf::RankProgram> inner, Layer handler)
      : inner_(std::move(inner)), handler_(handler) {}
  ~TracedProgram() override {
    const Span span(Layer::kBuild);
    inner_.reset();
  }
  TracedProgram(const TracedProgram&) = delete;
  TracedProgram& operator=(const TracedProgram&) = delete;

  void start(sf::RankContext& ctx) override {
    const Span span(handler_);
    ctx_.bind(ctx);
    inner_->start(ctx_);
  }
  void on_message(sf::RankContext& ctx, sf::Message msg) override {
    const Span span(handler_);
    ctx_.bind(ctx);
    inner_->on_message(ctx_, std::move(msg));
  }
  void on_block_loaded(sf::RankContext& ctx, sf::BlockId id) override {
    const Span span(handler_);
    ctx_.bind(ctx);
    inner_->on_block_loaded(ctx_, id);
  }
  void on_compute_done(sf::RankContext& ctx) override {
    const Span span(handler_);
    ctx_.bind(ctx);
    inner_->on_compute_done(ctx_);
  }
  void on_timer(sf::RankContext& ctx) override {
    const Span span(handler_);
    ctx_.bind(ctx);
    inner_->on_timer(ctx_);
  }
  bool finished() const override { return inner_->finished(); }
  void collect_particles(std::vector<sf::Particle>& out) const override {
    const Span span(Layer::kBuild);
    inner_->collect_particles(out);
  }
  void snapshot_particles(std::vector<sf::Particle>& out) const override {
    inner_->snapshot_particles(out);
  }

 private:
  std::unique_ptr<sf::RankProgram> inner_;
  Layer handler_;
  TracedContext ctx_;
};

// Wraps every program `real` builds.  A new run begins on this thread, so
// the time since the previous run's last span (driver and runtime set-up
// and teardown) is not a gap inside a run.
sf::ProgramFactory traced(sf::ProgramFactory real,
                          std::function<bool(int, int)> is_master) {
  this_thread_ledger().in_run = false;
  return [real = std::move(real), is_master = std::move(is_master)](
             int rank, int num_ranks) -> std::unique_ptr<sf::RankProgram> {
    const Span span(Layer::kBuild);
    return std::make_unique<TracedProgram>(
        real(rank, num_ranks),
        is_master(rank, num_ranks) ? Layer::kMaster : Layer::kWorker);
  };
}

bool no_coordinators(int /*rank*/, int /*num_ranks*/) { return false; }

}  // namespace

void set_tracing(bool on) { g_tracing.store(on); }

bool tracing() { return g_tracing.load(); }

void reset() {
  const std::lock_guard lock(g_mutex);
  g_main = std::this_thread::get_id();
  // Threads of earlier runs have exited; only this thread's ledger is live.
  std::erase_if(g_ledgers, [](const std::unique_ptr<Ledger>& l) {
    return l->owner != g_main;
  });
  for (const std::unique_ptr<Ledger>& l : g_ledgers) {
    l->totals = LayerTotals{};
    l->in_run = false;
    l->ran_handler = false;
  }
}

TraceTotals collect() {
  TraceTotals t;
  const std::lock_guard lock(g_mutex);
  for (const std::unique_ptr<Ledger>& l : g_ledgers) {
    if (l->owner == g_main) {
      t.main.add(l->totals);
    } else if (l->ran_handler) {
      t.ranks.add(l->totals);
    } else {
      t.loaders.add(l->totals);
    }
  }
  return t;
}

sf::GridPtr TracedSource::load(sf::BlockId id) const {
  const Span span(Layer::kLoad);
  return inner_->load(id);
}

}  // namespace perfbench

// ---- Link-time interposition of the algorithm factories -------------------
// The linker resolves the driver's calls to these symbols to the __wrap_
// definitions below, and __real_ to the library's own factory.  The labels
// are the mangled names of the declarations in src/algorithms/*.hpp and must
// match the --wrap list in CMakeLists.txt; if a signature changes, the
// __real_ reference no longer resolves and the link fails loudly.

#define SF_MAKE_HYBRID                                              \
  "_ZN2sf11make_hybridEPKNS_18BlockDecompositionESt6vectorIS3_INS_" \
  "8ParticleESaIS4_EESaIS6_EEjNS_12HybridParamsE"
#define SF_MAKE_LOAD_ON_DEMAND                                          \
  "_ZN2sf19make_load_on_demandEPKNS_18BlockDecompositionESt6vectorIS3_" \
  "INS_8ParticleESaIS4_EESaIS6_EE"
#define SF_MAKE_STATIC_ALLOCATION                                          \
  "_ZN2sf22make_static_allocationEPKNS_18BlockDecompositionESt6vectorIS3_" \
  "INS_8ParticleESaIS4_EESaIS6_EEj"

using ParticlesPerRank = std::vector<std::vector<sf::Particle>>;

sf::ProgramFactory real_make_hybrid(const sf::BlockDecomposition*,
                                    ParticlesPerRank, std::uint32_t,
                                    sf::HybridParams)
    __asm__("__real_" SF_MAKE_HYBRID);
sf::ProgramFactory wrap_make_hybrid(const sf::BlockDecomposition*,
                                    ParticlesPerRank, std::uint32_t,
                                    sf::HybridParams)
    __asm__("__wrap_" SF_MAKE_HYBRID);
sf::ProgramFactory real_make_load_on_demand(const sf::BlockDecomposition*,
                                            ParticlesPerRank)
    __asm__("__real_" SF_MAKE_LOAD_ON_DEMAND);
sf::ProgramFactory wrap_make_load_on_demand(const sf::BlockDecomposition*,
                                            ParticlesPerRank)
    __asm__("__wrap_" SF_MAKE_LOAD_ON_DEMAND);
sf::ProgramFactory real_make_static_allocation(const sf::BlockDecomposition*,
                                               ParticlesPerRank, std::uint32_t)
    __asm__("__real_" SF_MAKE_STATIC_ALLOCATION);
sf::ProgramFactory wrap_make_static_allocation(const sf::BlockDecomposition*,
                                               ParticlesPerRank, std::uint32_t)
    __asm__("__wrap_" SF_MAKE_STATIC_ALLOCATION);

sf::ProgramFactory wrap_make_hybrid(const sf::BlockDecomposition* decomp,
                                    ParticlesPerRank seeds,
                                    std::uint32_t total_active,
                                    sf::HybridParams params) {
  sf::ProgramFactory real =
      real_make_hybrid(decomp, std::move(seeds), total_active, params);
  if (!perfbench::tracing()) return real;
  return perfbench::traced(std::move(real), [params](int rank, int n) {
    return sf::HybridLayout::make(n, params.slaves_per_master,
                                  params.root_fanout)
        .is_master(rank);
  });
}

sf::ProgramFactory wrap_make_load_on_demand(
    const sf::BlockDecomposition* decomp, ParticlesPerRank initial) {
  sf::ProgramFactory real =
      real_make_load_on_demand(decomp, std::move(initial));
  if (!perfbench::tracing()) return real;
  return perfbench::traced(std::move(real), perfbench::no_coordinators);
}

sf::ProgramFactory wrap_make_static_allocation(
    const sf::BlockDecomposition* decomp, ParticlesPerRank initial,
    std::uint32_t total_active) {
  sf::ProgramFactory real =
      real_make_static_allocation(decomp, std::move(initial), total_active);
  if (!perfbench::tracing()) return real;
  return perfbench::traced(std::move(real), perfbench::no_coordinators);
}
