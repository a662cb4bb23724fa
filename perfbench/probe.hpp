#pragma once

// Out-of-program tracing for the benchmark's traced run.
//
// Spans are recorded from outside the library, around the calls into each
// layer's public interface:
//   * BlockSource::load                          -> io
//   * every RankProgram handler                  -> core (worker ranks) or
//                                                   algorithms (coordinators)
//   * program construction, collection, teardown -> algorithms
//   * the RankContext calls a program makes      -> runtime
// Programs are wrapped where the driver builds them: the three algorithm
// factories are interposed at link time (see CMakeLists.txt), so a traced
// run goes through the same public entry points as an untraced one, with
// the driver's own partitioning.
//
// Each thread keeps a stack of open spans and charges elapsed time to the
// innermost one, so a handler's self time excludes the context calls
// nested in it, and a load issued from a SimRuntime event callback
// (outside any handler) is charged to io.  Time on a thread between two
// spans of one run is the runtime itself: SimRuntime's event loop, or a
// ThreadRuntime rank thread's idle/park time.  Time before a run's first
// span and after its last is left unattributed.

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/dataset.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kWorker,   // worker-rank handler self time             (core)
  kMaster,   // coordinator-rank handler self time        (algorithms)
  kBuild,    // program construction/collection/teardown  (algorithms)
  kSend,     // RankContext::send                         (runtime)
  kRequest,  // RankContext::request_block/prefetch_block (runtime)
  kLookup,   // RankContext::block                        (runtime)
  kLedger,   // RankContext::log_termination             (runtime)
  kLoad,     // BlockSource::load                         (io)
  kGap,      // between two spans of one run: DES dispatch / thread idle
  kCount
};

inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

struct LayerTotals {
  std::array<double, kLayers> seconds{};
  std::array<std::uint64_t, kLayers> calls{};

  double s(Layer l) const { return seconds[static_cast<std::size_t>(l)]; }
  std::uint64_t n(Layer l) const { return calls[static_cast<std::size_t>(l)]; }
  void add(const LayerTotals& other);
};

// Traced runs' tallies, by thread role.
struct TraceTotals {
  LayerTotals main;     // the thread that called reset() (all of SimRuntime)
  LayerTotals ranks;    // other threads that ran a handler (rank threads)
  LayerTotals loaders;  // other threads that only loaded (loader workers)

  void add(const TraceTotals& other);
};

// Wrap the programs of runs started from now on (or stop wrapping).
void set_tracing(bool on);
bool tracing();
// Zero every thread's tallies.  Call on the main thread between runs.
void reset();
// Sum every thread's tallies.  Call after the run's threads have joined.
TraceTotals collect();

// BlockSource decorator that times load() as io.
class TracedSource final : public sf::BlockSource {
 public:
  explicit TracedSource(const sf::BlockSource* inner) : inner_(inner) {}

  sf::GridPtr load(sf::BlockId id) const override;
  std::size_t block_bytes(sf::BlockId id) const override {
    return inner_->block_bytes(id);
  }
  int num_blocks() const override { return inner_->num_blocks(); }

 private:
  const sf::BlockSource* inner_;
};

}  // namespace perfbench
