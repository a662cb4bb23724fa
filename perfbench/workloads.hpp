#pragma once

// The benchmark's four workloads.  Constructing one is the timed set-up:
// it builds the dataset and materializes every block (threads_ooc also
// writes its BlockStore once and reads it back once), generates the seed
// points from the benchmark seed, and runs the serial trace_all oracle.
// run() is one measured iteration through the library's public entry
// points; it checks every streamline against the oracle.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/particle.hpp"
#include "core/tracer.hpp"

namespace perfbench {

inline constexpr const char* kWorkloadNames[] = {"paper_p64", "scale_16k",
                                                 "threads_ooc", "service_mix"};

// What a traced iteration's host time is attributed against: the calling
// thread's host seconds (SimRuntime runs everything on it) or the
// thread-seconds of the rank and loader threads (ThreadRuntime).
enum class Runtime { kSim, kThreads };

// Terminal state of one streamline, compared bit for bit.  Oracles are
// indexed by particle id, so the id is the digest's key, not a field.
struct Digest {
  std::uint32_t steps = 0;
  sf::ParticleStatus status = sf::ParticleStatus::kActive;
  std::uint64_t x = 0, y = 0, z = 0, t = 0;  // position and time bits

  bool operator==(const Digest&) const = default;
};

Digest digest(const sf::Particle& p);

// Streamlines of `got` (ids 0 .. oracle.size()-1) that are missing,
// duplicated, out of range or differ from the oracle.
std::uint64_t count_mismatches(std::span<const sf::Particle> got,
                               std::span<const Digest> oracle);

// One measured iteration.
struct Iteration {
  double host_s = 0.0;          // host wall of the entry-point call(s)
  std::uint64_t steps = 0;      // accepted integration steps
  std::uint64_t attempted = 0;  // streamlines checked (service: queries)
  std::uint64_t failed = 0;     // wrong, missing, or in a failed run/query
  double model_wall_s = 0.0;    // the workload's modelled time (README.md)
  double host_stall_s = 0.0;    // ThreadRuntime's measured demand stalls
  std::string model_print;      // modelled metrics and counts, exactly
  std::vector<sf::Particle> particles;  // one run's results, oracle ids
  std::map<std::string, double> layer;  // per-layer metrics from RunMetrics
};

struct Preset {
  bool tiny = false;              // the self-test's small variant
  std::filesystem::path scratch;  // where threads_ooc writes its BlockStore
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Iteration run() = 0;
  // Untimed work after set-up that every iteration reports (threads_ooc:
  // the DES prediction of its run).
  virtual void prepare() {}
  virtual Runtime runtime() const { return Runtime::kSim; }
  // ThreadRuntime threads behind the traced thread-seconds total.
  virtual int rank_threads() const { return 0; }
  virtual int loader_threads() const { return 0; }
  // Bytes one BlockSource::load really reads (0: memoized in memory).
  virtual double bytes_per_load() const { return 0.0; }

  // Mismatches of `particles` against the oracle.
  std::uint64_t check(std::span<const sf::Particle> particles) const {
    return count_mismatches(particles, oracle_);
  }
  double oracle_s() const { return oracle_s_; }
  std::uint64_t oracle_steps() const { return oracle_steps_; }

 protected:
  void run_oracle(const sf::BlockedDataset& data,
                  std::span<const sf::Vec3> seeds,
                  const sf::TraceLimits& limits);

  std::vector<Digest> oracle_;
  double oracle_s_ = 0.0;
  std::uint64_t oracle_steps_ = 0;
};

// Set up a workload.  Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Preset& preset);

}  // namespace perfbench
