// modelled_configs — run hybrid fault configurations read from stdin, one
// per line, and print every modelled output of each: the fault-free run
// and the faulted run, per-run totals and every rank's counters.  Two
// builds of the same configurations print the same bytes exactly when
// their modelled behaviour is the same.
//
// modelled_diff.py compiles this file against each checkout's library
// (it is no CMake target of the project), because the CLI has no flags for
// the hybrid layout.  Line format, '#' lines and blank lines skipped:
//
//   RANKS W FANOUT COUNT HEARTBEAT_REL CRASHES DROP SLOW
//
// CRASHES is a comma list of RANK@TIME_REL or '-', SLOW is
// RANK@TIME_REL@FACTOR or '-'; *_REL values are fractions of the
// fault-free run's wall clock.

#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "core/analytic_fields.hpp"
#include "core/rng.hpp"
#include "core/seeds.hpp"

namespace {

using namespace sf;

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::stringstream in(text);
  for (std::string item; std::getline(in, item, sep);) out.push_back(item);
  return out;
}

// Order-sensitive FNV-1a over the bits of every terminal particle.
std::uint64_t fingerprint(const std::vector<Particle>& particles) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  for (const Particle& p : particles) {
    mix(&p.id, sizeof p.id);
    mix(&p.status, sizeof p.status);
    mix(&p.steps, sizeof p.steps);
    mix(&p.pos, sizeof p.pos);
    mix(&p.time, sizeof p.time);
  }
  return h;
}

void print(const char* label, const RunMetrics& m) {
  const FaultStats& f = m.fault;
  std::printf(
      "%s wall=%.17g oom=%d fault=%d msgs=%llu ctrl=%llu sent=%llu "
      "steps=%llu particles=%zu fp=%016llx\n",
      label, m.wall_clock, m.failed_oom, m.failed_fault,
      static_cast<unsigned long long>(m.total_messages()),
      static_cast<unsigned long long>(m.total_control_messages()),
      static_cast<unsigned long long>(m.total_bytes_sent()),
      static_cast<unsigned long long>(m.total_steps()), m.particles.size(),
      static_cast<unsigned long long>(fingerprint(m.particles)));
  std::printf(
      "  faults injected=%llu survived=%llu dropped=%llu retransmits=%llu "
      "duplicates=%llu recovered=%llu redone=%llu recovery=%.17g "
      "slowdowns=%llu flagged=%llu speculated=%llu wasted=%llu "
      "detect=%.17g\n",
      static_cast<unsigned long long>(f.crashes_injected),
      static_cast<unsigned long long>(f.crashes_survived),
      static_cast<unsigned long long>(f.messages_dropped),
      static_cast<unsigned long long>(f.control_retransmits),
      static_cast<unsigned long long>(f.control_duplicates),
      static_cast<unsigned long long>(f.particles_recovered),
      static_cast<unsigned long long>(f.steps_redone), f.time_to_recovery,
      static_cast<unsigned long long>(f.slowdowns_injected),
      static_cast<unsigned long long>(f.stragglers_flagged),
      static_cast<unsigned long long>(f.particles_speculated),
      static_cast<unsigned long long>(f.wasted_duplicate_steps),
      f.straggler_detect_latency);
  for (const CrashRecord& c : f.crash_records) {
    std::printf("  crash rank=%d at=%.17g detect=%.17g recover=%.17g\n",
                c.rank, c.crash_time, c.detect_time, c.recover_time);
  }
  for (std::size_t r = 0; r < m.ranks.size(); ++r) {
    const RankMetrics& k = m.ranks[r];
    std::printf(
        "  rank %zu compute=%.17g io=%.17g comm=%.17g loads=%llu "
        "purges=%llu msgs=%llu ctrl=%llu sent=%llu recv=%llu steps=%llu "
        "bursts=%llu peak=%zu crashed=%d\n",
        r, k.compute_time, k.io_time, k.comm_time,
        static_cast<unsigned long long>(k.blocks_loaded),
        static_cast<unsigned long long>(k.blocks_purged),
        static_cast<unsigned long long>(k.messages_sent),
        static_cast<unsigned long long>(k.control_messages_sent),
        static_cast<unsigned long long>(k.bytes_sent),
        static_cast<unsigned long long>(k.bytes_received),
        static_cast<unsigned long long>(k.steps),
        static_cast<unsigned long long>(k.bursts), k.peak_particle_bytes,
        k.crashed);
  }
}

}  // namespace

int main() {
  auto field = std::make_shared<SupernovaField>();
  const BlockDecomposition decomp(field->bounds(), 4, 4, 4);
  auto dataset = std::make_shared<BlockedDataset>(
      field, decomp, /*nodes_per_axis=*/9, /*ghost_cells=*/2);
  const DatasetBlockSource source(dataset, /*modelled_bytes=*/12u << 20);
  Rng seed_rng(7);
  const std::vector<Vec3> pool = random_seeds(field->bounds(), 2000, seed_rng);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    int ranks = 0, w = 0, fanout = 0;
    std::size_t count = 0;
    double heartbeat_rel = 0.0, drop = 0.0;
    std::string crashes, slow;
    in >> ranks >> w >> fanout >> count >> heartbeat_rel >> crashes >> drop >>
        slow;
    std::printf("config %s\n", line.c_str());
    try {
      ExperimentConfig cfg;
      cfg.algorithm = Algorithm::kHybridMasterSlave;
      cfg.runtime.num_ranks = ranks;
      cfg.runtime.model = MachineModel::jaguar_like();
      cfg.runtime.cache_blocks = 16;
      cfg.limits.max_steps = 400;
      cfg.limits.max_time = 15.0;
      cfg.hybrid.slaves_per_master = w;
      cfg.hybrid.root_fanout = fanout;
      const std::vector<Vec3> seeds(pool.begin(),
                                    pool.begin() +
                                        static_cast<std::ptrdiff_t>(count));
      const RunMetrics clean =
          run_experiment(cfg, decomp, source, seeds);
      print("clean", clean);
      const double t = clean.wall_clock;
      FaultConfig& fc = cfg.runtime.fault;
      fc.heartbeat_period = heartbeat_rel * t;
      fc.message_drop_rate = drop;
      if (crashes != "-") {
        for (const std::string& c : split(crashes, ',')) {
          const auto f = split(c, '@');
          fc.crashes.push_back({std::stod(f.at(1)) * t, std::stoi(f.at(0))});
        }
      }
      if (slow != "-") {
        const auto f = split(slow, '@');
        fc.slowdowns.push_back(
            {std::stod(f.at(1)) * t, std::stoi(f.at(0)), std::stod(f.at(2))});
      }
      print("fault", run_experiment(cfg, decomp, source, seeds));
    } catch (const std::exception& e) {
      std::printf("error %s\n", e.what());
    }
  }
  return 0;
}
