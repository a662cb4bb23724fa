// chaos_soak — randomized multi-fault soak harness (DESIGN.md §16).
//
// Each soak iteration draws a random fault schedule from a per-run seed:
// an algorithm, a crash MTBF, explicit gray slowdowns, disk fault /
// latency-inflation / corruption rates, message drops, a checkpoint
// cadence and, for hybrid, the master layout (W and the root fanout, so
// multi-master balancing, peer adoption and the root tier soak too) —
// then runs the experiment twice on the simulated machine:
// once fault-free (the oracle) and once under the schedule.  A run
// passes only if
//
//   * it completes (no invariant-checker violation, no unrecovered
//     fault, no OOM),
//   * every terminal streamline is bit-identical to the oracle's —
//     faults may cost time, never trajectories,
//   * every injected corruption was caught by the block checksum.
//
// Failing schedules are dumped as replayable seed files under --out-dir
// (key/value text, fully self-contained); `chaos_soak --replay=FILE`
// re-runs exactly that schedule, so a red nightly soak reproduces in one
// command.  All randomness flows through sf::Rng from --seed, so the
// whole soak is itself deterministic.
//
// Flags:
//   --runs=N       schedules to soak (default 50)
//   --seed=S       master seed, 0..INT_MAX (default 0xc4a05)
//   --procs=N      simulated ranks per run (default 16)
//   --count=N      streamlines per run (default 300)
//   --out-dir=DIR  where failing schedules are written (chaos_failures)
//   --replay=FILE  run one dumped schedule instead of soaking
//   --quick        smoke preset: 6 runs, 150 streamlines, each run's
//                  algorithm and hybrid layout pinned (see kSmokeCover)
//
// A malformed or out-of-range number exits 2 naming the flag.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "algorithms/hybrid.hpp"
#include "bench/bench_flags.hpp"
#include "core/analytic_fields.hpp"
#include "core/rng.hpp"
#include "core/seeds.hpp"

namespace {

using namespace sf;

// One fully drawn fault schedule.  Times are stored relative to the
// oracle wall clock T (the oracle is deterministic, so relative times
// replay exactly); the file format below round-trips every field.
struct Schedule {
  std::uint64_t run_seed = 0;
  Algorithm algorithm = Algorithm::kHybridMasterSlave;
  int procs = 16;
  std::size_t num_seeds = 300;
  std::uint32_t max_steps = 400;
  std::size_t cache_blocks = 48;
  double mtbf_rel = 0.0;  // crash MTBF as a fraction of oracle T (0 = off)
  int max_crashes = 1;
  double checkpoint_rel = 0.0;
  std::vector<SlowdownEvent> slowdowns;  // .time is relative to T
  double corrupt_rate = 0.0;
  double disk_fault_rate = 0.0;
  double disk_slow_rate = 0.0;
  double drop_rate = 0.0;
  int slaves_per_master = 32;  // hybrid W
  int root_fanout = 32;        // hybrid root tier fanout
};

Algorithm algorithm_from(const std::string& s) {
  if (s == "static-allocation") return Algorithm::kStaticAllocation;
  if (s == "load-on-demand") return Algorithm::kLoadOnDemand;
  return Algorithm::kHybridMasterSlave;
}

Schedule draw_schedule(std::uint64_t run_seed, int procs,
                       std::size_t num_seeds) {
  Rng rng(run_seed);
  Schedule s;
  s.run_seed = run_seed;
  s.procs = procs;
  s.num_seeds = num_seeds;
  const Algorithm algos[] = {Algorithm::kStaticAllocation,
                             Algorithm::kLoadOnDemand,
                             Algorithm::kHybridMasterSlave};
  s.algorithm = algos[rng.next_below(3)];
  if (rng.next_double() < 0.5) {
    s.mtbf_rel = rng.uniform(0.4, 1.5);
    s.max_crashes = 1 + static_cast<int>(rng.next_below(3));
  }
  if (rng.next_double() < 0.5) s.checkpoint_rel = 0.25;
  const std::uint64_t num_slow = rng.next_below(3);  // 0..2 gray victims
  for (std::uint64_t i = 0; i < num_slow; ++i) {
    SlowdownEvent ev;
    ev.rank = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(procs)));
    ev.time = rng.uniform(0.05, 0.5);  // relative to oracle T
    ev.factor = rng.uniform(2.0, 12.0);
    s.slowdowns.push_back(ev);
  }
  if (rng.next_double() < 0.5) s.corrupt_rate = rng.uniform(5e-4, 5e-3);
  if (rng.next_double() < 0.3) s.disk_fault_rate = 1e-3;
  if (rng.next_double() < 0.3) s.disk_slow_rate = rng.uniform(5e-3, 5e-2);
  if (rng.next_double() < 0.3) s.drop_rate = 1e-3;
  // A schedule with nothing to inject soaks nothing: force one gray
  // slowdown so every iteration exercises the fault plane.
  if (s.mtbf_rel == 0.0 && s.slowdowns.empty() && s.corrupt_rate == 0.0 &&
      s.disk_fault_rate == 0.0 && s.disk_slow_rate == 0.0 &&
      s.drop_rate == 0.0) {
    s.slowdowns.push_back(
        {.time = 0.1,
         .rank = static_cast<int>(rng.next_below(
             static_cast<std::uint64_t>(procs))),
         .factor = 8.0});
  }
  // Drawn last, so the fields above stay what they were before layouts
  // were drawn.  At 16 ranks W = 4 or 2 gives several masters, and a
  // fanout of 2 puts a root tier above them.
  if (s.algorithm == Algorithm::kHybridMasterSlave) {
    const int widths[] = {32, 4, 2};
    s.slaves_per_master = widths[rng.next_below(3)];
    s.root_fanout = rng.next_below(2) == 0 ? 32 : 2;
  }
  return s;
}

void write_schedule(const Schedule& s, std::ostream& out) {
  out << "run_seed " << s.run_seed << '\n'
      << "algorithm " << to_string(s.algorithm) << '\n'
      << "procs " << s.procs << '\n'
      << "num_seeds " << s.num_seeds << '\n'
      << "max_steps " << s.max_steps << '\n'
      << "cache_blocks " << s.cache_blocks << '\n'
      << "mtbf_rel " << s.mtbf_rel << '\n'
      << "max_crashes " << s.max_crashes << '\n'
      << "checkpoint_rel " << s.checkpoint_rel << '\n'
      << "corrupt_rate " << s.corrupt_rate << '\n'
      << "disk_fault_rate " << s.disk_fault_rate << '\n'
      << "disk_slow_rate " << s.disk_slow_rate << '\n'
      << "drop_rate " << s.drop_rate << '\n'
      << "slaves_per_master " << s.slaves_per_master << '\n'
      << "root_fanout " << s.root_fanout << '\n';
  for (const SlowdownEvent& ev : s.slowdowns) {
    out << "slowdown " << ev.rank << ' ' << ev.time << ' ' << ev.factor
        << '\n';
  }
}

bool read_schedule(const std::string& path, Schedule& s) {
  std::ifstream in(path);
  if (!in) return false;
  std::string key;
  while (in >> key) {
    if (key == "run_seed") in >> s.run_seed;
    else if (key == "algorithm") {
      std::string v;
      in >> v;
      s.algorithm = algorithm_from(v);
    } else if (key == "procs") in >> s.procs;
    else if (key == "num_seeds") in >> s.num_seeds;
    else if (key == "max_steps") in >> s.max_steps;
    else if (key == "cache_blocks") in >> s.cache_blocks;
    else if (key == "mtbf_rel") in >> s.mtbf_rel;
    else if (key == "max_crashes") in >> s.max_crashes;
    else if (key == "checkpoint_rel") in >> s.checkpoint_rel;
    else if (key == "corrupt_rate") in >> s.corrupt_rate;
    else if (key == "disk_fault_rate") in >> s.disk_fault_rate;
    else if (key == "disk_slow_rate") in >> s.disk_slow_rate;
    else if (key == "drop_rate") in >> s.drop_rate;
    else if (key == "slaves_per_master") in >> s.slaves_per_master;
    else if (key == "root_fanout") in >> s.root_fanout;
    else if (key == "slowdown") {
      SlowdownEvent ev;
      in >> ev.rank >> ev.time >> ev.factor;
      s.slowdowns.push_back(ev);
    } else {
      std::cerr << "unknown schedule key '" << key << "' in " << path
                << '\n';
      return false;
    }
  }
  return true;
}

bool particles_identical(const std::vector<Particle>& a,
                         const std::vector<Particle>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Particle& x = a[i];
    const Particle& y = b[i];
    if (x.id != y.id || x.status != y.status || x.steps != y.steps ||
        x.time != y.time || x.h != y.h || x.pos.x != y.pos.x ||
        x.pos.y != y.pos.y || x.pos.z != y.pos.z) {
      return false;
    }
  }
  return true;
}

struct SoakContext {
  const BlockDecomposition* decomp = nullptr;
  const BlockSource* source = nullptr;
  std::vector<Vec3> seeds;
};

// Run one schedule end to end.  Returns true on pass; `why` explains a
// failure.
bool run_schedule(const SoakContext& ctx, const Schedule& s,
                  std::string& why) {
  ExperimentConfig base;
  base.algorithm = s.algorithm;
  base.runtime.num_ranks = s.procs;
  base.runtime.model = MachineModel::jaguar_like();
  base.runtime.cache_blocks = s.cache_blocks;
  base.limits.max_time = 15.0;
  base.limits.max_steps = s.max_steps;
  base.hybrid.slaves_per_master = s.slaves_per_master;
  base.hybrid.root_fanout = s.root_fanout;

  RunMetrics oracle;
  try {
    oracle = run_experiment(base, *ctx.decomp, *ctx.source, ctx.seeds);
  } catch (const std::exception& e) {
    why = std::string("oracle run threw: ") + e.what();
    return false;
  }
  const double T = oracle.wall_clock;

  ExperimentConfig cfg = base;
  FaultConfig& fc = cfg.runtime.fault;
  fc.rng_seed = s.run_seed;
  fc.mtbf = s.mtbf_rel * T;
  fc.max_crashes = s.max_crashes;
  fc.checkpoint_interval = s.checkpoint_rel * T;
  for (SlowdownEvent ev : s.slowdowns) {
    ev.time *= T;
    fc.slowdowns.push_back(ev);
  }
  fc.corrupt_rate = s.corrupt_rate;
  fc.disk_fault_rate = s.disk_fault_rate;
  fc.disk_slow_rate = s.disk_slow_rate;
  fc.message_drop_rate = s.drop_rate;

  RunMetrics m;
  try {
    m = run_experiment(cfg, *ctx.decomp, *ctx.source, ctx.seeds);
  } catch (const std::exception& e) {
    why = std::string("fault run threw: ") + e.what();
    return false;
  }
  if (m.failed_oom) {
    why = "fault run aborted: OOM";
    return false;
  }
  if (m.failed_fault) {
    why = "fault run aborted: unrecovered fault";
    return false;
  }
  if (!particles_identical(oracle.particles, m.particles)) {
    why = "terminal streamlines differ from the fault-free oracle";
    return false;
  }
  const FaultStats& fs = m.fault;
  if (fs.corruptions_detected != fs.corruptions_injected) {
    std::ostringstream os;
    os << "corruption slipped past the checksum: injected "
       << fs.corruptions_injected << ", detected " << fs.corruptions_detected;
    why = os.str();
    return false;
  }
  std::ostringstream os;
  os << "wall " << m.wall_clock << "s vs oracle " << T << "s; crashes "
     << fs.crashes_injected << ", slowdowns " << fs.slowdowns_injected
     << ", corruptions " << fs.corruptions_injected << ", drops "
     << fs.messages_dropped << ", flagged " << fs.stragglers_flagged;
  why = os.str();  // pass note, not a failure
  return true;
}

std::string describe(const Schedule& s) {
  std::ostringstream os;
  os << to_string(s.algorithm) << " mtbf_rel=" << s.mtbf_rel << " slow="
     << s.slowdowns.size() << " corrupt=" << s.corrupt_rate << " disk="
     << s.disk_fault_rate << "/" << s.disk_slow_rate << " drop="
     << s.drop_rate << " ckpt=" << s.checkpoint_rel;
  if (s.algorithm == Algorithm::kHybridMasterSlave) {
    const HybridLayout layout = HybridLayout::make(
        s.procs, s.slaves_per_master, s.root_fanout);
    os << " W=" << s.slaves_per_master << " fanout=" << s.root_fanout
       << " masters=" << layout.num_masters << " roots=" << layout.num_roots;
  }
  return os.str();
}

// The smoke preset's algorithm and hybrid layout per run, so its few runs
// cover every algorithm and, at 16 ranks, one master, several flat
// masters and a root tier above them, whatever the draws give; every
// other field is still drawn.
struct Cover {
  Algorithm algorithm;
  int slaves_per_master;
  int root_fanout;
};
constexpr Cover kSmokeCover[] = {
    {Algorithm::kStaticAllocation, 32, 32},
    {Algorithm::kLoadOnDemand, 32, 32},
    {Algorithm::kHybridMasterSlave, 32, 32},
    {Algorithm::kHybridMasterSlave, 4, 32},
    {Algorithm::kHybridMasterSlave, 2, 2},
    {Algorithm::kHybridMasterSlave, 4, 2},
};

int soak_main(int argc, char** argv) {
  using sf::bench::flag_int;
  int runs = 50;
  std::uint64_t master_seed = 0xc4a05;
  int procs = 16;
  std::size_t count = 300;
  std::string out_dir = "chaos_failures";
  std::string replay;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--runs=", 0) == 0) {
      runs = flag_int("runs", arg.substr(7), 1);
    } else if (arg.rfind("--seed=", 0) == 0) {
      master_seed =
          static_cast<std::uint64_t>(flag_int("seed", arg.substr(7), 0));
    } else if (arg.rfind("--procs=", 0) == 0) {
      procs = flag_int("procs", arg.substr(8), 1);
    } else if (arg.rfind("--count=", 0) == 0) {
      count = static_cast<std::size_t>(flag_int("count", arg.substr(8), 1));
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(10);
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay = arg.substr(9);
    } else if (arg == "--quick") {
      runs = 6;
      count = 150;
      smoke = true;
    } else {
      std::cerr << "unknown flag: " << arg << '\n';
      return 2;
    }
  }

  auto field = std::make_shared<SupernovaField>();
  const BlockDecomposition decomp(field->bounds(), 6, 6, 6);  // 216 blocks
  auto dataset = std::make_shared<BlockedDataset>(
      field, decomp, /*nodes_per_axis=*/9, /*ghost_cells=*/2);
  const DatasetBlockSource source(dataset, /*modelled_bytes=*/12u << 20);

  SoakContext ctx;
  ctx.decomp = &decomp;
  ctx.source = &source;
  Rng seed_rng(2026);
  ctx.seeds = random_seeds(field->bounds(), count, seed_rng);

  if (!replay.empty()) {
    Schedule s;
    if (!read_schedule(replay, s)) {
      std::cerr << "cannot read schedule file " << replay << '\n';
      return 2;
    }
    // The schedule names its own streamline count, whatever --count says.
    seed_rng = Rng(2026);
    ctx.seeds = random_seeds(field->bounds(), s.num_seeds, seed_rng);
    std::cout << "replay " << replay << ": " << describe(s) << '\n';
    std::string why;
    const bool ok = run_schedule(ctx, s, why);
    std::cout << (ok ? "PASS: " : "FAIL: ") << why << '\n';
    return ok ? 0 : 1;
  }

  int failures = 0;
  std::uint64_t mix = master_seed;
  for (int i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = splitmix64(mix);
    Schedule s = draw_schedule(run_seed, procs, count);
    if (smoke) {
      const Cover& c = kSmokeCover[static_cast<std::size_t>(i) %
                                   std::size(kSmokeCover)];
      s.algorithm = c.algorithm;
      s.slaves_per_master = c.slaves_per_master;
      s.root_fanout = c.root_fanout;
    }
    std::string why;
    const bool ok = run_schedule(ctx, s, why);
    std::cout << (ok ? "pass" : "FAIL") << " run " << i << " seed="
              << run_seed << "  " << describe(s) << "\n      " << why
              << '\n';
    if (!ok) {
      ++failures;
      std::filesystem::create_directories(out_dir);
      const std::string path =
          out_dir + "/chaos_" + std::to_string(run_seed) + ".schedule";
      std::ofstream out(path);
      write_schedule(s, out);
      std::cout << "      schedule dumped; reproduce with: chaos_soak "
                << "--replay=" << path << '\n';
    }
  }
  std::cout << '\n' << (runs - failures) << "/" << runs
            << " schedules survived\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, soak_main);
}
