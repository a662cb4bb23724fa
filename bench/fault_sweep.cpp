// Fault-tolerance sweep (DESIGN.md §7): for each algorithm, measure the
// cost of surviving rank crashes as a function of crash frequency (MTBF,
// expressed relative to the fault-free wall clock T) and checkpoint
// cadence.  Rows report the slowdown vs. the fault-free baseline, how
// much work was recovered/redone, and the modelled checkpoint overhead.
//
// Flags: the common bench flags (bench_common.hpp); --quick shrinks the
// seed set and the sweep grid for smoke runs.

#include <fstream>
#include <map>
#include <memory>

#include "algorithms/hybrid.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"

namespace {

using namespace sf;
using namespace sf::bench;

struct SweepPoint {
  double mtbf_rel;        // MTBF as a fraction of baseline wall clock
  double checkpoint_rel;  // checkpoint interval as a fraction of it (0 = off)
};

// Bit-exact terminal-streamline comparison (both sides sorted by id).
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

}  // namespace

int run_bench(int argc, char** argv) {
  Options opt = parse_options(argc, argv);
  if (!opt.quick && opt.procs == std::vector<int>{64, 128, 256, 512}) {
    opt.procs = {64};  // the sweep varies faults, not scale
  }
  const int procs = opt.procs.front();

  BenchDataset data = make_bench_dataset(
      "supernova", std::make_shared<SupernovaField>());
  Rng seed_rng(2026);
  const auto seeds = random_seeds(
      data.field->bounds(),
      static_cast<std::size_t>(2000 * opt.seeds_scale), seed_rng);

  TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = 1500;

  const std::vector<SweepPoint> grid =
      opt.quick ? std::vector<SweepPoint>{{0.5, 0.0}, {0.5, 0.25}}
                : std::vector<SweepPoint>{{2.0, 0.0},  {1.0, 0.0},
                                          {0.5, 0.0},  {2.0, 0.25},
                                          {1.0, 0.25}, {0.5, 0.25},
                                          {0.5, 0.1}};

  Table table({"algorithm", "procs", "mtbf_s", "checkpoint_s", "wall_s",
               "slowdown", "crashes", "recovered_particles", "steps_redone",
               "recovery_s", "checkpoints", "checkpoint_overhead_s",
               "status"});
  std::map<Algorithm, double> baseline_wall;
  std::map<Algorithm, std::vector<Particle>> baseline_particles;

  for (const Algorithm algo : kAllAlgorithms) {
    ExperimentConfig base;
    base.algorithm = algo;
    base.runtime.num_ranks = procs;
    base.runtime.model = bench_machine(opt.seeds_scale);
    base.runtime.cache_blocks = opt.cache_blocks;
    base.limits = limits;

    const RunMetrics clean = run_experiment(
        base, data.dataset->decomposition(), *data.source, seeds);
    const double T = clean.wall_clock;
    baseline_wall[algo] = T;
    baseline_particles[algo] = clean.particles;
    table.add_row({std::string(to_string(algo)),
                   static_cast<long long>(procs), 0.0, 0.0, T, 1.0,
                   static_cast<long long>(0), static_cast<long long>(0),
                   static_cast<long long>(0), 0.0, static_cast<long long>(0),
                   0.0, std::string(clean.failed_oom ? "OOM" : "baseline")});
    std::cerr << "  baseline: " << to_string(algo) << " T=" << T << "s\n";

    for (const SweepPoint& pt : grid) {
      ExperimentConfig cfg = base;
      cfg.runtime.fault.mtbf = pt.mtbf_rel * T;
      cfg.runtime.fault.max_crashes = 3;
      cfg.runtime.fault.checkpoint_interval = pt.checkpoint_rel * T;

      const RunMetrics m = run_experiment(
          cfg, data.dataset->decomposition(), *data.source, seeds);
      const FaultStats& fs = m.fault;
      table.add_row(
          {std::string(to_string(algo)), static_cast<long long>(procs),
           cfg.runtime.fault.mtbf, cfg.runtime.fault.checkpoint_interval,
           m.wall_clock, T > 0.0 ? m.wall_clock / T : 0.0,
           static_cast<long long>(fs.crashes_injected),
           static_cast<long long>(fs.particles_recovered),
           static_cast<long long>(fs.steps_redone), fs.time_to_recovery,
           static_cast<long long>(fs.checkpoints_taken),
           fs.checkpoint_overhead,
           std::string(m.failed_oom ? "OOM" : "ok")});
      std::cerr << "  done: " << to_string(algo)
                << " mtbf=" << cfg.runtime.fault.mtbf
                << " ckpt=" << cfg.runtime.fault.checkpoint_interval
                << " wall=" << m.wall_clock << "s crashes="
                << fs.crashes_injected << '\n';
    }
  }

  // Coordinator-failure sweep (DESIGN.md §11): kill rank 0 — the hybrid
  // master under hybrid, the termination counter under the other two —
  // mid-run, and compare against a run that shields it through the
  // immune_ranks carve-out (the pre-failover behaviour).  Columns report
  // the failure-detection latency, the crash-to-recovery wall time, and
  // the wall-clock overhead of actually surviving the death.
  Table coord({"algorithm", "procs", "victim", "crash_s", "wall_s",
               "immune_wall_s", "overhead_vs_immune", "detect_latency_s",
               "recovery_wall_s", "recovered_particles", "status"});
  for (const Algorithm algo : kAllAlgorithms) {
    ExperimentConfig base;
    base.algorithm = algo;
    base.runtime.num_ranks = procs;
    base.runtime.model = bench_machine(opt.seeds_scale);
    base.runtime.cache_blocks = opt.cache_blocks;
    base.limits = limits;
    const double crash_at = 0.4 * baseline_wall[algo];

    ExperimentConfig shield = base;
    shield.runtime.fault.crashes = {{crash_at, 0}};
    shield.runtime.fault.immune_ranks = {0};  // carve-out filters the crash
    const RunMetrics immune = run_experiment(
        shield, data.dataset->decomposition(), *data.source, seeds);

    ExperimentConfig cfg = base;
    cfg.runtime.fault.crashes = {{crash_at, 0}};
    const RunMetrics m = run_experiment(
        cfg, data.dataset->decomposition(), *data.source, seeds);
    const FaultStats& fs = m.fault;
    double detect = -1.0, recover = -1.0;
    for (const CrashRecord& rec : fs.crash_records) {
      if (rec.rank != 0) continue;
      if (rec.detect_time >= 0.0) detect = rec.detect_time - rec.crash_time;
      if (rec.recover_time >= 0.0) {
        recover = rec.recover_time - rec.crash_time;
      }
    }
    coord.add_row(
        {std::string(to_string(algo)), static_cast<long long>(procs),
         std::string(algo == Algorithm::kHybridMasterSlave ? "master"
                                                           : "counter"),
         crash_at, m.wall_clock, immune.wall_clock,
         immune.wall_clock > 0.0 ? m.wall_clock / immune.wall_clock : 0.0,
         detect, recover, static_cast<long long>(fs.particles_recovered),
         std::string(m.failed_oom      ? "OOM"
                     : m.failed_fault  ? "fault"
                                       : "ok")});
    std::cerr << "  coordinator crash: " << to_string(algo)
              << " detect=" << detect << "s recover=" << recover
              << "s wall=" << m.wall_clock << "s\n";
  }

  // Straggler mitigation (DESIGN.md §16): put one hybrid slave at a 10x
  // compute slowdown early in the run and compare three runs — fault-free,
  // unmitigated (speculative re-issue disabled, the run waits for the slow
  // rank), and mitigated (busy-second straggler detection + speculative re-issue
  // of the straggler's ledger-owned streamlines to healthy slaves).  The
  // mitigated run must produce bit-identical terminal streamlines; a
  // mismatch fails the bench.  Slowdowns multiply modelled seconds only,
  // so the unmitigated run is bit-identical too — the mitigation is pure
  // wall-clock rescue.
  int failures = 0;
  Table straggler({"algorithm", "procs", "mode", "victim", "slow_factor",
                   "wall_s", "vs_clean", "flagged", "detect_latency_s",
                   "reissued_particles", "wasted_dup_steps", "bit_identical",
                   "status"});
  struct StragglerRow {
    std::string algorithm;
    std::string mode;
    double wall_s = 0.0;
    double vs_clean = 0.0;
    double detect_latency_s = 0.0;
    unsigned long long reissued = 0;
    unsigned long long wasted = 0;
  };
  std::vector<StragglerRow> straggler_rows;
  {
    const Algorithm algo = Algorithm::kHybridMasterSlave;
    ExperimentConfig base;
    base.algorithm = algo;
    base.runtime.num_ranks = procs;
    base.runtime.model = bench_machine(opt.seeds_scale);
    base.runtime.cache_blocks = opt.cache_blocks;
    base.limits = limits;
    const double T = baseline_wall[algo];
    const HybridLayout layout = HybridLayout::make(
        procs, base.hybrid.slaves_per_master, base.hybrid.root_fanout);
    const int victim = layout.num_masters;  // first slave rank
    const double slow_factor = 10.0;
    // Slow the victim from early in the run — late enough that it holds
    // work, early enough that its whole compute phase runs gray — and
    // scale the heartbeat to the run so the detector sees several full
    // progress windows before the victim could drain.
    const SlowdownEvent slow{0.02 * T, victim, slow_factor};

    straggler.add_row({std::string(to_string(algo)),
                       static_cast<long long>(procs),
                       std::string("fault-free"),
                       static_cast<long long>(-1), 1.0, T, 1.0,
                       static_cast<long long>(0), 0.0,
                       static_cast<long long>(0), static_cast<long long>(0),
                       std::string("yes"), std::string("baseline")});
    straggler_rows.push_back(
        {std::string(to_string(algo)), "fault-free", T, 1.0, 0.0, 0, 0});

    for (const bool mitigated : {false, true}) {
      ExperimentConfig cfg = base;
      cfg.runtime.fault.slowdowns = {slow};
      cfg.runtime.fault.heartbeat_period = std::max(1e-4, 0.01 * T);
      cfg.hybrid.speculative_reissue = mitigated;
      const RunMetrics m = run_experiment(
          cfg, data.dataset->decomposition(), *data.source, seeds);
      const FaultStats& fs = m.fault;
      const bool identical =
          particles_identical(baseline_particles[algo], m.particles);
      if (!identical) ++failures;
      const double ratio = T > 0.0 ? m.wall_clock / T : 0.0;
      const bool slow_miss = mitigated && ratio > 1.5;
      straggler.add_row(
          {std::string(to_string(algo)), static_cast<long long>(procs),
           std::string(mitigated ? "mitigated" : "unmitigated"),
           static_cast<long long>(victim), slow_factor, m.wall_clock, ratio,
           static_cast<long long>(fs.stragglers_flagged),
           fs.straggler_detect_latency,
           static_cast<long long>(fs.particles_speculated),
           static_cast<long long>(fs.wasted_duplicate_steps),
           std::string(identical ? "yes" : "NO"),
           std::string(!identical  ? "MISMATCH"
                       : slow_miss ? "SLOW"
                                   : "ok")});
      straggler_rows.push_back({std::string(to_string(algo)),
                                mitigated ? "mitigated" : "unmitigated",
                                m.wall_clock, ratio,
                                fs.straggler_detect_latency,
                                fs.particles_speculated,
                                fs.wasted_duplicate_steps});
      std::cerr << "  straggler " << (mitigated ? "mitigated" : "unmitigated")
                << ": wall=" << m.wall_clock << "s (" << ratio
                << "x clean), flagged=" << fs.stragglers_flagged
                << " reissued=" << fs.particles_speculated
                << " identical=" << (identical ? "yes" : "NO") << '\n';
    }
  }

  // Corruption tolerance: silent payload bit-flips on 1 in 1000 block
  // reads.  The checksum catches every flip, the read retries on the
  // capped-backoff ladder, and all three algorithms must complete with
  // trajectories bit-identical to the fault-free run (zero wrong results).
  Table corrupt({"algorithm", "procs", "corrupt_rate", "wall_s", "vs_clean",
                 "corruptions_injected", "corruptions_detected",
                 "trajectories_match", "status"});
  for (const Algorithm algo : kAllAlgorithms) {
    ExperimentConfig cfg;
    cfg.algorithm = algo;
    cfg.runtime.num_ranks = procs;
    cfg.runtime.model = bench_machine(opt.seeds_scale);
    cfg.runtime.cache_blocks = opt.cache_blocks;
    cfg.limits = limits;
    cfg.runtime.fault.corrupt_rate = 1e-3;
    const RunMetrics m = run_experiment(
        cfg, data.dataset->decomposition(), *data.source, seeds);
    const FaultStats& fs = m.fault;
    const bool identical =
        particles_identical(baseline_particles[algo], m.particles);
    if (!identical || m.failed_fault) ++failures;
    const double T = baseline_wall[algo];
    corrupt.add_row(
        {std::string(to_string(algo)), static_cast<long long>(procs), 1e-3,
         m.wall_clock, T > 0.0 ? m.wall_clock / T : 0.0,
         static_cast<long long>(fs.corruptions_injected),
         static_cast<long long>(fs.corruptions_detected),
         std::string(identical ? "yes" : "NO"),
         std::string(m.failed_oom     ? "OOM"
                     : m.failed_fault ? "fault"
                     : identical      ? "ok"
                                      : "MISMATCH")});
    std::cerr << "  corruption: " << to_string(algo)
              << " injected=" << fs.corruptions_injected
              << " detected=" << fs.corruptions_detected
              << " identical=" << (identical ? "yes" : "NO") << '\n';
  }

  std::cout << "\nFault sweep: crash survival cost vs. MTBF and checkpoint "
               "cadence (P="
            << procs << ", seeds-scale=" << opt.seeds_scale << ")\n";
  table.print(std::cout);
  std::cout << "\nCoordinator failure: master / termination-counter death "
               "vs. immune baseline\n";
  coord.print(std::cout);
  std::cout << "\nStraggler mitigation: one slave at 10x slowdown, busy-rate "
               "detection + speculative re-issue\n";
  straggler.print(std::cout);
  std::cout << "\nCorruption tolerance: checksum-caught bit-flips at 1e-3 "
               "per read\n";
  corrupt.print(std::cout);
  if (opt.csv_dir) {
    const std::string path = *opt.csv_dir + "/fault_sweep.csv";
    table.write_csv(path);
    std::cout << "csv written to " << path << '\n';
    const std::string coord_path =
        *opt.csv_dir + "/fault_sweep_coordinator.csv";
    coord.write_csv(coord_path);
    std::cout << "csv written to " << coord_path << '\n';
    const std::string strag_path = *opt.csv_dir + "/fault_sweep_straggler.csv";
    straggler.write_csv(strag_path);
    std::cout << "csv written to " << strag_path << '\n';
    const std::string corrupt_path =
        *opt.csv_dir + "/fault_sweep_corruption.csv";
    corrupt.write_csv(corrupt_path);
    std::cout << "csv written to " << corrupt_path << '\n';

    // compare.py-consumable summary of the straggler table ("bench":
    // "fault_straggler", keyed by algorithm+mode).
    const std::string json_path = *opt.csv_dir + "/fault_straggler.json";
    std::ofstream out(json_path);
    out << "{\n \"bench\": \"fault_straggler\",\n"
        << " \"procs\": " << procs << ",\n"
        << " \"seeds_scale\": " << opt.seeds_scale << ",\n"
        << " \"results\": [\n";
    for (std::size_t i = 0; i < straggler_rows.size(); ++i) {
      const StragglerRow& r = straggler_rows[i];
      out << "  {\n"
          << "   \"algorithm\": \"" << r.algorithm << "\",\n"
          << "   \"mode\": \"" << r.mode << "\",\n"
          << "   \"wall_s\": " << r.wall_s << ",\n"
          << "   \"vs_clean\": " << r.vs_clean << ",\n"
          << "   \"detect_latency_s\": " << r.detect_latency_s << ",\n"
          << "   \"reissued_particles\": " << r.reissued << ",\n"
          << "   \"wasted_dup_steps\": " << r.wasted << "\n"
          << "  }" << (i + 1 < straggler_rows.size() ? "," : "") << "\n";
    }
    out << " ]\n}\n";
    std::cout << "json written to " << json_path << '\n';
  }
  if (failures > 0) {
    std::cerr << "FAILURES: " << failures
              << " run(s) with non-identical trajectories\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
