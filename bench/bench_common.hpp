#pragma once

// Shared harness for the figure-reproduction binaries (bench/fig_*).
//
// Each binary regenerates the rows/series of the paper's figures for one
// dataset: wall clock, total I/O time, total communication time and
// block efficiency for all three algorithms across processor counts and
// sparse/dense seeding (Figures 5-16).  Absolute values come from the
// simulated JaguarPF-like machine (DESIGN.md §2); the *shapes* are the
// reproduction target and are recorded in EXPERIMENTS.md.
//
// Common flags (all optional):
//   --procs=64,128,256,512   processor counts to sweep
//   --seeds-scale=0.5        fraction of the paper's seed counts to run
//   --quick                  tiny preset for smoke runs
//   --csv=DIR                also write a CSV per figure set into DIR

#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "bench_flags.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "io/csv.hpp"

namespace sf::bench {

struct Options {
  std::vector<int> procs = {64, 128, 256, 512};
  double seeds_scale = 0.5;
  // Paper-scale nodes had ~1.3 GB/core for 12 MB blocks => ~100 blocks.
  std::size_t cache_blocks = 96;
  std::optional<std::string> csv_dir;
  bool quick = false;
};

inline Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--procs=", 0) == 0) {
      opt.procs = flag_int_list("procs", arg.substr(8), 1);
    } else if (arg.rfind("--seeds-scale=", 0) == 0) {
      opt.seeds_scale = flag_double("seeds-scale", arg.substr(14));
    } else if (arg.rfind("--csv=", 0) == 0) {
      opt.csv_dir = arg.substr(6);
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.procs = {16, 64};
      opt.seeds_scale = 0.02;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

// The paper's data scale: 512 blocks of 1M cells (~12 MB of vector data
// per block).  We sample the analytic stand-in at reduced resolution but
// charge I/O at full block size.
struct BenchDataset {
  std::string name;
  FieldPtr field;
  DatasetPtr dataset;
  std::unique_ptr<DatasetBlockSource> source;
};

inline BenchDataset make_bench_dataset(std::string name, FieldPtr field,
                                       int nodes_per_axis = 9) {
  BenchDataset d;
  d.name = std::move(name);
  d.field = field;
  const BlockDecomposition decomp(field->bounds(), 8, 8, 8);  // 512 blocks
  d.dataset =
      std::make_shared<BlockedDataset>(field, decomp, nodes_per_axis, 2);
  d.source = std::make_unique<DatasetBlockSource>(
      d.dataset, /*modelled_bytes=*/12u << 20);
  return d;
}

// One seeding scenario of a figure set.
struct Scenario {
  std::string seeding;  // "sparse" / "dense"
  std::vector<Vec3> seeds;
};

inline MachineModel bench_machine(double seeds_scale) {
  MachineModel m = MachineModel::jaguar_like();
  // The per-rank particle memory budget scales with the seed downscale so
  // the paper-scale memory pressure (Figure 13's OOM) is preserved.
  m.particle_memory_bytes = static_cast<std::size_t>(
      static_cast<double>(512ull << 20) * seeds_scale);
  // A 2009-era VisIt streamline object (VTK polyline + attribute arrays
  // + solver bookkeeping) weighs tens of KB beyond its raw geometry.
  m.particle_overhead_bytes = 32 << 10;
  // Each simulated streamline stands for 1/scale paper streamlines:
  // charge its integration accordingly, so the compute-to-I/O balance —
  // which decides every crossover in §5 — matches the full-size runs.
  m.seconds_per_step /= seeds_scale;
  return m;
}

constexpr Algorithm kAllAlgorithms[] = {Algorithm::kStaticAllocation,
                                        Algorithm::kLoadOnDemand,
                                        Algorithm::kHybridMasterSlave};

// Run the full sweep for one dataset and print/persist the figure rows.
inline void run_figure_set(const Options& opt, const BenchDataset& data,
                           const std::vector<Scenario>& scenarios,
                           const TraceLimits& limits,
                           const std::string& figure_note) {
  Table table({"dataset", "seeding", "algorithm", "procs", "wall_s",
               "io_total_s", "stall_s", "comm_total_s", "block_E",
               "hit_rate", "blocks_loaded", "blocks_purged", "messages",
               "sent_MB", "status"});

  for (const Scenario& scenario : scenarios) {
    for (const Algorithm algo : kAllAlgorithms) {
      for (const int procs : opt.procs) {
        ExperimentConfig cfg;
        cfg.algorithm = algo;
        cfg.runtime.num_ranks = procs;
        cfg.runtime.model = bench_machine(opt.seeds_scale);
        cfg.runtime.cache_blocks = opt.cache_blocks;
        cfg.limits = limits;

        const RunMetrics m =
            run_experiment(cfg, data.dataset->decomposition(), *data.source,
                           scenario.seeds);

        table.add_row(
            {data.name, scenario.seeding, std::string(to_string(algo)),
             static_cast<long long>(procs),
             m.failed_oom ? -1.0 : m.wall_clock, m.total_io_time(),
             m.total_stall_time(), m.total_comm_time(),
             m.block_efficiency(), m.cache_hit_rate(),
             static_cast<long long>(m.total_blocks_loaded()),
             static_cast<long long>(m.total_blocks_purged()),
             static_cast<long long>(m.total_messages()),
             static_cast<double>(m.total_bytes_sent()) / (1 << 20),
             std::string(m.failed_oom ? "OOM" : "ok")});

        std::cerr << "  done: " << scenario.seeding << " "
                  << to_string(algo) << " P=" << procs
                  << (m.failed_oom ? "  [OOM]" : "") << '\n';
      }
    }
  }

  std::cout << '\n' << figure_note << '\n';
  std::cout << "dataset=" << data.name << "  blocks=512 (12 MB modelled)"
            << "  seeds-scale=" << opt.seeds_scale
            << "  cache=" << opt.cache_blocks << " blocks\n";
  table.print(std::cout);
  if (opt.csv_dir) {
    const std::string path = *opt.csv_dir + "/" + data.name + ".csv";
    table.write_csv(path);
    std::cout << "csv written to " << path << '\n';
  }
}

}  // namespace sf::bench
