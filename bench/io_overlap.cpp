// Compute/I-O overlap benchmark (the regression gate for the async
// block-I/O layer, DESIGN.md §10).
//
// Runs the three algorithms through the simulated runtime twice per
// scenario — synchronous demand loading vs. the async prefetch pipeline
// — and reports wall clock, demand-stall time, prefetch accuracy, cache
// hit rate and the paper's E-metric.  The simulation models overlap the
// same way the thread runtime realises it (prefetched reads burn disk
// channel time but never stall the rank; a demand that finds its block
// staged pays nothing), so the numbers are deterministic: one rep per
// cell, no timing noise, and the JSON is diffable run to run.
//
// Regimes:
//   constrained : the per-rank LRU holds a small fraction of the 512
//                 blocks — the paper's regime, where streamlines evict
//                 each other's working set and demand misses dominate.
//                 This is where overlap pays: the dense cell is the
//                 acceptance gate (async >= 1.5x over sync).
//   roomy       : a cache big enough that reloads are rare; async must
//                 not slow this down (prefetch work is nearly free).
//
// Results are written as JSON for tools/bench/compare.py.
//
// Flags:
//   --procs=N           simulated ranks (default 32)
//   --seeds=N           streamlines per scenario (default 3000)
//   --out=PATH          output JSON path (default BENCH_io.json)
//   --quick             smoke preset: 8 ranks, 600 seeds

#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "bench_flags.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "io/csv.hpp"

namespace {

struct Options {
  int procs = 32;
  std::size_t seeds = 3000;
  std::string out = "BENCH_io.json";
  bool quick = false;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--procs=", 0) == 0) {
      opt.procs = sf::bench::flag_int("procs", arg.substr(8), 1);
    } else if (arg.rfind("--seeds=", 0) == 0) {
      opt.seeds = static_cast<std::size_t>(
          sf::bench::flag_int("seeds", arg.substr(8), 1));
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.procs = 8;
      opt.seeds = 600;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

// An I/O-bound JaguarPF-like machine: 12 MB blocks behind a disk slow
// enough that a demand miss costs about as much as integrating the
// particles it unblocks.  Overlap can at best halve the wall clock in
// that balance; the gap between this bound and the measured speedup is
// the predictors' miss rate.
sf::MachineModel io_bound_machine() {
  sf::MachineModel m = sf::MachineModel::jaguar_like();
  m.io_bandwidth = 400.0 * (1 << 20);  // ~30 ms per 12 MB block
  m.io_latency = 5e-3;
  // Each simulated streamline stands in for many paper streamlines (cf.
  // bench_common's seeds_scale): charge its integration accordingly so
  // per-rank compute and per-rank I/O are the same order — the balance
  // the paper's machines ran at, and the one where overlap is decisive.
  m.seconds_per_step = 1e-4;
  m.particle_memory_bytes = 1ull << 30;  // memory pressure is not the topic
  return m;
}

struct Row {
  std::string algorithm, seeding, cache, mode;
  sf::RunMetrics m;
  double speedup = 1.0;  // async row: sync wall / async wall
};

}  // namespace

int run_bench(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  auto field = std::make_shared<sf::SupernovaField>();
  const sf::BlockDecomposition decomp(field->bounds(), 8, 8, 8);  // 512
  auto dataset = std::make_shared<sf::BlockedDataset>(
      field, decomp, /*nodes_per_axis=*/9, /*ghost_cells=*/2);
  const sf::DatasetBlockSource source(dataset, /*modelled_bytes=*/12u << 20);

  sf::Rng rng(0x10ab5);
  struct Scenario {
    std::string name;
    std::vector<sf::Vec3> seeds;
  };
  const Scenario scenarios[] = {
      {"sparse", sf::random_seeds(field->bounds(), opt.seeds, rng)},
      // Dense: the paper's proto-neutron-star shell — the cohort moves
      // through the same few blocks together, the prefetcher's best and
      // the constrained LRU's worst case.
      {"dense", sf::cluster_seeds({0.25, 0.0, 0.0}, 0.18, opt.seeds, rng,
                                  field->bounds())},
  };

  struct Regime {
    std::string name;
    std::size_t cache_blocks;
  };
  const Regime regimes[] = {
      {"constrained", 12},
      {"roomy", 96},
  };

  constexpr sf::Algorithm kAlgorithms[] = {
      sf::Algorithm::kStaticAllocation, sf::Algorithm::kLoadOnDemand,
      sf::Algorithm::kHybridMasterSlave};

  sf::TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = opt.quick ? 500 : 1500;

  std::vector<Row> rows;
  for (const Regime& regime : regimes) {
    for (const Scenario& scenario : scenarios) {
      for (const sf::Algorithm algo : kAlgorithms) {
        sf::ExperimentConfig cfg;
        cfg.algorithm = algo;
        cfg.runtime.num_ranks = opt.procs;
        cfg.runtime.model = io_bound_machine();
        cfg.runtime.cache_blocks = regime.cache_blocks;
        cfg.limits = limits;

        double sync_wall = 0.0;
        for (const bool async : {false, true}) {
          cfg.runtime.async_io.enabled = async;
          cfg.runtime.async_io.prefetch_depth = 12;
          cfg.runtime.async_io.staging_blocks = 16;

          Row row;
          row.algorithm = sf::to_string(algo);
          row.seeding = scenario.name;
          row.cache = regime.name;
          row.mode = async ? "async" : "sync";
          row.m = sf::run_experiment(cfg, decomp, source, scenario.seeds);
          if (async) {
            row.speedup = sync_wall / row.m.wall_clock;
          } else {
            sync_wall = row.m.wall_clock;
          }
          std::cerr << "  done: " << regime.name << " " << scenario.name
                    << " " << row.algorithm << " " << row.mode << "  wall="
                    << row.m.wall_clock << '\n';
          rows.push_back(std::move(row));
        }
      }
    }
  }

  sf::Table table({"cache", "seeding", "algorithm", "mode", "wall_s",
                   "stall_s", "io_s", "block_E", "hit_rate", "loads",
                   "prefetches", "pf_hits", "pf_accuracy", "speedup"});
  for (const Row& row : rows) {
    table.add_row({row.cache, row.seeding, row.algorithm, row.mode,
                   row.m.wall_clock, row.m.total_stall_time(),
                   row.m.total_io_time(), row.m.block_efficiency(),
                   row.m.cache_hit_rate(),
                   static_cast<long long>(row.m.total_blocks_loaded()),
                   static_cast<long long>(row.m.total_prefetches_issued()),
                   static_cast<long long>(row.m.total_prefetch_hits()),
                   row.m.prefetch_accuracy(), row.speedup});
  }
  std::cout << "\n== Async block I/O: compute/I-O overlap ==\n"
            << "procs=" << opt.procs << "  seeds=" << opt.seeds
            << "  blocks=512 (12 MB modelled)\n";
  table.print(std::cout);

  std::ofstream out(opt.out);
  out << "{\n \"bench\": \"io_overlap\",\n"
      << " \"procs\": " << opt.procs << ",\n"
      << " \"seeds\": " << opt.seeds << ",\n"
      << " \"max_steps\": " << limits.max_steps << ",\n"
      << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "  {\n"
        << "   \"algorithm\": \"" << row.algorithm << "\",\n"
        << "   \"seeding\": \"" << row.seeding << "\",\n"
        << "   \"cache\": \"" << row.cache << "\",\n"
        << "   \"mode\": \"" << row.mode << "\",\n"
        << "   \"wall_s\": " << row.m.wall_clock << ",\n"
        << "   \"stall_s\": " << row.m.total_stall_time() << ",\n"
        << "   \"io_s\": " << row.m.total_io_time() << ",\n"
        << "   \"block_E\": " << row.m.block_efficiency() << ",\n"
        << "   \"hit_rate\": " << row.m.cache_hit_rate() << ",\n"
        << "   \"loads\": " << row.m.total_blocks_loaded() << ",\n"
        << "   \"purges\": " << row.m.total_blocks_purged() << ",\n"
        << "   \"prefetches\": " << row.m.total_prefetches_issued() << ",\n"
        << "   \"prefetch_hits\": " << row.m.total_prefetch_hits() << ",\n"
        << "   \"prefetch_accuracy\": " << row.m.prefetch_accuracy() << ",\n"
        << "   \"speedup_vs_sync\": " << row.speedup << "\n"
        << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << " ]\n}\n";
  std::cout << "json written to " << opt.out << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
