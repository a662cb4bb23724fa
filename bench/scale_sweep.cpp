// Weak-scaling sweep of the hybrid runtime (DESIGN.md §15): hold the
// seed count per rank fixed and grow the machine from 64 to 16K ranks.
// The paper stops at 512 processors; the master tree plus the O(1)
// per-event coordination paths are what let the same runtime weak-scale
// past that.  Rows record wall clock, control-message volume *per rank*
// (the coordination cost the tree is meant to flatten) and the bytes
// funnelled into the termination counter at rank 0 (the root hot-spot).
//
// Flags (all optional):
//   --procs=64,256,...   rank counts to sweep
//   --seeds-per-rank=N   weak-scaling constant (default 4)
//   --out=PATH           output JSON path (default BENCH_scale.json)
//   --quick              small preset for the CI smoke job

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "algorithms/hybrid.hpp"
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "io/csv.hpp"

namespace {

struct ScaleOptions {
  std::vector<int> procs = {64, 256, 1024, 4096, 16384};
  int seeds_per_rank = 4;
  std::size_t cache_blocks = 96;
  std::string out = "BENCH_scale.json";
  bool quick = false;
};

ScaleOptions parse(int argc, char** argv) {
  ScaleOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--procs=", 0) == 0) {
      opt.procs = sf::bench::flag_int_list("procs", arg.substr(8), 1);
    } else if (arg.rfind("--seeds-per-rank=", 0) == 0) {
      opt.seeds_per_rank =
          sf::bench::flag_int("seeds-per-rank", arg.substr(17), 1);
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.procs = {64, 1024, 4096};
      opt.seeds_per_rank = 2;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

struct Row {
  int procs = 0;
  int masters = 0;
  int roots = 0;
  std::size_t seeds = 0;
  sf::RunMetrics m;
};

}  // namespace

int run_bench(int argc, char** argv) {
  const ScaleOptions opt = parse(argc, argv);

  sf::bench::BenchDataset data = sf::bench::make_bench_dataset(
      "supernova", std::make_shared<sf::SupernovaField>());

  sf::TraceLimits limits;
  limits.max_steps = 400;
  limits.max_time = 10.0;

  std::vector<Row> rows;
  for (const int procs : opt.procs) {
    // Weak scaling: the problem grows with the machine.  Every rank
    // count draws its seed prefix from the same stream, so smaller runs
    // are strict subsets of larger ones.
    sf::Rng seed_rng(2009);
    const auto seeds = sf::random_seeds(
        data.field->bounds(),
        static_cast<std::size_t>(procs) *
            static_cast<std::size_t>(opt.seeds_per_rank),
        seed_rng);

    sf::ExperimentConfig cfg;
    cfg.algorithm = sf::Algorithm::kHybridMasterSlave;
    cfg.runtime.num_ranks = procs;
    cfg.runtime.model = sf::bench::bench_machine(1.0);
    cfg.runtime.cache_blocks = opt.cache_blocks;
    cfg.limits = limits;

    const sf::HybridLayout layout = sf::HybridLayout::make(
        procs, cfg.hybrid.slaves_per_master, cfg.hybrid.root_fanout);

    Row row;
    row.procs = procs;
    row.masters = layout.num_masters;
    row.roots = layout.num_roots;
    row.seeds = seeds.size();
    row.m = sf::run_experiment(cfg, data.dataset->decomposition(),
                               *data.source, seeds);
    std::cerr << "  done: P=" << procs << " masters=" << row.masters
              << " roots=" << row.roots << "  wall=" << row.m.wall_clock
              << "  ctrl/rank="
              << static_cast<double>(row.m.total_control_messages()) /
                     static_cast<double>(procs)
              << (row.m.failed_oom ? "  [OOM]" : "") << '\n';
    rows.push_back(std::move(row));
  }

  sf::Table table({"procs", "masters", "roots", "seeds", "wall_s",
                   "ctrl_msgs_per_rank", "bytes_at_root", "messages",
                   "sent_MB", "status"});
  for (const Row& row : rows) {
    table.add_row(
        {static_cast<long long>(row.procs),
         static_cast<long long>(row.masters),
         static_cast<long long>(row.roots),
         static_cast<long long>(row.seeds),
         row.m.failed_oom ? -1.0 : row.m.wall_clock,
         static_cast<double>(row.m.total_control_messages()) /
             static_cast<double>(row.procs),
         static_cast<long long>(row.m.ranks[0].bytes_received),
         static_cast<long long>(row.m.total_messages()),
         static_cast<double>(row.m.total_bytes_sent()) / (1 << 20),
         std::string(row.m.failed_oom ? "OOM" : "ok")});
  }
  std::cout << "\n== Weak scaling: hybrid master tree ==\n"
            << "seeds-per-rank=" << opt.seeds_per_rank
            << "  blocks=512 (12 MB modelled)  cache=" << opt.cache_blocks
            << " blocks\n";
  table.print(std::cout);

  std::ofstream out(opt.out);
  out << "{\n \"bench\": \"scale_sweep\",\n"
      << " \"seeds_per_rank\": " << opt.seeds_per_rank << ",\n"
      << " \"max_steps\": " << limits.max_steps << ",\n"
      << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "  {\n"
        << "   \"procs\": " << row.procs << ",\n"
        << "   \"masters\": " << row.masters << ",\n"
        << "   \"roots\": " << row.roots << ",\n"
        << "   \"seeds\": " << row.seeds << ",\n"
        << "   \"wall_s\": " << row.m.wall_clock << ",\n"
        << "   \"ctrl_msgs_per_rank\": "
        << static_cast<double>(row.m.total_control_messages()) /
               static_cast<double>(row.procs)
        << ",\n"
        << "   \"bytes_at_root\": " << row.m.ranks[0].bytes_received
        << ",\n"
        << "   \"messages\": " << row.m.total_messages() << ",\n"
        << "   \"status\": \"" << (row.m.failed_oom ? "OOM" : "ok")
        << "\"\n"
        << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << " ]\n}\n";
  std::cout << "json written to " << opt.out << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
