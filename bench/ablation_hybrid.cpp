// Ablation study of the Hybrid Master/Slave heuristics (§4.3): how the
// assignment batch N, overload limit NO, load threshold NL, the
// slaves-per-master ratio W and the cache capacity move wall clock, I/O
// and communication.  The paper fixes N=10, NO=20N, NL=40, W=32 "to
// obtain good results"; this harness regenerates the evidence.
//
// Flags: --seeds-scale=X (default 0.05), --procs=P (single value, default
// 128), --csv=DIR

#include <cmath>

#include "bench_common.hpp"

namespace {

struct AblationRow {
  std::string knob;
  long long value;
  sf::RunMetrics metrics;
};

}  // namespace

int run_bench(int argc, char** argv) {
  auto opt = sf::bench::parse_options(argc, argv);
  if (opt.procs.size() > 1) opt.procs = {opt.procs.front()};
  const int procs = opt.procs.empty() ? 128 : opt.procs.front();
  if (opt.seeds_scale == 0.5) opt.seeds_scale = 0.2;  // default override

  auto field = std::make_shared<sf::SupernovaField>();
  const auto data = sf::bench::make_bench_dataset("astro-ablation", field);

  sf::Rng rng(0xab1a7e);
  const auto seeds = sf::cluster_seeds(
      {0.25, 0.0, 0.0}, 0.12,
      static_cast<std::size_t>(20000 * opt.seeds_scale), rng,
      field->bounds());

  sf::TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = 1500;

  auto base_config = [&] {
    sf::ExperimentConfig cfg;
    cfg.algorithm = sf::Algorithm::kHybridMasterSlave;
    cfg.runtime.num_ranks = procs;
    cfg.runtime.model = sf::bench::bench_machine(opt.seeds_scale);
    cfg.runtime.cache_blocks = opt.cache_blocks;
    cfg.limits = limits;
    return cfg;
  };

  sf::Table table({"knob", "value", "wall_s", "io_total_s", "comm_total_s",
                   "block_E", "messages", "sent_MB", "status"});
  auto run = [&](const std::string& knob, long long value,
                 const sf::ExperimentConfig& cfg) {
    const sf::RunMetrics m = sf::run_experiment(
        cfg, data.dataset->decomposition(), *data.source, seeds);
    table.add_row({knob, value, m.failed_oom ? -1.0 : m.wall_clock,
                   m.total_io_time(), m.total_comm_time(),
                   m.block_efficiency(),
                   static_cast<long long>(m.total_messages()),
                   static_cast<double>(m.total_bytes_sent()) / (1 << 20),
                   std::string(m.failed_oom ? "OOM" : "ok")});
    std::cerr << "  done: " << knob << "=" << value << '\n';
  };

  // N: assignment granularity (paper default 10).
  for (const int n : {1, 5, 10, 20, 40}) {
    auto cfg = base_config();
    cfg.hybrid.assign_batch = n;
    run("N(assign-batch)", n, cfg);
  }
  // NO/N: overload factor (paper default 20).
  for (const int f : {2, 5, 10, 20, 40}) {
    auto cfg = base_config();
    cfg.hybrid.overload_factor = f;
    run("NO/N(overload)", f, cfg);
  }
  // NL: load-vs-migrate threshold (paper default 40).
  for (const int nl : {5, 10, 20, 40, 80, 160}) {
    auto cfg = base_config();
    cfg.hybrid.load_threshold = nl;
    run("NL(load-threshold)", nl, cfg);
  }
  // W: slaves per master (paper default 32).
  for (const int w : {8, 16, 32, 64, 128}) {
    auto cfg = base_config();
    cfg.hybrid.slaves_per_master = w;
    run("W(slaves/master)", w, cfg);
  }
  // Cache capacity, in blocks.
  for (const int cache : {4, 8, 16, 32, 64}) {
    auto cfg = base_config();
    cfg.runtime.cache_blocks = static_cast<std::size_t>(cache);
    run("cache(blocks)", cache, cfg);
  }
  // §8's proposed optimization: communicate solver state only instead of
  // full trajectory geometry (run for hybrid AND static — static is
  // where geometry-laden hand-offs dominate).
  for (const int carry : {1, 0}) {
    auto cfg = base_config();
    cfg.runtime.carry_geometry = (carry == 1);
    // These rows compare communication volume, so lift the memory limit:
    // static would otherwise OOM on this dense seeding (that failure
    // mode has its own figure — see fig_thermal).
    cfg.runtime.model.particle_memory_bytes = 8ull << 30;
    run("hybrid-carry-geometry", carry, cfg);
    cfg.algorithm = sf::Algorithm::kStaticAllocation;
    run("static-carry-geometry", carry, cfg);
  }
  // Filesystem parallelism: how many concurrent servers the shared disk
  // offers.  Redundant-I/O algorithms live or die by this.
  for (const int channels : {8, 32, 128, 512}) {
    auto cfg = base_config();
    cfg.runtime.model.io_channels = channels;
    run("io-channels", channels, cfg);
    cfg.algorithm = sf::Algorithm::kLoadOnDemand;
    run("lod-io-channels", channels, cfg);
  }

  std::cout << "\n== Hybrid Master/Slave heuristic ablations (astro dense, "
            << "P=" << procs << ", seeds-scale=" << opt.seeds_scale
            << ") ==\n";
  table.print(std::cout);
  if (opt.csv_dir) {
    table.write_csv(*opt.csv_dir + "/ablation_hybrid.csv");
  }
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
