// Processor-utilization report (§8: "processor starvation is often a
// limitation to large scalability ... observing communication and
// processor utilization patterns" is the paper's proposed next step).
//
// Runs all three algorithms on the astro dense problem with timeline
// recording and prints, per algorithm: the system utilization curve over
// ten slices of the run, mean/peak utilization and starved rank-seconds.
//
// Flags: --procs=P (single value, default 64), --seeds-scale (default
// 0.2), --csv=DIR

#include <cmath>

#include "bench_common.hpp"

int run_bench(int argc, char** argv) {
  auto opt = sf::bench::parse_options(argc, argv);
  if (opt.procs.size() > 1) opt.procs = {64};
  const int procs = opt.procs.front();
  if (opt.seeds_scale == 0.5) opt.seeds_scale = 0.2;

  auto field = std::make_shared<sf::SupernovaField>();
  const auto data = sf::bench::make_bench_dataset("astro-util", field);

  sf::Rng rng(0x0717);
  const auto seeds = sf::cluster_seeds(
      {0.25, 0.0, 0.0}, 0.18,
      static_cast<std::size_t>(20000 * opt.seeds_scale), rng,
      field->bounds());

  std::vector<std::string> columns{"algorithm", "wall_s", "mean_util",
                                   "peak_util", "starved_rank_s"};
  for (int b = 1; b <= 10; ++b) {
    std::string label = "u";
    label += std::to_string(b);
    columns.push_back(std::move(label));
  }
  sf::Table table(columns);

  for (const sf::Algorithm algo : sf::bench::kAllAlgorithms) {
    sf::ExperimentConfig cfg;
    cfg.algorithm = algo;
    cfg.runtime.num_ranks = procs;
    cfg.runtime.model = sf::bench::bench_machine(opt.seeds_scale);
    cfg.runtime.model.particle_memory_bytes = 8ull << 30;  // study balance,
    cfg.runtime.cache_blocks = opt.cache_blocks;           // not OOM
    cfg.runtime.record_timeline = true;
    cfg.limits.max_time = 15.0;
    cfg.limits.max_steps = 1500;

    const sf::RunMetrics m = sf::run_experiment(
        cfg, data.dataset->decomposition(), *data.source, seeds);
    const auto curve = m.timeline->utilization_curve(m.wall_clock, 10);
    double peak = 0.0;
    for (const double u : curve) peak = std::max(peak, u);

    std::vector<sf::Table::Cell> row;
    row.reserve(15);
    row.emplace_back(std::string(to_string(algo)));
    row.emplace_back(m.wall_clock);
    row.emplace_back(m.mean_utilization());
    row.emplace_back(peak);
    row.emplace_back(m.timeline->total_starved_seconds(m.wall_clock));
    for (const double u : curve) row.emplace_back(u);
    table.add_row(std::move(row));
    std::cerr << "  done: " << to_string(algo) << '\n';
  }

  std::cout << "\n== Processor utilization over the run (astro dense, P="
            << procs << ", seeds-scale=" << opt.seeds_scale << ") ==\n"
            << "u1..u10 = fraction of all ranks computing during each "
               "tenth of the run.\n";
  table.print(std::cout);
  if (opt.csv_dir) table.write_csv(*opt.csv_dir + "/utilization.csv");
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
