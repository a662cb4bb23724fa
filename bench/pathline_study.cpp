// Pathline I/O study (§8 of the paper, future work): "computing
// pathlines leads to many small reads that can often overwhelm the file
// system".  This harness quantifies that with the Load-On-Demand
// pathline engine: I/O time and loads as the number of time slices and
// the cache capacity vary, against a steady (2-slice) baseline of the
// same flow.
//
// Flags: --seeds-scale (default 0.25 of 4,096 seeds), --procs=P (single
// value, default 64), --csv=DIR

#include <cmath>

#include "analysis/pathline_lod.hpp"
#include "analysis/time_field.hpp"
#include "bench_common.hpp"

namespace {

struct GyreFrozen final : public sf::VectorField {
  explicit GyreFrozen(double t) : t_(t) {}
  bool sample(const sf::Vec3& p, sf::Vec3& out) const override {
    return f_.sample(p, t_, out);
  }
  sf::AABB bounds() const override { return f_.bounds(); }
  sf::DoubleGyreField f_;
  double t_;
};

}  // namespace

int run_bench(int argc, char** argv) {
  auto opt = sf::bench::parse_options(argc, argv);
  if (opt.procs.size() > 1) opt.procs = {64};
  const int procs = opt.procs.front();
  if (opt.seeds_scale == 0.5) opt.seeds_scale = 0.25;

  const sf::DoubleGyreField gyre;
  const sf::BlockDecomposition decomp(gyre.bounds(), 8, 8, 1);
  const double horizon = 10.0;

  auto make_slices = [&](int n) {
    std::pair<std::vector<sf::DatasetPtr>, std::vector<double>> out;
    for (int i = 0; i < n; ++i) {
      const double t = horizon * i / (n - 1);
      out.first.push_back(std::make_shared<sf::BlockedDataset>(
          std::make_shared<GyreFrozen>(t), decomp, 9, 2));
      out.second.push_back(t);
    }
    return out;
  };

  const auto n_seeds = static_cast<std::size_t>(4096 * opt.seeds_scale);
  sf::Rng rng2(0x9a71e);
  std::vector<sf::Vec3> seeds;
  for (std::size_t i = 0; i < n_seeds; ++i) {
    seeds.push_back(
        {rng2.uniform(0.1, 1.9), rng2.uniform(0.1, 0.9), 0.0});
  }

  sf::Table table({"slices", "cache_blocks", "wall_s", "io_total_s",
                   "blocks_loaded", "blocks_purged", "block_E", "status"});

  for (const int slices : {2, 5, 9, 17, 33}) {
    for (const std::size_t cache : {8ul, 24ul, 64ul}) {
      auto [data, times] = make_slices(slices);
      sf::PathlineExperimentConfig cfg;
      cfg.runtime.num_ranks = procs;
      cfg.runtime.model = sf::bench::bench_machine(opt.seeds_scale);
      cfg.runtime.cache_blocks = cache;
      cfg.limits.max_time = horizon;
      cfg.limits.max_steps = 3000;
      const sf::RunMetrics m = sf::run_pathline_experiment(
          cfg, decomp, std::move(data), std::move(times), seeds,
          /*modelled_block_bytes=*/12u << 20);
      table.add_row({static_cast<long long>(slices),
                     static_cast<long long>(cache),
                     m.failed_oom ? -1.0 : m.wall_clock, m.total_io_time(),
                     static_cast<long long>(m.total_blocks_loaded()),
                     static_cast<long long>(m.total_blocks_purged()),
                     m.block_efficiency(),
                     std::string(m.failed_oom ? "OOM" : "ok")});
      std::cerr << "  done: slices=" << slices << " cache=" << cache
                << '\n';
    }
  }

  std::cout << "\n== Pathline I/O study (double gyre, " << n_seeds
            << " pathlines, P=" << procs
            << ", Load On Demand over spacetime blocks) ==\n"
            << "The paper's §8 prediction: slice churn multiplies reads "
               "and overwhelms the I/O system unless the cache absorbs "
               "the working set.\n";
  table.print(std::cout);
  if (opt.csv_dir) table.write_csv(*opt.csv_dir + "/pathline_study.csv");
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
