// Figures 13-16: the thermal-hydraulics scaling study.
//
// Paper setup: Nek5000 twin-inlet mixing flow; sparse = 4,096 seeds on a
// 16^3 lattice through the box, dense = 22,000 seeds on a circle around
// one inlet (replicating stream-surface computation), short integration
// distance.  Expected shapes:
//   * sparse: all three algorithms within a whisker of each other
//     (Fig 13) — the easy case
//   * dense: Static Allocation runs OUT OF MEMORY (all seeds on one
//     processor's blocks); Load On Demand *beats* Hybrid because almost
//     no data is read and compute dominates (Fig 13, §5.3)
//   * LoD I/O does not scale but is hidden behind compute (Fig 14)

#include <cmath>

#include "bench_common.hpp"

int run_bench(int argc, char** argv) {
  const auto opt = sf::bench::parse_options(argc, argv);

  auto field = std::make_shared<sf::ThermalHydraulicsField>();
  const auto data = sf::bench::make_bench_dataset("thermal", field);
  const auto& prm = field->params();

  // Sparse: the paper's 16x16x16 lattice, scaled by cube-root so the
  // lattice stays regular.
  const int lattice = std::max(
      2, static_cast<int>(16 * std::cbrt(opt.seeds_scale) + 0.5));
  auto sparse = sf::uniform_grid_seeds(field->bounds(), lattice, lattice,
                                       lattice);

  // Dense: the 22,000-seed circle around inlet 1.
  const auto dense_count =
      static_cast<std::size_t>(22000 * opt.seeds_scale);
  auto dense = sf::circle_seeds(prm.inlet1 + sf::Vec3{0.02, 0, 0},
                                {1, 0, 0}, prm.inlet_radius, dense_count);

  std::vector<sf::bench::Scenario> scenarios;
  scenarios.push_back({"sparse", std::move(sparse)});
  scenarios.push_back({"dense", std::move(dense)});

  sf::TraceLimits limits;
  limits.max_time = 6.0;  // "integrated the streamlines a short distance"
  limits.max_steps = 1200;

  sf::bench::run_figure_set(
      opt, data, scenarios, limits,
      "== Figures 13-16: thermal hydraulics dataset (wall clock / I/O "
      "time / communication time / block efficiency; dense Static "
      "Allocation is expected to fail with OOM) ==");
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
