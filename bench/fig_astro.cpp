// Figures 5-8: the astrophysics (supernova) scaling study.
//
// Paper setup: 512 blocks x 1M cells of GenASiS magnetic field, 20,000
// seeds placed sparsely (uniform through the volume) and densely (around
// the proto-neutron star), run on 64-512 JaguarPF cores.  Reported
// metrics: wall clock (Fig 5), total I/O time (Fig 6), block efficiency
// (Fig 7), total communication time (Fig 8).
//
// Expected shapes (see EXPERIMENTS.md for the measured reproduction):
//   * Hybrid fastest or tied for both seedings (Fig 5)
//   * Load On Demand ~an order of magnitude more I/O time (Fig 6)
//   * Static E = 1; Hybrid near-ideal; LoD lowest (Fig 7)
//   * Static communicates 20x (sparse) to >100x (dense) more than
//     Hybrid (Fig 8)

#include "bench_common.hpp"

int run_bench(int argc, char** argv) {
  const auto opt = sf::bench::parse_options(argc, argv);

  auto field = std::make_shared<sf::SupernovaField>();
  const auto data =
      sf::bench::make_bench_dataset("astro", field);

  const auto seeds =
      static_cast<std::size_t>(20000 * opt.seeds_scale);  // paper: 20,000
  sf::Rng rng(0xa5720);
  std::vector<sf::bench::Scenario> scenarios;
  scenarios.push_back(
      {"sparse", sf::random_seeds(field->bounds(), seeds, rng)});
  // Dense: a shell just inside the shock front; the sweep disperses the
  // lines through the whole dataset like the paper's Figure 1 seeding.
  scenarios.push_back(
      {"dense", sf::cluster_seeds({0.25, 0.0, 0.0}, 0.18, seeds, rng,
                                  field->bounds())});

  sf::TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = 1500;

  sf::bench::run_figure_set(
      opt, data, scenarios, limits,
      "== Figures 5-8: astrophysics dataset (wall clock / I/O time / "
      "block efficiency / communication time) ==");
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
