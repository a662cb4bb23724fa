// Figures 9-12: the magnetically-confined-fusion scaling study.
//
// Paper setup: 512 blocks x 1M cells of NIMROD tokamak field, 10,000
// seeds sparse and dense, 64-512 cores.  Key property (§5.2): field
// lines are nearly closed and fill the torus regardless of seeding, so
//   * Static and Hybrid wall clocks are nearly identical (Fig 9)
//   * LoD is poor for sparse seeds but competitive for dense seeds whose
//     working set fits in the cache (Figs 9, 10)
//   * Static communication explodes for dense seeding (Fig 11)
//   * Hybrid block efficiency is lower than astro — replication pays
//     (Fig 12)

#include <cmath>

#include "bench_common.hpp"

int run_bench(int argc, char** argv) {
  const auto opt = sf::bench::parse_options(argc, argv);

  auto field = std::make_shared<sf::TokamakField>();
  // Finer per-block sampling than the default: tokamak flux surfaces
  // are meaningful only when interpolation noise stays below the island
  // perturbation, else every line turns numerically chaotic.
  const auto data = sf::bench::make_bench_dataset("fusion", field, 17);
  const double r0 = field->params().major_radius;
  const double a = field->params().minor_radius;

  const auto seeds =
      static_cast<std::size_t>(10000 * opt.seeds_scale);  // paper: 10,000
  sf::Rng rng(0xf0510);

  // Sparse: seeds throughout the torus volume (rejection-sample the
  // bounding box into the torus interior).
  std::vector<sf::Vec3> sparse;
  while (sparse.size() < seeds) {
    const sf::Vec3 p{rng.uniform(-r0 - a, r0 + a),
                     rng.uniform(-r0 - a, r0 + a), rng.uniform(-a, a)};
    const double rr = std::hypot(std::hypot(p.x, p.y) - r0, p.z);
    if (rr < 0.9 * a) sparse.push_back(p);
  }
  // Dense: a small patch on quiet inner flux surfaces (below the island
  // resonance).  The rotational transform still carries the lines all
  // the way around the torus (§5.2), but they stay on a tight bundle of
  // surfaces whose blocks fit in memory — the case where Load On Demand
  // turns competitive (Fig 9).
  const auto dense = sf::cluster_seeds({r0 + 0.25 * a, 0.0, 0.0}, 0.04 * a,
                                       seeds, rng, field->bounds());

  std::vector<sf::bench::Scenario> scenarios;
  scenarios.push_back({"sparse", std::move(sparse)});
  scenarios.push_back({"dense", dense});

  sf::TraceLimits limits;
  limits.max_time = 20.0;  // several toroidal transits
  limits.max_steps = 2000;

  sf::bench::run_figure_set(
      opt, data, scenarios, limits,
      "== Figures 9-12: fusion dataset (wall clock / I/O time / "
      "communication time / block efficiency) ==");
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
