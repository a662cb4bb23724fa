// Advection-core throughput bench (the regression gate for the fast
// path, see DESIGN.md §9).
//
// Measures particle-steps per second of the advancement kernels
//   reference : advance_reference, the frozen oracle in
//               tests/support/reference_advance.hpp — virtual
//               VectorField::sample per stage, BlockAccessFn lookup per
//               accepted step
//   cursor    : Tracer::advance_batch on one-particle spans, one
//               particle after another — block cursor + GridSampler cell
//               cursor, no cohort to share a block load with
//   batched   : Tracer::advance_batch — per-block rounds over the whole
//               cohort, sharing one cursor per round (scalar kernel
//               forced, so it stays the like-for-like baseline)
//   simd      : the same advance_batch with the 4-wide AVX2 DOPRI5
//               kernel forced (bit-identical trajectories; DESIGN.md
//               §14) — emitted when the host supports it, or always
//               under --kernel=simd, where a host without AVX2 must
//               fall back to scalar without crashing
// under sparse (ring) and dense (clustered) seeding, in two block-cache
// regimes:
//   resident    : every block preloaded in an LRU cache large enough to
//                 hold the dataset — pure compute, no loads.
//   constrained : an LRU cache holding 8 of the 64 blocks.  A miss
//                 rebuilds the block grid from scratch (exactly what
//                 BlockedDataset does on first touch) — the stand-in for
//                 fetching a block of a very large dataset from storage.
//                 This is the regime the paper is about: the orbits
//                 cycle through far more blocks than fit, so the
//                 per-particle kernels reload blocks on every crossing
//                 while the batched kernel amortises each load across
//                 every pending line in the cohort.
// Results are written as JSON for tools/bench/compare.py.
//
// Flags:
//   --min-time=S   minimum measured seconds per cell (default 1.0)
//   --out=PATH     output JSON path (default BENCH_advect.json)
//   --kernel=K     auto | scalar | simd — whether the simd cells are
//                  emitted (auto: only when the host has AVX2; simd:
//                  always, exercising the scalar fallback; scalar:
//                  never).  The reference/cursor/batched cells are
//                  always scalar.
//   --quick        smoke preset: --min-time=0.1 and a 2-rep floor
//
// Cells are measured in interleaved round-robin reps so every kernel
// samples the same stretch of machine noise; on a shared vCPU,
// measuring kernels one after another lets a background load swing the
// ratios by ±30%.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_flags.hpp"
#include "core/analytic_fields.hpp"
#include "core/dataset.hpp"
#include "core/rng.hpp"
#include "core/seeds.hpp"
#include "core/tracer.hpp"
#include "runtime/block_cache.hpp"
#include "support/reference_advance.hpp"

namespace {

struct Options {
  double min_time = 1.0;
  std::uint64_t min_reps = 3;
  std::string out = "BENCH_advect.json";
  std::string kernel = "auto";
  double tol = 1e-6;
  int nodes = 17;
};

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--min-time=", 0) == 0) {
      opt.min_time =
          sf::bench::flag_double("min-time", arg.substr(11), /*zero_ok=*/true);
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg.rfind("--kernel=", 0) == 0) {
      opt.kernel = arg.substr(9);
      if (opt.kernel != "auto" && opt.kernel != "scalar" &&
          opt.kernel != "simd") {
        sf::bench::bad_flag("kernel", opt.kernel, "auto|scalar|simd");
      }
    } else if (arg.rfind("--tol=", 0) == 0) {
      opt.tol = sf::bench::flag_double("tol", arg.substr(6));
    } else if (arg.rfind("--nodes=", 0) == 0) {
      opt.nodes = sf::bench::flag_int("nodes", arg.substr(8), 2);
    } else if (arg == "--quick") {
      opt.min_time = 0.1;
      opt.min_reps = 2;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

// How many blocks the constrained cache holds, out of 4×4×4 = 64.  The
// tokamak ring orbits cross ~16 blocks per revolution, so at 8 the LRU
// is always one revolution behind — cyclic access is the classic LRU
// worst case, and exactly what a streamline tracing a large dataset
// does.
constexpr std::size_t kConstrainedCapacity = 8;

struct Result {
  std::string kernel;
  std::string seeding;
  std::string cache;
  std::size_t particles = 0;
  std::uint64_t reps = 0;
  std::uint64_t total_steps = 0;
  std::uint64_t block_loads = 0;
  double seconds = 0.0;
  // Best single rep (steps/sec).  On shared machines the max over reps
  // is the least-perturbed estimate; the aggregate totals are kept in
  // the JSON for inspection.
  double best_rate = 0.0;
  // simd rows are host-dependent: compare.py treats them as optional so
  // a baseline recorded on an AVX2 host doesn't fail on one without.
  bool optional = false;
  double rate() const { return best_rate; }
};

std::vector<sf::Particle> make_particles(const std::vector<sf::Vec3>& seeds) {
  std::vector<sf::Particle> particles(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    particles[i].id = static_cast<std::uint32_t>(i);
    particles[i].pos = seeds[i];
  }
  return particles;
}

// One measured cell: a (kernel, seeding, cache) triple plus its
// accumulating result.
struct Cell {
  const std::vector<sf::Vec3>* seeds = nullptr;
  std::function<void(std::vector<sf::Particle>&)> run;
  const std::uint64_t* loads = nullptr;  // regime's block-load counter
  Result r;
  bool warmed = false;
  bool done(const Options& opt) const {
    return r.seconds >= opt.min_time && r.reps >= opt.min_reps;
  }
  void rep() {
    using clock = std::chrono::steady_clock;
    if (!warmed) {
      // Untimed warm-up (page in the grids, warm the caches).
      auto particles = make_particles(*seeds);
      run(particles);
      warmed = true;
    }
    auto particles = make_particles(*seeds);
    const std::uint64_t loads0 = loads != nullptr ? *loads : 0;
    const auto t0 = clock::now();
    run(particles);
    const auto t1 = clock::now();
    const double dt = std::chrono::duration<double>(t1 - t0).count();
    std::uint64_t rep_steps = 0;
    for (const sf::Particle& p : particles) rep_steps += p.steps;
    r.seconds += dt;
    r.total_steps += rep_steps;
    if (loads != nullptr) r.block_loads += *loads - loads0;
    r.best_rate = std::max(r.best_rate, static_cast<double>(rep_steps) / dt);
    ++r.reps;
  }
};

}  // namespace

int run_bench(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  // The tokamak field: trajectories orbit the torus indefinitely, so
  // every kernel is measured in steady-state advection (no domain-exit
  // churn), and the field is nonlinear so the DOPRI5 controller actually
  // adapts.  A linear field (e.g. the rotor) would peg h at h_max, many
  // cells per step, which no real large dataset does.
  auto field = std::make_shared<sf::TokamakField>();
  const sf::BlockDecomposition decomp(field->bounds(), 4, 4, 4);
  auto dataset =
      std::make_shared<sf::BlockedDataset>(field, decomp, opt.nodes, 2);

  // Resident regime: every block preloaded, access is an LRU hash find +
  // recency touch (the way the runtimes see hot blocks).  The reference
  // kernel pays this lookup on every step; the cursor kernels only on a
  // block change.
  sf::BlockCache resident_cache(static_cast<std::size_t>(decomp.num_blocks()));
  for (sf::BlockId b = 0; b < decomp.num_blocks(); ++b) {
    resident_cache.insert(b, dataset->block(b));
  }
  const sf::BlockAccessFn access_resident = [&resident_cache](sf::BlockId id) {
    return resident_cache.find(id);
  };

  // Constrained regime: 8 of 64 blocks fit.  A miss rebuilds the block
  // grid from the field — the same work BlockedDataset::block does on
  // first touch (BlockedDataset itself memoises, so it can't be used to
  // model repeated loads).  Every advancement kernel shares this cache
  // and pays the identical per-load cost; only the *number* of loads
  // differs, which is the whole point.
  sf::BlockCache constrained_cache(kConstrainedCapacity);
  std::uint64_t constrained_loads = 0;
  const sf::BlockAccessFn access_constrained =
      [&](sf::BlockId id) -> const sf::StructuredGrid* {
    if (const sf::StructuredGrid* g = constrained_cache.find(id)) return g;
    const sf::AABB box = decomp.ghost_bounds(id, opt.nodes, /*ghost_cells=*/2);
    const int n = opt.nodes + 4;  // nodes + 2 * ghost_cells
    auto grid = std::make_shared<sf::StructuredGrid>(box, n, n, n);
    grid->sample_from(*field);
    ++constrained_loads;
    constrained_cache.insert(id, std::move(grid));
    return constrained_cache.find(id);
  };

  sf::IntegratorParams iparams;
  iparams.tol = opt.tol;
  sf::TraceLimits resident_limits;
  resident_limits.max_steps = 2000;
  resident_limits.max_time = 1e9;
  // Shorter trajectories in the constrained regime: the per-particle
  // kernels reload blocks on every crossing there, and 2000-step orbits
  // would put a single reference rep into the tens of seconds.
  sf::TraceLimits constrained_limits = resident_limits;
  constrained_limits.max_steps = 500;
  // The batched cell forces the scalar kernel so it stays the explicit
  // baseline; the simd cell forces the AVX2 kernel on a twin tracer.
  // When --kernel=simd is given on a host without AVX2 the forced
  // tracer must silently run scalar (the dispatch fallback) — the cell
  // is still emitted, tagged simd_active=false, so CI can assert the
  // flag never crashes anywhere.
  sf::Tracer tracer_resident(&decomp, iparams, resident_limits);
  sf::Tracer tracer_constrained(&decomp, iparams, constrained_limits);
  tracer_resident.set_kernel(sf::AdvectionKernel::kScalar);
  tracer_constrained.set_kernel(sf::AdvectionKernel::kScalar);
  const bool simd_cells =
      opt.kernel == "simd" ||
      (opt.kernel == "auto" && sf::simd_kernel_available());
  sf::Tracer tracer_resident_simd(&decomp, iparams, resident_limits);
  sf::Tracer tracer_constrained_simd(&decomp, iparams, constrained_limits);
  tracer_resident_simd.set_kernel(sf::AdvectionKernel::kSimd);
  tracer_constrained_simd.set_kernel(sf::AdvectionKernel::kSimd);

  sf::Rng rng(7);
  const double r0 = field->params().major_radius;
  std::map<std::string, std::vector<sf::Vec3>> seedings;
  // Sparse: a ring of seeds around the full torus — every azimuthal
  // block is touched, one or two lines each.  Dense: a cluster at one
  // toroidal location — the cohort orbits together, so at any moment a
  // few blocks own everything (the batched kernel's home turf).
  seedings["sparse"] = sf::circle_seeds({0, 0, 0}, {0, 0, 1}, r0, 64);
  seedings["dense"] =
      sf::cluster_seeds({r0, 0.0, 0.0}, 0.08, 256, rng, field->bounds());

  struct Regime {
    const char* name;
    const sf::Tracer* tracer;
    const sf::Tracer* simd_tracer;
    const sf::BlockAccessFn* access;
    const std::uint64_t* loads;
  };
  const Regime regimes[] = {
      {"resident", &tracer_resident, &tracer_resident_simd, &access_resident,
       nullptr},
      {"constrained", &tracer_constrained, &tracer_constrained_simd,
       &access_constrained, &constrained_loads},
  };

  std::vector<Cell> cells;
  for (const Regime& regime : regimes) {
    for (const auto& [seeding, seeds] : seedings) {
      const sf::Tracer& tracer = *regime.tracer;
      const sf::BlockAccessFn& access = *regime.access;
      auto add = [&](const char* kernel,
                     std::function<void(std::vector<sf::Particle>&)> run) {
        Cell c;
        c.r.kernel = kernel;
        c.r.seeding = seeding;
        c.r.cache = regime.name;
        c.r.particles = seeds.size();
        c.seeds = &seeds;
        c.loads = regime.loads;
        c.run = std::move(run);
        cells.push_back(std::move(c));
      };
      add("reference",
          [&decomp, &tracer, &access](std::vector<sf::Particle>& ps) {
            for (sf::Particle& p : ps) {
              sf::advance_reference(&decomp, tracer.integrator_params(),
                                    tracer.limits(), p, access);
            }
          });
      add("cursor", [&tracer, &access](std::vector<sf::Particle>& ps) {
        for (sf::Particle& p : ps) tracer.advance_batch({&p, 1}, access);
      });
      add("batched", [&tracer, &access](std::vector<sf::Particle>& ps) {
        tracer.advance_batch(ps, access);
      });
      if (simd_cells) {
        const sf::Tracer& simd_tracer = *regime.simd_tracer;
        add("simd", [&simd_tracer, &access](std::vector<sf::Particle>& ps) {
          simd_tracer.advance_batch(ps, access);
        });
        cells.back().r.optional = true;
      }
    }
  }

  // Interleaved rounds: one rep of every unfinished cell per pass.
  for (;;) {
    bool all_done = true;
    for (Cell& c : cells) {
      if (c.done(opt)) continue;
      all_done = false;
      c.rep();
    }
    if (all_done) break;
  }

  std::vector<Result> results;
  results.reserve(cells.size());
  for (Cell& c : cells) results.push_back(std::move(c.r));

  // Report, with the in-run speedups the regression gate keys on,
  // grouped per (seeding, cache).
  std::map<std::pair<std::string, std::string>, double> reference_rate;
  for (const Result& r : results) {
    if (r.kernel == "reference") reference_rate[{r.seeding, r.cache}] = r.rate();
  }
  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "cannot open " << opt.out << '\n';
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"advect_throughput\",\n"
      << "  \"kernel_mode\": \"" << opt.kernel << "\",\n"
      << "  \"simd_active\": " << (sf::simd_kernel_available() ? "true"
                                                               : "false")
      << ",\n"
      << "  \"field\": \"tokamak\",\n"
      << "  \"blocks\": [4, 4, 4],\n"
      << "  \"nodes_per_axis\": " << opt.nodes << ",\n"
      << "  \"tol\": " << iparams.tol << ",\n"
      << "  \"max_steps\": {\"resident\": " << resident_limits.max_steps
      << ", \"constrained\": " << constrained_limits.max_steps << "},\n"
      << "  \"constrained_capacity\": " << kConstrainedCapacity << ",\n"
      << "  \"min_time_s\": " << opt.min_time << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    const double speedup = r.rate() / reference_rate[{r.seeding, r.cache}];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"seeding\": \""
        << r.seeding << "\", \"cache\": \"" << r.cache
        << "\", \"particles\": " << r.particles << ", \"reps\": " << r.reps
        << ", \"total_steps\": " << r.total_steps
        << ", \"block_loads\": " << r.block_loads
        << ", \"seconds\": " << r.seconds
        << ", \"particle_steps_per_sec\": " << r.rate()
        << ", \"speedup_vs_reference\": " << speedup;
    if (r.optional) {
      out << ", \"optional\": true, \"simd_active\": "
          << (sf::simd_kernel_available() ? "true" : "false");
    }
    out << "}" << (i + 1 < results.size() ? "," : "") << '\n';
    std::cout << r.cache << '\t' << r.seeding << '\t' << r.kernel << '\t'
              << r.rate() << " steps/s\t" << r.block_loads << " loads\t("
              << speedup << "x reference)\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << opt.out << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
