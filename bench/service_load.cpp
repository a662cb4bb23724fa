// Streamline-service load benchmark (the regression gate for the
// multi-query runtime, DESIGN.md §12).
//
// Two sweeps over the simulated machine, both deterministic (seeded
// Poisson arrivals, seeded seed sets — the JSON is diffable run to run):
//
//   load sweep     : one query mix submitted at three Poisson rates
//                    calibrated against the mean solo service time
//                    (underloaded / critical / overloaded).  Reports
//                    p50/p99 queue wait, p50/p99 end-to-end latency and
//                    completed-query throughput.
//   overlap sweep  : serialized queries whose seed clusters overlap by
//                    0% / 50% / 100%, run with cross-query cache sharing
//                    and with cold per-query caches.  Reports the cache
//                    hit rate and p99 latency per cell.  The acceptance
//                    property — shared-cache hit rate strictly above the
//                    cold baseline at >= 50% overlap — is asserted here,
//                    so a regression fails the bench, not just the diff.
//   deadline sweep : the overloaded arrival schedule replayed with a
//                    per-query latency budget (tight and loose) and a
//                    shallow admission queue, plus one malformed
//                    submission — so every rejection class shows up
//                    attributed: rej_depth (queue full), rej_deadline
//                    (budget burned while queued), rej_malformed, and
//                    dl_cancelled (admitted, expired mid-flight).  The
//                    acceptance property — under a tight deadline every
//                    completed query's latency is within budget, and
//                    shedding keeps p99 below the unbounded overloaded
//                    p99 — is asserted here too.
//
// Results are written as JSON for tools/bench/compare.py.
//
// Flags:
//   --procs=N           simulated ranks (default 16)
//   --seeds=N           streamlines per query (default 400)
//   --queries=N         queries per load-sweep cell (default 10)
//   --out=PATH          output JSON path (default BENCH_service.json)
//   --query-deadline=S  replace the tight/loose deadline rows with one
//                       explicit per-query budget of S service-clock
//                       seconds (the relative acceptance assert is
//                       skipped; the met-budget assert still runs)
//   --quick             smoke preset: 8 ranks, 150 seeds, 6 queries

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_flags.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "io/csv.hpp"
#include "service/service.hpp"

namespace {

struct Options {
  int procs = 16;
  std::size_t seeds = 400;
  std::size_t queries = 10;
  std::string out = "BENCH_service.json";
  double query_deadline = 0.0;  // 0 = the default tight/loose sweep
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
    } else if (arg.rfind("--queries=", 0) == 0) {
      opt.queries = static_cast<std::size_t>(
          sf::bench::flag_int("queries", arg.substr(10), 1));
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out = arg.substr(6);
    } else if (arg.rfind("--query-deadline=", 0) == 0) {
      opt.query_deadline = sf::bench::flag_double(
          "query-deadline", arg.substr(17), /*zero_ok=*/true);
    } else if (arg == "--quick") {
      opt.quick = true;
      opt.procs = 8;
      opt.seeds = 150;
      opt.queries = 6;
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

// Same I/O-bound machine as bench/io_overlap: a demand miss costs about
// as much as the compute it unblocks, so cache reuse is decisive.
sf::MachineModel io_bound_machine() {
  sf::MachineModel m = sf::MachineModel::jaguar_like();
  m.io_bandwidth = 400.0 * (1 << 20);
  m.io_latency = 5e-3;
  m.seconds_per_step = 1e-4;
  m.particle_memory_bytes = 1ull << 30;
  return m;
}

struct Row {
  std::string scenario, cache;
  sf::ServiceReport r;
  double throughput = 0.0;  // completed queries per simulated second
};

}  // namespace

int run_bench(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  auto field = std::make_shared<sf::SupernovaField>();
  const sf::BlockDecomposition decomp(field->bounds(), 8, 8, 8);  // 512
  auto dataset = std::make_shared<sf::BlockedDataset>(
      field, decomp, /*nodes_per_axis=*/9, /*ghost_cells=*/2);
  const sf::DatasetBlockSource source(dataset, /*modelled_bytes=*/12u << 20);

  sf::TraceLimits limits;
  limits.max_time = 15.0;
  limits.max_steps = opt.quick ? 400 : 1200;

  auto base_service = [&](std::size_t per_epoch, bool share) {
    sf::ServiceConfig sc;
    sc.base.algorithm = sf::Algorithm::kLoadOnDemand;
    sc.base.runtime.num_ranks = opt.procs;
    sc.base.runtime.model = io_bound_machine();
    sc.base.runtime.cache_blocks = 48;
    sc.base.limits = limits;
    sc.max_queries_per_epoch = per_epoch;
    sc.max_queue_depth = 1u << 12;  // admission is not the topic here
    sc.share_cache = share;
    return sc;
  };

  std::vector<Row> rows;

  // --- Load sweep ----------------------------------------------------------
  // One shared query mix; its arrival instants replayed at three Poisson
  // rates scaled off the mean solo service time S: 0.4/S (underloaded),
  // 1.0/S (critical) and 2.5/S (overloaded — queues must form).
  sf::Rng mix_rng(0x10ab5);
  std::vector<std::vector<sf::Vec3>> mix;
  for (std::size_t q = 0; q < opt.queries; ++q) {
    mix.push_back(sf::random_seeds(field->bounds(), opt.seeds, mix_rng));
  }

  double solo_s = 0.0;
  {
    sf::StreamlineService probe(base_service(1, true), &decomp, &source);
    for (const auto& seeds : mix) probe.submit(seeds);
    probe.run_until_idle();
    solo_s = probe.cumulative().wall_clock /
             static_cast<double>(probe.report().completed);
  }

  const struct {
    const char* name;
    double rate_x;  // arrival rate in units of 1/solo_s
  } loads[] = {{"load-low", 0.4}, {"load-critical", 1.0},
               {"load-high", 2.5}};
  for (const auto& load : loads) {
    sf::StreamlineService svc(base_service(4, true), &decomp, &source);
    sf::PoissonArrivals arrivals(load.rate_x / solo_s, 0x5eed);
    for (const auto& seeds : mix) svc.submit_at(seeds, arrivals.next());
    svc.run_until_idle();
    Row row;
    row.scenario = load.name;
    row.cache = "shared";
    row.r = svc.report();
    row.throughput =
        static_cast<double>(row.r.completed) / std::max(row.r.makespan, 1e-12);
    std::cerr << "  done: " << row.scenario << "  p99_wait="
              << row.r.p99_queue_wait << "  p99_latency="
              << row.r.p99_latency << '\n';
    rows.push_back(std::move(row));
  }

  // --- Overlap sweep -------------------------------------------------------
  // Serialized queries (one per epoch) whose seed clusters overlap by a
  // set fraction; shared vs cold caches.  With 50%+ overlap the shared
  // pool must beat re-reading the footprint from disk every epoch.
  const sf::AABB bounds = field->bounds();
  const double extent_x = bounds.hi.x - bounds.lo.x;
  const double radius = 0.06 * extent_x;
  const struct {
    const char* name;
    double frac;
  } overlaps[] = {{"overlap-0", 0.0}, {"overlap-50", 0.5},
                  {"overlap-100", 1.0}};
  double hit_rate_of[2][3] = {};  // [shared][overlap index]
  for (int shared = 1; shared >= 0; --shared) {
    for (std::size_t oi = 0; oi < 3; ++oi) {
      const auto& ov = overlaps[oi];
      sf::ServiceConfig sc = base_service(1, shared != 0);
      // Short traces: the footprint stays near the cluster, so the
      // shared pool can actually hold an epoch's working set and the
      // overlap fraction is what the seed geometry says it is.
      sc.base.limits.max_steps = opt.quick ? 120 : 300;
      sf::StreamlineService svc(sc, &decomp, &source);
      sf::Rng cluster_rng(0xc105);
      for (std::size_t q = 0; q < opt.queries; ++q) {
        // Consecutive cluster centers step by 2r(1-frac): coincident at
        // 100% overlap, tangent spheres at 0%.
        sf::Vec3 center = bounds.lo;
        center.x += 0.2 * extent_x +
                    static_cast<double>(q) * 2.0 * radius * (1.0 - ov.frac);
        center.y += 0.5 * (bounds.hi.y - bounds.lo.y);
        center.z += 0.5 * (bounds.hi.z - bounds.lo.z);
        svc.submit(sf::cluster_seeds(center, radius, opt.seeds, cluster_rng,
                                     bounds));
      }
      svc.run_until_idle();
      Row row;
      row.scenario = ov.name;
      row.cache = shared != 0 ? "shared" : "cold";
      row.r = svc.report();
      row.throughput = static_cast<double>(row.r.completed) /
                       std::max(row.r.makespan, 1e-12);
      hit_rate_of[shared][oi] = row.r.cache_hit_rate;
      std::cerr << "  done: " << row.scenario << " " << row.cache
                << "  hit_rate=" << row.r.cache_hit_rate << "  adopted="
                << row.r.blocks_adopted << '\n';
      rows.push_back(std::move(row));
    }
  }

  // Acceptance property: cache sharing must strictly beat cold caches
  // wherever queries overlap by at least half.
  for (std::size_t oi = 1; oi < 3; ++oi) {
    if (hit_rate_of[1][oi] <= hit_rate_of[0][oi]) {
      std::cerr << "FAIL: shared-cache hit rate " << hit_rate_of[1][oi]
                << " not above cold baseline " << hit_rate_of[0][oi]
                << " at " << overlaps[oi].name << '\n';
      return 1;
    }
  }

  // --- Deadline sweep ------------------------------------------------------
  // The overloaded schedule again, now with a per-query latency budget
  // and a shallow queue, plus one malformed (empty) submission — every
  // rejection class gets exercised and attributed.
  struct Budget {
    std::string name;
    double seconds;  // absolute service-clock latency budget
  };
  std::vector<Budget> budgets = {{"deadline-tight", 1.5 * solo_s},
                                 {"deadline-loose", 8.0 * solo_s}};
  if (opt.query_deadline > 0.0) {
    budgets = {{"deadline-user", opt.query_deadline}};
  }
  for (const auto& budget : budgets) {
    sf::ServiceConfig sc = base_service(4, true);
    sc.default_deadline = budget.seconds;
    sc.max_queue_depth = 2;  // shallow: depth shedding under overload
    sf::StreamlineService svc(sc, &decomp, &source);
    sf::PoissonArrivals arrivals(2.5 / solo_s, 0x5eed);
    for (const auto& seeds : mix) svc.submit_at(seeds, arrivals.next());
    svc.submit(std::vector<sf::Vec3>{});  // malformed: must be attributed
    svc.run_until_idle();
    Row row;
    row.scenario = budget.name;
    row.cache = "shared";
    row.r = svc.report();
    row.throughput =
        static_cast<double>(row.r.completed) / std::max(row.r.makespan, 1e-12);
    // Every query the service did complete must have met its budget: the
    // simulated runtime cancels at the exact expiry instant, so a
    // completed-but-late query means deadline enforcement broke.
    for (const auto& rec : svc.records()) {
      if (rec.state != sf::QueryState::kDone || rec.deadline <= 0.0) continue;
      if (rec.latency() > rec.deadline + 1e-9) {
        std::cerr << "FAIL: query " << rec.query << " completed at latency "
                  << rec.latency() << "s past its " << rec.deadline
                  << "s deadline\n";
        return 1;
      }
    }
    std::cerr << "  done: " << row.scenario << "  completed="
              << row.r.completed << "  rej_depth=" << row.r.rejected_depth
              << "  rej_deadline=" << row.r.rejected_deadline
              << "  rej_malformed=" << row.r.rejected_malformed
              << "  dl_cancelled=" << row.r.deadline_cancelled << '\n';
    if (row.r.rejected_malformed != 1) {
      std::cerr << "FAIL: the one malformed submission was not attributed "
                << "(rej_malformed=" << row.r.rejected_malformed << ")\n";
      return 1;
    }
    rows.push_back(std::move(row));
  }
  // Shedding must keep the tight-deadline completed-query p99 below the
  // unbounded overloaded p99 (rows[2] is load-high): that is the point
  // of deadline-aware admission.  Only meaningful for the default
  // tight/loose sweep — a user-chosen budget may be anything.
  if (opt.query_deadline <= 0.0 &&
      rows[rows.size() - 2].r.p99_latency >= rows[2].r.p99_latency) {
    std::cerr << "FAIL: tight-deadline p99 "
              << rows[rows.size() - 2].r.p99_latency
              << " not below unbounded overloaded p99 "
              << rows[2].r.p99_latency << '\n';
    return 1;
  }

  sf::Table table({"scenario", "cache", "completed", "rej_depth",
                   "rej_deadline", "rej_malformed", "dl_cancelled",
                   "p50_wait", "p99_wait", "p50_latency", "p99_latency",
                   "hit_rate", "adopted", "loads", "throughput"});
  for (const Row& row : rows) {
    table.add_row({row.scenario, row.cache,
                   static_cast<long long>(row.r.completed),
                   static_cast<long long>(row.r.rejected_depth),
                   static_cast<long long>(row.r.rejected_deadline),
                   static_cast<long long>(row.r.rejected_malformed),
                   static_cast<long long>(row.r.deadline_cancelled),
                   row.r.p50_queue_wait, row.r.p99_queue_wait,
                   row.r.p50_latency, row.r.p99_latency, row.r.cache_hit_rate,
                   static_cast<long long>(row.r.blocks_adopted),
                   static_cast<long long>(row.r.blocks_loaded),
                   row.throughput});
  }
  std::cout << "\n== Streamline service: multi-query load ==\n"
            << "procs=" << opt.procs << "  seeds/query=" << opt.seeds
            << "  queries=" << opt.queries << "  solo_service_s=" << solo_s
            << '\n';
  table.print(std::cout);

  std::ofstream out(opt.out);
  out << "{\n \"bench\": \"service_load\",\n"
      << " \"procs\": " << opt.procs << ",\n"
      << " \"seeds_per_query\": " << opt.seeds << ",\n"
      << " \"queries\": " << opt.queries << ",\n"
      << " \"max_steps\": " << limits.max_steps << ",\n"
      << " \"solo_service_s\": " << solo_s << ",\n"
      << " \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "  {\n"
        << "   \"scenario\": \"" << row.scenario << "\",\n"
        << "   \"cache\": \"" << row.cache << "\",\n"
        << "   \"completed\": " << row.r.completed << ",\n"
        << "   \"rejected_depth\": " << row.r.rejected_depth << ",\n"
        << "   \"rejected_deadline\": " << row.r.rejected_deadline << ",\n"
        << "   \"rejected_malformed\": " << row.r.rejected_malformed << ",\n"
        << "   \"deadline_cancelled\": " << row.r.deadline_cancelled << ",\n"
        << "   \"epochs\": " << row.r.epochs << ",\n"
        << "   \"makespan_s\": " << row.r.makespan << ",\n"
        << "   \"p50_queue_wait_s\": " << row.r.p50_queue_wait << ",\n"
        << "   \"p99_queue_wait_s\": " << row.r.p99_queue_wait << ",\n"
        << "   \"p50_latency_s\": " << row.r.p50_latency << ",\n"
        << "   \"p99_latency_s\": " << row.r.p99_latency << ",\n"
        << "   \"hit_rate\": " << row.r.cache_hit_rate << ",\n"
        << "   \"blocks_adopted\": " << row.r.blocks_adopted << ",\n"
        << "   \"blocks_loaded\": " << row.r.blocks_loaded << ",\n"
        << "   \"throughput_qps\": " << row.throughput << "\n"
        << "  }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << " ]\n}\n";
  std::cout << "json written to " << opt.out << '\n';
  return 0;
}

int main(int argc, char** argv) {
  return sf::bench::bench_main(argc, argv, run_bench);
}
