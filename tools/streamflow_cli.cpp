// streamflow — command-line front end to the library.
//
// Subcommands:
//   make-dataset  sample an analytic field onto a block store on disk
//   info          print a block store's manifest and block census
//   trace         trace streamlines over a block store, write VTK
//   experiment    run one parallel-algorithm experiment on the simulated
//                 machine and print its metrics
//
// Run `streamflow <subcommand> --help` for the flags of each.

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/driver.hpp"
#include "core/analytic_fields.hpp"
#include "core/seeds.hpp"
#include "core/tracer.hpp"
#include "io/block_store.hpp"
#include "io/csv.hpp"
#include "io/vtk_writer.hpp"

namespace {

using sf::Vec3;

// ---------------------------------------------------------------------------
// Tiny flag parser: --key=value pairs plus positional arguments.
// ---------------------------------------------------------------------------

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        const std::string key =
            eq == std::string::npos ? std::string(arg, 2)
                                    : std::string(arg, 2, eq - 2);
        std::string value =
            eq == std::string::npos ? std::string("1")
                                    : std::string(arg, eq + 1);
        values_[key] = std::move(value);
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric getters accept only text that is wholly a number; anything
  // else throws std::invalid_argument naming the flag.
  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) bad_value(key);
    return v;
  }
  long get_long(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const char* text = it->second.c_str();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE) bad_value(key);
    return v;
  }
  // A count or size: get_long limited to [0, INT_MAX], which every
  // count's type holds.
  int get_count(const std::string& key, int fallback) const {
    constexpr long kMax = std::numeric_limits<int>::max();
    const long v = get_long(key, fallback);
    if (v < 0 || v > kMax) {
      throw std::invalid_argument("--" + key + " must be in [0, " +
                                  std::to_string(kMax) + "], got " +
                                  std::to_string(v));
    }
    return static_cast<int>(v);
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  [[noreturn]] void bad_value(const std::string& key) const {
    throw std::invalid_argument("--" + key + " expects a number, got '" +
                                values_.at(key) + "'");
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// The '@'-separated fields of one fault-schedule token.
std::vector<std::string> split_at(const std::string& item) {
  std::vector<std::string> fields;
  for (std::size_t at = 0;;) {
    const std::size_t sep = item.find('@', at);
    fields.push_back(item.substr(at, sep == std::string::npos
                                         ? std::string::npos
                                         : sep - at));
    if (sep == std::string::npos) return fields;
    at = sep + 1;
  }
}

// Parse a whole field as a number, with the end-pointer checks of
// Flags::get_long / get_double: false on trailing text or overflow.
bool parse_whole(const std::string& text, int& out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

bool parse_whole(const std::string& text, double& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno != ERANGE;
}

sf::FieldPtr make_field(const std::string& name) {
  if (name == "supernova") return std::make_shared<sf::SupernovaField>();
  if (name == "tokamak") return std::make_shared<sf::TokamakField>();
  if (name == "thermal") {
    return std::make_shared<sf::ThermalHydraulicsField>();
  }
  if (name == "abc") return std::make_shared<sf::ABCField>();
  if (name == "rotor") return std::make_shared<sf::RotorField>();
  std::cerr << "unknown field '" << name
            << "' (expected supernova|tokamak|thermal|abc|rotor)\n";
  std::exit(2);
}

std::vector<Vec3> make_seeds(const Flags& flags, const sf::AABB& bounds) {
  const std::string kind = flags.get("seeds", "random");
  const auto count = static_cast<std::size_t>(flags.get_count("count", 100));
  sf::Rng rng(static_cast<std::uint64_t>(flags.get_long("seed", 7)));
  if (kind == "random") return sf::random_seeds(bounds, count, rng);
  if (kind == "grid") {
    const int n = std::max(1, static_cast<int>(std::cbrt(
                                  static_cast<double>(count))));
    return sf::uniform_grid_seeds(bounds, n, n, n);
  }
  if (kind == "cluster") {
    const Vec3 c = bounds.center();
    return sf::cluster_seeds(c, flags.get_double("sigma", 0.1), count, rng,
                             bounds);
  }
  std::cerr << "unknown seeds '" << kind
            << "' (expected random|grid|cluster)\n";
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int cmd_make_dataset(const Flags& flags) {
  if (flags.has("help")) {
    std::cout << "streamflow make-dataset --out=DIR [--field=supernova] "
                 "[--blocks=4] [--nodes=9] [--ghost=2]\n";
    return 0;
  }
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    std::cerr << "make-dataset: --out=DIR is required\n";
    return 2;
  }
  const auto field = make_field(flags.get("field", "supernova"));
  const int blocks = flags.get_count("blocks", 4);
  const int nodes = flags.get_count("nodes", 9);
  const int ghost = flags.get_count("ghost", 2);

  const sf::BlockDecomposition decomp(field->bounds(), blocks, blocks,
                                      blocks);
  const sf::BlockedDataset dataset(field, decomp, nodes, ghost);
  sf::BlockStore::write(out, dataset);
  std::cout << "wrote " << decomp.num_blocks() << " blocks ("
            << dataset.block_payload_bytes() / 1024 << " KiB each) to "
            << out << '\n';
  return 0;
}

int cmd_info(const Flags& flags) {
  if (flags.has("help") || flags.positional().empty()) {
    std::cout << "streamflow info STORE_DIR\n";
    return flags.has("help") ? 0 : 2;
  }
  const sf::BlockStore store(flags.positional()[0]);
  const auto& d = store.decomposition();
  std::cout << "block store: " << flags.positional()[0] << '\n'
            << "  domain:   " << d.domain().lo << " .. " << d.domain().hi
            << '\n'
            << "  blocks:   " << d.nbx() << " x " << d.nby() << " x "
            << d.nbz() << " = " << d.num_blocks() << '\n'
            << "  nodes:    " << store.nodes_per_axis() << " per axis + "
            << store.ghost_cells() << " ghost cells\n"
            << "  block[0]: " << store.block_file_bytes(0) << " bytes on disk\n";
  return 0;
}

int cmd_trace(const Flags& flags) {
  if (flags.has("help")) {
    std::cout << "streamflow trace --store=DIR | --field=NAME "
                 "[--seeds=random|grid|cluster] [--count=100] "
                 "[--max-time=10] [--max-steps=5000] [--tol=1e-6] "
                 "[--out=lines.vtk]\n";
    return 0;
  }
  if (flags.has("store")) {
    // The store is pure data (no analytic field to rebuild a
    // BlockedDataset from), so trace directly over its blocks.
    const auto store =
        std::make_shared<sf::BlockStore>(flags.get("store", ""));
    const auto& d = store->decomposition();
    sf::IntegratorParams iparams;
    iparams.tol = flags.get_double("tol", 1e-6);
    sf::TraceLimits limits;
    limits.max_time = flags.get_double("max-time", 10.0);
    limits.max_steps =
        static_cast<std::uint32_t>(flags.get_count("max-steps", 5000));

    // Out-of-domain seeds keep empty lines and are not counted.
    const auto seeds = make_seeds(flags, d.domain());
    sf::PolylineRecorder recorder(seeds.size());
    const auto particles =
        sf::trace_all(d, sf::DiskBlockSource(store), seeds, iparams, limits,
                      &recorder);
    const auto terminated = std::count_if(
        particles.begin(), particles.end(), [&](const sf::Particle& p) {
          return is_terminal(p.status) &&
                 d.block_of(seeds[p.id]) != sf::kInvalidBlock;
        });
    const std::string out = flags.get("out", "lines.vtk");
    sf::write_vtk_polylines(out, recorder.lines());
    std::cout << "traced " << terminated << "/" << seeds.size()
              << " streamlines from store -> " << out << '\n';
    return 0;
  }

  const auto field = make_field(flags.get("field", "supernova"));
  const int blocks = flags.get_count("blocks", 4);
  const auto dataset2 = std::make_shared<sf::BlockedDataset>(
      field, sf::BlockDecomposition(field->bounds(), blocks, blocks, blocks),
      flags.get_count("nodes", 9), flags.get_count("ghost", 2));

  sf::IntegratorParams iparams;
  iparams.tol = flags.get_double("tol", 1e-6);
  sf::TraceLimits limits;
  limits.max_time = flags.get_double("max-time", 10.0);
  limits.max_steps =
      static_cast<std::uint32_t>(flags.get_count("max-steps", 5000));

  const auto seeds = make_seeds(flags, field->bounds());
  sf::PolylineRecorder recorder(seeds.size());
  const auto particles =
      sf::trace_all(*dataset2, seeds, iparams, limits, &recorder);
  const std::string out = flags.get("out", "lines.vtk");
  sf::write_vtk_polylines(out, recorder.lines());
  std::cout << "traced " << particles.size() << " streamlines -> " << out
            << '\n';
  return 0;
}

int cmd_experiment(const Flags& flags) {
  if (flags.has("help")) {
    std::cout << "streamflow experiment [--field=supernova] "
                 "[--algorithm=hybrid|static|lod] [--procs=64] "
                 "[--blocks=8] [--count=2000] [--seeds=random] "
                 "[--cache=48] [--block-mb=12] [--max-steps=1500] "
                 "[--max-time=15] [--no-geometry]\n"
                 "  runtime selection:\n"
                 "    --runtime=sim|threads   simulated machine (default) or\n"
                 "                            one OS thread per rank\n"
                 "  asynchronous block I/O (DESIGN.md §10):\n"
                 "    --async-io              overlap block reads with compute\n"
                 "    --io-workers=N          loader threads (threads runtime)\n"
                 "    --prefetch-depth=N      in-flight prefetches per rank\n"
                 "    --staging=N             staged prefetched grids per rank\n"
                 "    --schedule-fuzz=SEED    threads only: seeded random\n"
                 "                            yields/sleeps at mailbox and\n"
                 "                            cache boundaries (0 = off)\n"
                 "  fault injection / checkpoint / restart:\n"
                 "    --mtbf=SECONDS          mean time between rank crashes\n"
                 "    --max-crashes=N         cap on random crashes (default 1)\n"
                 "    --crash=R@T[,R@T...]    explicit crashes: rank R at time T\n"
                 "    --disk-fault-rate=P     per-read failure probability\n"
                 "    --drop-rate=P           particle-message drop probability\n"
                 "  gray failures (slow-but-alive, DESIGN.md §16):\n"
                 "    --slow-rank=R@T@F[,...] rank R computes F times slow "
                 "from time T\n"
                 "    --gray-mtbf=SECONDS     mean time between random "
                 "slowdowns\n"
                 "    --corrupt-rate=P        per-read silent bit-flip "
                 "probability\n"
                 "    --disk-slow-rate=P      per-read latency-inflation "
                 "probability\n"
                 "    --heartbeat=SECONDS     slave status period; straggler\n"
                 "                            detection needs ~3 periods of "
                 "progress\n"
                 "    --checkpoint-interval=S checkpoint every S simulated secs\n"
                 "    --checkpoint-out=FILE   write the latest checkpoint here\n"
                 "    --restart-from=FILE     resume from a checkpoint file\n"
                 "    --fault-seed=N          fault injector RNG seed\n";
    return 0;
  }
  const auto field = make_field(flags.get("field", "supernova"));
  const int blocks = flags.get_count("blocks", 8);
  const sf::BlockDecomposition decomp(field->bounds(), blocks, blocks,
                                      blocks);
  const auto dataset = std::make_shared<sf::BlockedDataset>(
      field, decomp, flags.get_count("nodes", 9), flags.get_count("ghost", 2));
  const sf::DatasetBlockSource source(
      dataset,
      static_cast<std::size_t>(flags.get_count("block-mb", 12)) << 20);

  sf::ExperimentConfig cfg;
  const std::string algo = flags.get("algorithm", "hybrid");
  if (algo == "hybrid") {
    cfg.algorithm = sf::Algorithm::kHybridMasterSlave;
  } else if (algo == "static") {
    cfg.algorithm = sf::Algorithm::kStaticAllocation;
  } else if (algo == "lod") {
    cfg.algorithm = sf::Algorithm::kLoadOnDemand;
  } else {
    std::cerr << "unknown algorithm '" << algo << "'\n";
    return 2;
  }
  cfg.runtime.num_ranks = flags.get_count("procs", 64);
  cfg.runtime.model = sf::MachineModel::jaguar_like();
  cfg.runtime.cache_blocks =
      static_cast<std::size_t>(flags.get_count("cache", 48));
  cfg.runtime.carry_geometry = !flags.has("no-geometry");
  cfg.runtime.async_io.enabled = flags.has("async-io");
  cfg.runtime.async_io.workers = flags.get_count("io-workers", 2);
  cfg.runtime.async_io.prefetch_depth = flags.get_count("prefetch-depth", 2);
  cfg.runtime.async_io.staging_blocks =
      static_cast<std::size_t>(flags.get_count("staging", 4));
  cfg.limits.max_time = flags.get_double("max-time", 15.0);
  cfg.limits.max_steps =
      static_cast<std::uint32_t>(flags.get_count("max-steps", 1500));

  sf::FaultConfig& fc = cfg.runtime.fault;
  fc.mtbf = flags.get_double("mtbf", 0.0);
  fc.max_crashes = flags.get_count("max-crashes", 1);
  fc.disk_fault_rate = flags.get_double("disk-fault-rate", 0.0);
  fc.message_drop_rate = flags.get_double("drop-rate", 0.0);
  fc.checkpoint_interval = flags.get_double("checkpoint-interval", 0.0);
  fc.checkpoint_path = flags.get("checkpoint-out", "");
  fc.gray_mtbf = flags.get_double("gray-mtbf", 0.0);
  fc.corrupt_rate = flags.get_double("corrupt-rate", 0.0);
  fc.disk_slow_rate = flags.get_double("disk-slow-rate", 0.0);
  fc.heartbeat_period = flags.get_double("heartbeat", fc.heartbeat_period);
  fc.rng_seed =
      static_cast<std::uint64_t>(flags.get_long("fault-seed", 0xfa017LL));
  cfg.restart_from = flags.get("restart-from", "");
  // --crash=rank@time[,rank@time...] — deterministic crash schedule.
  const std::string crash_list = flags.get("crash", "");
  for (std::size_t at = 0; at < crash_list.size();) {
    const std::size_t comma = crash_list.find(',', at);
    const std::string item = crash_list.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    const std::vector<std::string> f = split_at(item);
    int rank = 0;
    double time = 0.0;
    if (f.size() != 2 || !parse_whole(f[0], rank) ||
        !parse_whole(f[1], time)) {
      std::cerr << "bad --crash entry '" << item << "' (want rank@time)\n";
      return 2;
    }
    fc.crashes.push_back({.time = time, .rank = rank});
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  // --slow-rank=rank@time@factor[,...] — deterministic gray slowdowns.
  const std::string slow_list = flags.get("slow-rank", "");
  for (std::size_t at = 0; at < slow_list.size();) {
    const std::size_t comma = slow_list.find(',', at);
    const std::string item = slow_list.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    const std::vector<std::string> f = split_at(item);
    int rank = 0;
    double time = 0.0;
    double factor = 0.0;
    if (f.size() != 3 || !parse_whole(f[0], rank) ||
        !parse_whole(f[1], time) || !parse_whole(f[2], factor)) {
      std::cerr << "bad --slow-rank entry '" << item
                << "' (want rank@time@factor)\n";
      return 2;
    }
    fc.slowdowns.push_back({.time = time, .rank = rank, .factor = factor});
    if (comma == std::string::npos) break;
    at = comma + 1;
  }

  cfg.runtime.schedule_fuzz_seed =
      static_cast<std::uint64_t>(flags.get_long("schedule-fuzz", 0));
  const std::string runtime_kind = flags.get("runtime", "sim");
  if (runtime_kind != "sim" && runtime_kind != "threads") {
    std::cerr << "unknown runtime '" << runtime_kind
              << "' (expected sim|threads)\n";
    return 2;
  }

  const auto seeds = make_seeds(flags, field->bounds());
  sf::RunMetrics m;
  try {
    m = runtime_kind == "threads"
            ? run_experiment_threads(cfg, decomp, source, seeds)
            : run_experiment(cfg, decomp, source, seeds);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';  // e.g. a bad checkpoint
    return 1;
  }

  sf::Table table({"metric", "value"});
  table.add_row({std::string("status"),
                 std::string(m.failed_oom   ? "OOM"
                             : m.failed_fault ? "failed"
                                              : "ok")});
  table.add_row({std::string("wall clock [s]"), m.wall_clock});
  table.add_row({std::string("total I/O time [s]"), m.total_io_time()});
  table.add_row({std::string("total comm time [s]"), m.total_comm_time()});
  table.add_row(
      {std::string("total compute time [s]"), m.total_compute_time()});
  table.add_row({std::string("block efficiency E"), m.block_efficiency()});
  table.add_row({std::string("cache hit rate"), m.cache_hit_rate()});
  table.add_row({std::string("total stall time [s]"), m.total_stall_time()});
  table.add_row({std::string("blocks loaded"),
                 static_cast<long long>(m.total_blocks_loaded())});
  table.add_row({std::string("blocks purged"),
                 static_cast<long long>(m.total_blocks_purged())});
  if (cfg.runtime.async_io.enabled) {
    table.add_row({std::string("prefetches issued"),
                   static_cast<long long>(m.total_prefetches_issued())});
    table.add_row({std::string("prefetch hits"),
                   static_cast<long long>(m.total_prefetch_hits())});
    table.add_row({std::string("prefetches wasted"),
                   static_cast<long long>(m.total_prefetches_wasted())});
    table.add_row({std::string("prefetch accuracy"), m.prefetch_accuracy()});
  }
  table.add_row({std::string("messages"),
                 static_cast<long long>(m.total_messages())});
  table.add_row({std::string("bytes sent [MB]"),
                 static_cast<double>(m.total_bytes_sent()) / (1 << 20)});
  table.add_row({std::string("integration steps"),
                 static_cast<long long>(m.total_steps())});
  table.add_row({std::string("streamlines"),
                 static_cast<long long>(m.particles.size())});
  const sf::FaultStats& fs = m.fault;
  const bool gray_active = !fc.slowdowns.empty() || fc.gray_mtbf > 0.0 ||
                           fc.corrupt_rate > 0.0 || fc.disk_slow_rate > 0.0;
  const bool fault_active = fc.mtbf > 0.0 || !fc.crashes.empty() ||
                            fc.disk_fault_rate > 0.0 ||
                            fc.message_drop_rate > 0.0 ||
                            fc.checkpoint_interval > 0.0 ||
                            !cfg.restart_from.empty() || gray_active;
  if (fault_active) {
    table.add_row({std::string("crashes injected"),
                   static_cast<long long>(fs.crashes_injected)});
    table.add_row({std::string("crashes survived"),
                   static_cast<long long>(fs.crashes_survived)});
    table.add_row({std::string("OOM crashes"),
                   static_cast<long long>(fs.oom_crashes)});
    table.add_row({std::string("disk faults"),
                   static_cast<long long>(fs.disk_faults)});
    table.add_row({std::string("disk stalls"),
                   static_cast<long long>(fs.disk_stalls)});
    table.add_row({std::string("messages dropped"),
                   static_cast<long long>(fs.messages_dropped)});
    table.add_row({std::string("control retransmits"),
                   static_cast<long long>(fs.control_retransmits)});
    table.add_row({std::string("control duplicates deduped"),
                   static_cast<long long>(fs.control_duplicates)});
    table.add_row({std::string("particles recovered"),
                   static_cast<long long>(fs.particles_recovered)});
    table.add_row({std::string("steps redone"),
                   static_cast<long long>(fs.steps_redone)});
    table.add_row({std::string("time to recovery [s]"),
                   fs.time_to_recovery});
    // Per-crash timeline: how long the survivors took to notice each
    // death (detection latency) and to re-own its work (recovery wall).
    for (const sf::CrashRecord& rec : fs.crash_records) {
      const std::string who = "crash rank " + std::to_string(rec.rank);
      table.add_row({who + " detect latency [s]",
                     rec.detect_time < 0.0 ? -1.0
                                           : rec.detect_time - rec.crash_time});
      table.add_row({who + " recovery wall [s]",
                     rec.recover_time < 0.0
                         ? -1.0
                         : rec.recover_time - rec.crash_time});
    }
    table.add_row({std::string("checkpoints taken"),
                   static_cast<long long>(fs.checkpoints_taken)});
    table.add_row({std::string("checkpoint overhead [s]"),
                   fs.checkpoint_overhead});
  }
  if (gray_active) {
    table.add_row({std::string("slowdowns injected"),
                   static_cast<long long>(fs.slowdowns_injected)});
    table.add_row({std::string("slow disk reads"),
                   static_cast<long long>(fs.disk_slow_events)});
    table.add_row({std::string("corruptions injected"),
                   static_cast<long long>(fs.corruptions_injected)});
    table.add_row({std::string("corruptions detected"),
                   static_cast<long long>(fs.corruptions_detected)});
    table.add_row({std::string("stragglers flagged"),
                   static_cast<long long>(fs.stragglers_flagged)});
    table.add_row({std::string("particles speculated"),
                   static_cast<long long>(fs.particles_speculated)});
    table.add_row({std::string("wasted duplicate steps"),
                   static_cast<long long>(fs.wasted_duplicate_steps)});
    table.add_row({std::string("straggler detect latency [s]"),
                   fs.straggler_detect_latency});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cout << "usage: streamflow <make-dataset|info|trace|experiment> "
                 "[flags]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const Flags flags(argc, argv, 2);
  // Bad flag values, unreadable stores and the like end in a message.
  try {
    if (cmd == "make-dataset") return cmd_make_dataset(flags);
    if (cmd == "info") return cmd_info(flags);
    if (cmd == "trace") return cmd_trace(flags);
    if (cmd == "experiment") return cmd_experiment(flags);
  } catch (const std::exception& e) {
    std::cerr << "streamflow: " << e.what() << '\n';
    return 2;
  }
  std::cerr << "unknown subcommand '" << cmd << "'\n";
  return 2;
}
