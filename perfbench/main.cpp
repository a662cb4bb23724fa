// StreamFlow's performance benchmark program (README.md in this
// directory describes the workloads and every metric):
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//   perfbench --self-test --scratch DIR
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1
// reports the per-layer split of traced runs, interleaved with untraced
// ones to measure the tracing overhead.  The last line on stdout is the
// result as one JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Iteration;
using perfbench::Layer;
using perfbench::Workload;
using Clock = std::chrono::steady_clock;

// Set-ups per process; setup_s is their median.
constexpr int kSetupReps = 3;
// The self-test's bound on the unattributed share of the traced total.
constexpr double kAttributionTolerance = 0.10;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_s", "s"},
    {"steps_per_host_s", "steps/s"},
    {"peak_rss_mb", "MB"},
    {"model_wall_s", "s"},
};

// Every metric is reported on every workload.  Times exist on all four
// workloads; a layer absent from a workload reports a share (0) instead.
constexpr MetricDef kPerLayer[] = {
    {"core.self_s", "s"},
    {"core.frac", "ratio"},
    {"core.ns_per_step", "ns"},
    {"core.steps", "count"},
    {"core.oracle_ns_per_step", "ns"},
    {"algorithms.self_s", "s"},
    {"algorithms.frac", "ratio"},
    {"algorithms.master_frac", "ratio"},
    {"algorithms.master_calls", "count"},
    {"algorithms.ctrl_msgs_per_rank", "count"},
    {"algorithms.bytes_at_root", "B"},
    {"runtime.self_s", "s"},
    {"runtime.frac", "ratio"},
    {"runtime.send_frac", "ratio"},
    {"runtime.sends", "count"},
    {"runtime.request_frac", "ratio"},
    {"runtime.lookup_frac", "ratio"},
    {"runtime.idle_frac", "ratio"},
    {"runtime.callbacks", "count"},
    {"runtime.ns_per_callback", "ns"},
    {"runtime.cache_hit_rate", "ratio"},
    {"runtime.runs", "count"},
    {"runtime.host_s_per_run", "s"},
    {"sim.frac", "ratio"},
    {"io.self_s", "s"},
    {"io.frac", "ratio"},
    {"io.loads", "count"},
    {"io.us_per_load", "us"},
    {"io.read_MB", "MB"},
    {"io.stall_frac", "ratio"},
    {"io.prefetch_accuracy", "ratio"},
    {"io.block_E", "ratio"},
    {"io.block_E.static", "ratio"},
    {"io.block_E.lod", "ratio"},
    {"io.block_E.hybrid", "ratio"},
    {"io.model_io_s", "s"},
    {"model.wall_frac.static", "ratio"},
    {"model.wall_frac.lod", "ratio"},
    {"model.wall_frac.hybrid", "ratio"},
    {"service.submit_frac", "ratio"},
    {"service.blocks_adopted", "count"},
    {"service.hit_rate", "ratio"},
    {"service.p50_over_solo", "ratio"},
    {"service.p90_over_solo", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.total_s", "s"},
    {"check.failed_frac", "ratio"},
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double per(double x, double count, double unit) {
  return count > 0.0 ? x / count * unit : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// Traced host time split by layer.  The total is the host seconds of the
// entry-point calls (SimRuntime runs everything on the calling thread) or
// the thread-seconds of the rank and loader threads (ThreadRuntime).
struct Split {
  double total = 0.0;
  double core = 0.0, algorithms = 0.0, master = 0.0;
  double runtime = 0.0, send = 0.0, request = 0.0, lookup = 0.0;
  double gap = 0.0, idle = 0.0, sim = 0.0, io = 0.0;
  double master_calls = 0.0, sends = 0.0, loads = 0.0, callbacks = 0.0;

  double unattributed_frac() const {
    const double named = core + algorithms + runtime + idle + sim + io;
    return total > 0.0 ? (total - named) / total : 0.0;
  }
};

Split split(const perfbench::TraceTotals& t, const Workload& w,
            double host_s) {
  const bool threads = w.runtime() == perfbench::Runtime::kThreads;
  const perfbench::LayerTotals& on = threads ? t.ranks : t.main;
  Split s;
  s.core = on.s(Layer::kWorker);
  s.master = on.s(Layer::kMaster);
  s.algorithms = s.master + on.s(Layer::kBuild);
  s.send = on.s(Layer::kSend);
  s.request = on.s(Layer::kRequest);
  s.lookup = on.s(Layer::kLookup);
  s.runtime = s.send + s.request + s.lookup + on.s(Layer::kLedger);
  s.io = on.s(Layer::kLoad) + t.loaders.s(Layer::kLoad);
  s.gap = on.s(Layer::kGap);
  s.master_calls = static_cast<double>(on.n(Layer::kMaster));
  s.sends = static_cast<double>(on.n(Layer::kSend));
  s.loads =
      static_cast<double>(on.n(Layer::kLoad) + t.loaders.n(Layer::kLoad));
  s.callbacks = static_cast<double>(on.n(Layer::kGap));
  if (threads) {
    // Rank threads idle between callbacks; a loader worker is either
    // reading a block or waiting for one.
    const double loader_s = w.loader_threads() * host_s;
    s.total = (w.rank_threads() + w.loader_threads()) * host_s;
    s.idle = s.gap + std::max(0.0, loader_s - t.loaders.s(Layer::kLoad));
  } else {
    s.total = host_s;
    s.sim = s.gap;
  }
  return s;
}

// Per-layer metrics of `n` traced iterations whose tallies `s` sums.
std::map<std::string, double> per_layer(const Split& s, double n,
                                        const Iteration& last,
                                        const Workload& w) {
  const auto frac = [&s](double x) { return per(x, s.total, 1.0); };
  // Query metrics exist on service_mix only; elsewhere they read 0.
  std::map<std::string, double> v = {{"service.submit_frac", 0.0},
                                     {"service.hit_rate", 0.0},
                                     {"service.p50_over_solo", 0.0},
                                     {"service.p90_over_solo", 0.0}};
  for (const auto& [name, value] : last.layer) v[name] = value;
  const auto steps = static_cast<double>(last.steps);
  v["core.self_s"] = s.core / n;
  v["core.frac"] = frac(s.core);
  v["core.ns_per_step"] = per(s.core / n, steps, 1e9);
  v["core.steps"] = steps;
  v["core.oracle_ns_per_step"] =
      per(w.oracle_s(), static_cast<double>(w.oracle_steps()), 1e9);
  v["algorithms.self_s"] = s.algorithms / n;
  v["algorithms.frac"] = frac(s.algorithms);
  v["algorithms.master_frac"] = frac(s.master);
  v["algorithms.master_calls"] = s.master_calls / n;
  v["runtime.self_s"] = s.runtime / n;
  v["runtime.frac"] = frac(s.runtime);
  v["runtime.send_frac"] = frac(s.send);
  v["runtime.sends"] = s.sends / n;
  v["runtime.request_frac"] = frac(s.request);
  v["runtime.lookup_frac"] = frac(s.lookup);
  v["runtime.idle_frac"] = frac(s.idle);
  v["runtime.callbacks"] = s.callbacks / n;
  v["runtime.ns_per_callback"] = per(s.gap, s.callbacks, 1e9);
  v["sim.frac"] = frac(s.sim);
  v["io.self_s"] = s.io / n;
  v["io.frac"] = frac(s.io);
  v["io.loads"] = s.loads / n;
  v["io.us_per_load"] = per(s.io, s.loads, 1e6);
  v["io.read_MB"] = s.loads / n * w.bytes_per_load() / (1 << 20);
  v["io.stall_frac"] = per(last.host_stall_s, s.total / n, 1.0);
  v["trace.unattributed_frac"] = s.unattributed_frac();
  v["trace.total_s"] = s.total / n;
  return v;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  std::span<const MetricDef> defs,
                  const std::map<std::string, double>& values) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  const char* sep = "";
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      throw std::logic_error(std::string("metric not computed: ") + d.name);
    }
    const double v = std::isfinite(it->second) ? it->second : 0.0;
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  d.name, v, d.unit);
    out += buf;
    sep = ", ";
  }
  out += "}}";
  std::cout << out << std::endl;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::filesystem::path scratch = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else if (flag == "--scratch") {
      a.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return a;
}

int measure(const Args& a) {
  const perfbench::Preset preset{.tiny = false, .scratch = a.scratch};
  std::vector<double> setup;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetupReps; ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w = perfbench::make_workload(a.workload, a.seed, preset);
    setup.push_back(since(t0));
  }
  w->prepare();

  // Modelled metrics and counts must repeat byte for byte between runs of
  // one input, traced or not.
  bool repeatable = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string model_print;
  const auto tally = [&](const Iteration& it, bool traced) {
    std::cerr << "perfbench: " << a.workload << (traced ? " traced" : "")
              << " host_s=" << it.host_s << " failed=" << it.failed << '\n';
    attempted += it.attempted;
    failed += it.failed;
    if (model_print.empty()) {
      model_print = it.model_print;
    } else if (it.model_print != model_print) {
      std::cerr << "perfbench: modelled metrics differ between runs\n";
      repeatable = false;
    }
  };

  std::map<std::string, double> values;
  std::vector<double> host;
  const auto start = Clock::now();
  if (!a.trace) {
    std::vector<double> rate;
    Iteration it;
    do {
      it = w->run();
      tally(it, false);
      host.push_back(it.host_s);
      rate.push_back(static_cast<double>(it.steps) / it.host_s);
    } while (since(start) < a.seconds);
    values = {{"setup_s", median(setup)},
              {"host_s", median(host)},
              {"steps_per_host_s", median(rate)},
              {"peak_rss_mb", peak_rss_mb()},
              {"model_wall_s", it.model_wall_s}};
  } else {
    std::vector<double> traced;
    perfbench::TraceTotals sum;
    Iteration last;
    do {
      const Iteration plain = w->run();
      tally(plain, false);
      host.push_back(plain.host_s);
      perfbench::reset();
      perfbench::set_tracing(true);
      last = w->run();
      perfbench::set_tracing(false);
      tally(last, true);
      traced.push_back(last.host_s);
      sum.add(perfbench::collect());
    } while (since(start) < a.seconds);
    double traced_host = 0.0;
    for (const double t : traced) traced_host += t;
    const auto n = static_cast<double>(traced.size());
    values = per_layer(split(sum, *w, traced_host), n, last, *w);
    values["trace.overhead"] = median(traced) / median(host) - 1.0;
    values["runtime.host_s_per_run"] =
        per(median(host), values["runtime.runs"], 1.0);
    values["check.failed_frac"] =
        per(static_cast<double>(failed), static_cast<double>(attempted), 1.0);
  }
  failed = std::min(failed, attempted);
  print_result(repeatable && failed == 0, attempted, failed,
               a.trace ? std::span<const MetricDef>(kPerLayer)
                       : std::span<const MetricDef>(kEndToEnd),
               values);
  return 0;
}

// Tiny preset of every workload: the streamlines match the oracle, the
// layers sum to the traced total, modelled metrics repeat byte for byte,
// and a perturbed particle is caught.
int self_test(const Args& a) {
  bool ok = true;
  for (const char* name : perfbench::kWorkloadNames) {
    const auto expect = [&](bool cond, const std::string& what) {
      if (!cond) {
        ok = false;
        std::cout << "FAIL " << name << ": " << what << '\n';
      }
    };
    const perfbench::Preset preset{.tiny = true, .scratch = a.scratch};
    const std::unique_ptr<Workload> w =
        perfbench::make_workload(name, 7, preset);
    w->prepare();
    const Iteration first = w->run();
    const Iteration second = w->run();
    perfbench::reset();
    perfbench::set_tracing(true);
    const Iteration traced = w->run();
    perfbench::set_tracing(false);
    const Split s = split(perfbench::collect(), *w, traced.host_s);

    expect(first.failed == 0 && second.failed == 0 && traced.failed == 0,
           "streamlines differ from the serial oracle");
    expect(second.model_print == first.model_print &&
               traced.model_print == first.model_print,
           "modelled metrics and counts do not repeat byte for byte");
    expect(std::abs(s.unattributed_frac()) <= kAttributionTolerance,
           "layers sum to " + std::to_string(1.0 - s.unattributed_frac()) +
               " of the traced total");
    std::vector<sf::Particle> perturbed = traced.particles;
    expect(!perturbed.empty() && w->check(perturbed) == 0,
           "the traced run's particles do not check clean");
    if (!perturbed.empty()) {
      double& x = perturbed[perturbed.size() / 2].pos.x;
      x = std::nextafter(x, std::numeric_limits<double>::infinity());
      expect(w->check(perturbed) == 1, "a perturbed particle went unnoticed");
    }
    std::cout << "self-test " << name << ": layers cover "
              << 100.0 * (1.0 - s.unattributed_frac()) << "% of " << s.total
              << " s traced\n";
  }
  std::cout << (ok ? "self-test: ok" : "self-test: FAILED") << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return a.self_test ? self_test(a) : measure(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
