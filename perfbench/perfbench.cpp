// perfbench: the repository's benchmark program. One invocation runs one
// workload for a fixed wall-clock budget and prints JSON lines on stdout:
// an "info" line (host fingerprint, output digest, sample counts, open-loop
// accounting) and, last, the result object that perfbench/run.py relays.
// README.md in this directory records why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
//   perfbench --workload road_sweep|city_fleet|serve_faulted --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1 is
// the separate traced run: RunnerOptions::tracing is on, spans around every
// call into the library are kept in memory and written to
// DIR/spans-<workload>-<seed>.jsonl at exit, and the per-layer metrics are
// reported. The library is driven only through its public entry points:
// trace::ScenarioRunner, serve::ScenarioServer and LineClient,
// mob::generate_*_deployment, ScenarioConfig::validate, the scenario JSON
// serde and ImpairmentSource::resolve.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench/bench_util.hpp"
#include "mobility/deployment.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace/runner.hpp"
#include "trace/scenario_json.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

using namespace spider;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

/// Linear-interpolated quantile (numpy's default), 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------------ spans

/// In-memory spans around the benchmark's calls into the library: name,
/// request/run id, parent span, start and end. Recording is on only in the
/// traced run; spans are written out once, at exit. Thread-safe, because
/// the serve oracle opens spans from two threads.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int index() const { return index_; }

   private:
    SpanLog* log_;
    int index_;
  };

  Scope open(const char* name, std::uint64_t id = 0, int parent = -1) {
    if (!enabled_) return Scope(nullptr, -1);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, since(origin_), -1.0});
    return Scope(this, static_cast<int>(spans_.size() - 1));
  }

  /// A span whose interval was measured elsewhere (a request's due time
  /// to its answer).
  void add(const char* name, std::uint64_t id, int parent,
           Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, seconds_between(origin_, start),
                      seconds_between(origin_, end)});
  }

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_s >= 0.0) out.push_back(s.end_s - s.start_s);
    }
    return out;
  }

  bool write_jsonl(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"span\":" << i << ",\"name\":\"" << s.name
         << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"start_s\":" << util::json_number(s.start_s)
         << ",\"end_s\":" << util::json_number(s.end_s) << "}\n";
    }
    return static_cast<bool>(os);
  }

  bool enabled() const { return enabled_; }

 private:
  struct Span {
    std::string name;
    std::uint64_t id;
    int parent;
    double start_s;
    double end_s;  ///< -1 while open
  };

  void close(int index) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_s = since(origin_);
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ----------------------------------------------------------------- report

/// Named metrics with units, printed as the result object's "metrics".
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  /// Checks that fail count as failed operations and make `correct` false.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++check_failures_;
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }

  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  void print_result() const {
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                check_failures_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_ + checks_),
                static_cast<unsigned long long>(failed_ + check_failures_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i ? "," : "",
                  metrics_[i].name.c_str(),
                  util::json_number(metrics_[i].value).c_str(),
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t check_failures_ = 0;
};

// ------------------------------------------------------------------- host

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s = brand;
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------------- digest

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = kFnvBasis) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Every simulation-visible statistic of one run; two runs of one config
/// must agree on it byte for byte, whatever the worker count.
std::string run_digest(const trace::ScenarioResult& r) {
  return bench::fault_digest(r) +
         " fanout=" + std::to_string(r.perf.frames_fanout) +
         " completed=" + std::to_string(r.completed);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// -------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// Set-up is timed this many times per run and the median reported.
constexpr int kSetupReps = 41;
/// ... and for at least this much host time, so that the median of a
/// set-up lasting well under a millisecond reflects seconds of the host,
/// not one momentary slow or fast stretch of it.
constexpr double kSetupMinS = 2.0;

/// What the traced run gathers for the per-layer metrics.
struct LayerInputs {
  /// Traced runs of one fixed set of configs; their counters are reported.
  std::vector<trace::ScenarioResult> traced;
  /// Σ per-run host time of the untraced runs, and of traced re-runs of
  /// the same configs (the tracing overhead is their ratio).
  double untraced_run_wall_s = 0.0;
  double traced_run_wall_s = 0.0;
  std::uint64_t untraced_events = 0;
  double run_s_median = 0.0;
  double pool_busy_frac = 0.0;
  double deploy_s = 0.0;
};

/// The per-layer metrics every workload reports. Metrics of layers a
/// workload does not exercise read 0, so every traced run carries the
/// same names.
void add_layer_metrics(const LayerInputs& in, const SpanLog& spans,
                       const std::map<std::string, double>& serve,
                       Report& report) {
  sim::PerfCounters perf;
  obs::MetricsRegistry m;
  std::uint64_t joins = 0, e2e = 0, bytes = 0, faults = 0, outages = 0,
                recoveries = 0;
  for (const trace::ScenarioResult& r : in.traced) {
    perf.merge(r.perf);
    m.merge(r.metrics);
    joins += r.joins_attempted;
    e2e += r.e2e_succeeded;
    bytes += r.total_bytes;
    faults += r.faults_injected;
    outages += r.outages;
    recoveries += r.recoveries;
  }
  const auto tx = static_cast<double>(perf.frames_tx);
  const auto serve_value = [&serve](const char* name) {
    const auto it = serve.find(name);
    return it == serve.end() ? 0.0 : it->second;
  };

  report.add("sim.ns_per_event",
             ratio(in.untraced_run_wall_s * 1e9,
                   static_cast<double>(in.untraced_events)),
             "ns");
  report.add("sim.events_popped", static_cast<double>(perf.events_popped),
             "count");
  report.add("sim.events_cancelled",
             static_cast<double>(perf.events_cancelled), "count");
  report.add("sim.heap_peak", static_cast<double>(perf.heap_peak), "count");
  report.add("sim.callbacks_heap", static_cast<double>(perf.callbacks_heap),
             "count");
  report.add("sim.run_s", in.run_s_median, "s");
  report.add("phy.frames_tx", tx, "count");
  report.add("phy.fanout_per_tx",
             ratio(static_cast<double>(perf.frames_fanout), tx), "ratio");
  report.add("phy.candidates_per_tx",
             ratio(static_cast<double>(perf.radio_candidates), tx), "ratio");
  report.add("phy.grid_cells_scanned",
             static_cast<double>(perf.grid_cells_scanned), "count");
  report.add("phy.grid_rebuckets", static_cast<double>(perf.grid_rebuckets),
             "count");
  report.add("phy.channel_switches", m.value("phy.channel-switch-end"),
             "count");
  report.add("core.slot_begins", m.value("core.slot-begin"), "count");
  report.add("mac.psm_sleeps", m.value("mac.psm-sleep"), "count");
  report.add("mobility.deploy_s", in.deploy_s, "s");
  report.add("trace.pool_busy_frac", in.pool_busy_frac, "ratio");
  report.add("trace.validate_us", median(spans.durations("validate")) * 1e6,
             "us");
  report.add("trace.serde_us", median(spans.durations("serde")) * 1e6, "us");
  // A synthetic schedule resolves to itself; only a timeline compiles.
  report.add("tracein.resolve_ms",
             median(spans.durations("resolve.timeline")) * 1e3, "ms");
  for (const char* name :
       {"serve.service_ms_p50", "serve.wait_ms_p90"}) {
    report.add(name, serve_value(name), "ms");
  }
  for (const char* name : {"serve.queue_peak", "serve.inflight_peak",
                           "serve.rejected_overload"}) {
    report.add(name, serve_value(name), "count");
  }
  report.add("net.dhcp_bound", m.value("net.dhcp-bound"), "count");
  report.add("net.dhcp_fail", m.value("net.dhcp-fail"), "count");
  report.add("net.dhcp_nak", m.value("net.dhcp-nak"), "count");
  report.add("net.backhaul_drops", m.value("net.backhaul-drop"), "count");
  report.add("mac.assoc_ok_frac",
             ratio(m.value("mac.assoc-ok"),
                   m.value("mac.assoc-ok") + m.value("mac.assoc-fail")),
             "ratio");
  report.add("core.join_e2e_frac",
             ratio(static_cast<double>(e2e), static_cast<double>(joins)),
             "ratio");
  report.add("transport.bytes", static_cast<double>(bytes), "bytes");
  report.add("fault.injected", static_cast<double>(faults), "count");
  report.add("fault.recovered_frac",
             ratio(static_cast<double>(recoveries),
                   static_cast<double>(outages)),
             "ratio");
  report.add("obs.overhead_frac",
             ratio(in.traced_run_wall_s, in.untraced_run_wall_s) - 1.0,
             "ratio");
  report.add("obs.overflowed", m.value("obs.overflowed"), "count");
  report.add("bench.gen_lag_ms_p90", serve_value("bench.gen_lag_ms_p90"),
             "ms");
  for (const char* name : {"bench.req_n_low", "bench.req_n_high",
                           "bench.backlog_low", "bench.backlog_high"}) {
    report.add(name, serve_value(name), "count");
  }
}

/// The end-to-end metrics every workload reports (README.md defines them
/// per workload). Latency is reported at p75: a serve phase has 60 or 90
/// samples, so p90 would rest on six to nine of them.
struct EndToEnd {
  double sim_s_per_wall_s = 0.0;
  double setup_s = 0.0;
  double p50_low_ms = 0.0, p75_low_ms = 0.0;
  double p50_high_ms = 0.0, p75_high_ms = 0.0;
  double goodput_rps = 0.0;

  void add_to(Report& report) const {
    report.add("sim_s_per_wall_s", sim_s_per_wall_s, "ratio");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("req_p50_ms.low", p50_low_ms, "ms");
    report.add("req_p75_ms.low", p75_low_ms, "ms");
    report.add("req_p50_ms.high", p50_high_ms, "ms");
    report.add("req_p75_ms.high", p75_high_ms, "ms");
    report.add("goodput_rps", goodput_rps, "1/s");
  }
};

class Bench {
 public:
  explicit Bench(Options options)
      : opt_(std::move(options)), spans_(opt_.trace, Clock::now()) {}

  int run() {
    std::ostringstream info;
    bool ran = false;
    if (opt_.workload == "road_sweep" || opt_.workload == "city_fleet") {
      ran = run_batch(info);
    } else if (opt_.workload == "serve_faulted") {
      ran = run_serve(info);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt_.workload.c_str());
      return 2;
    }
    if (!ran) return 1;
    std::string spans_path;
    if (spans_.enabled()) {
      spans_path = opt_.out_dir + "/spans-" + opt_.workload + "-" +
                   std::to_string(opt_.seed) + ".jsonl";
      if (!spans_.write_jsonl(spans_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
      }
    }
    std::printf("{\"info\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                "\"host\":{\"nproc\":%zu,\"cpu\":\"%s\",\"build_type\":\"%s\","
                "\"compiler\":\"%s\"}%s,\"spans\":\"%s\"}}\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed), opt_.trace ? 1 : 0,
                nproc(), util::json_escape(cpu_model()).c_str(),
                PERFBENCH_BUILD_TYPE, util::json_escape(__VERSION__).c_str(),
                info.str().c_str(), spans_path.c_str());
    report_.print_result();
    return 0;
  }

 private:
  // ------------------------------------------------------ configurations

  /// The configs of measured round `round`. Each round draws fresh
  /// scenario seeds, so a run averages over many inputs.
  std::vector<trace::ScenarioConfig> round_configs(std::uint64_t round) const {
    std::vector<trace::ScenarioConfig> out;
    if (opt_.workload == "road_sweep") {
      // The shape of the paper's tables and figures (§4.1): 1800 s
      // single-client town drives at the default AP density, each seed
      // under the four stacks the paper compares.
      constexpr std::uint64_t kSeeds = 6;
      for (std::uint64_t i = 0; i < kSeeds; ++i) {
        const std::uint64_t s = opt_.seed * 100000 + round * kSeeds + i;
        trace::ScenarioConfig spider = bench::town_scenario(s);
        trace::ScenarioConfig split = bench::town_scenario(s);
        split.spider = bench::tuned_spider();
        split.spider.mode =
            core::OperationMode::equal_split({1, 6, 11}, msec(200));
        trace::ScenarioConfig fatvap = bench::town_scenario(s);
        fatvap.driver = trace::DriverKind::kFatVap;
        trace::ScenarioConfig stock = bench::town_scenario(s);
        stock.driver = trace::DriverKind::kStock;
        for (trace::ScenarioConfig* c : {&spider, &split, &fatvap, &stock}) {
          out.push_back(*c);
        }
      }
    } else {
      // A 2x2 km street mesh with 1000 APs and 64 Spider clients on
      // channel 1, 12 s runs. Four per round, side by side: one run at a
      // time swung by ±20% between back-to-back runs on a shared 4-vCPU
      // host, four at once by about ±3%.
      constexpr std::uint64_t kSeeds = 4;
      for (std::uint64_t i = 0; i < kSeeds; ++i) {
        trace::ScenarioConfig cfg;
        cfg.seed = opt_.seed * 100000 + round * kSeeds + i;
        cfg.duration = sec(12);
        cfg.speed_mps = 10.0;
        cfg.clients = 64;
        mob::CityGridConfig city;
        city.aps_per_km2 = 1000.0 / (city.width_m * city.height_m / 1e6);
        cfg.city = city;
        cfg.driver = trace::DriverKind::kSpider;
        cfg.spider = bench::tuned_spider();
        cfg.spider.mode = core::OperationMode::single(1);
        out.push_back(cfg);
      }
    }
    return out;
  }

  // ------------------------------------------------------ library calls

  bool validated(const trace::ScenarioConfig& cfg, int parent) {
    std::vector<trace::ConfigIssue> issues;
    {
      const SpanLog::Scope span = spans_.open("validate", cfg.seed, parent);
      issues = cfg.validate();
    }
    report_.check(issues.empty(), "validate seed " + std::to_string(cfg.seed) +
                                      ": " + trace::join_issues(issues));
    return issues.empty();
  }

  /// Host time of the deployment generator for `cfg`'s AP population.
  double time_deployment(const trace::ScenarioConfig& cfg, int parent) {
    std::vector<double> walls;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Rng rng(cfg.seed);
      const Clock::time_point t0 = Clock::now();
      std::size_t sites = 0;
      if (cfg.city) {
        const SpanLog::Scope span =
            spans_.open("generate_city_deployment", cfg.seed, parent);
        sites = mob::generate_city_deployment(*cfg.city, rng).size();
      } else {
        const SpanLog::Scope span =
            spans_.open("generate_deployment", cfg.seed, parent);
        sites = mob::generate_deployment(cfg.deployment, rng).size();
      }
      walls.push_back(since(t0));
      report_.check(sites > 0, "deployment generator produced no APs");
    }
    return median(walls);
  }

  /// Median host time of zero-horizon runs of the first rounds' configs:
  /// testbed assembly (deployment, AP and client stacks) with no simulated
  /// time. Serial, so thread wake-ups do not swamp the assembly work.
  double setup_seconds(int parent) {
    constexpr std::size_t kSetupConfigs = 4;
    std::vector<trace::ScenarioConfig> configs;
    for (std::uint64_t r = 0; configs.size() < kSetupConfigs; ++r) {
      for (trace::ScenarioConfig& c : round_configs(r)) {
        c.duration = Time{1};
        configs.push_back(c);
      }
    }
    const trace::ScenarioRunner runner;
    std::vector<double> walls;
    const Clock::time_point begin = Clock::now();
    for (int rep = 0; rep < kSetupReps || since(begin) < kSetupMinS; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const SpanLog::Scope span = spans_.open("setup.run_many", rep, parent);
      runner.run_many(configs);
      walls.push_back(since(t0));
    }
    return median(walls);
  }

  // ------------------------------------------------------------- batch

  /// Runs rounds of configs through ScenarioRunner::run_many at
  /// jobs = nproc until the time budget is spent. The traced run pairs
  /// every untraced round with a traced re-run of the same configs: the
  /// pair must agree on every digest, and their host times give the
  /// tracing overhead. A final check re-runs the first config at jobs = 1.
  bool run_batch(std::ostringstream& info) {
    const std::size_t jobs = nproc();
    const SpanLog::Scope root = spans_.open(opt_.workload.c_str());
    LayerInputs layers;
    EndToEnd e2e;
    e2e.setup_s = setup_seconds(root.index());
    if (opt_.trace) {
      layers.deploy_s = time_deployment(round_configs(0)[0], root.index());
    }

    trace::RunnerOptions untraced_options;
    untraced_options.jobs = jobs;
    trace::RunnerOptions traced_options = untraced_options;
    traced_options.tracing = true;
    const trace::ScenarioRunner untraced(untraced_options);
    const trace::ScenarioRunner traced(traced_options);

    std::vector<std::string> done_digests;  ///< every untraced run, in order
    std::vector<double> round_rates, run_walls_ms, busy_fracs;
    double total_sim_s = 0.0, total_round_s = 0.0;
    std::uint64_t runs = 0, failed = 0, rounds = 0;
    const Clock::time_point start = Clock::now();
    double last_round_s = 0.0;
    while (rounds == 0 || since(start) + 0.5 * last_round_s < opt_.seconds) {
      const Clock::time_point round_start = Clock::now();
      const std::vector<trace::ScenarioConfig> configs = round_configs(rounds);
      for (const trace::ScenarioConfig& c : configs) {
        if (!validated(c, root.index())) return false;
      }
      const Clock::time_point t0 = Clock::now();
      std::vector<trace::ScenarioResult> results;
      {
        const SpanLog::Scope span =
            spans_.open("run_many", rounds, root.index());
        results = untraced.run_many(configs);
      }
      const double wall_s = since(t0);
      double sim_s = 0.0, run_wall_s = 0.0;
      for (std::size_t i = 0; i < results.size(); ++i) {
        const trace::ScenarioResult& r = results[i];
        sim_s += r.perf.sim_seconds;
        run_wall_s += r.perf.wall_seconds;
        layers.untraced_run_wall_s += r.perf.wall_seconds;
        layers.untraced_events += r.perf.events_popped;
        failed += !r.completed;
        run_walls_ms.push_back(r.perf.wall_seconds * 1e3);
        done_digests.push_back(run_digest(r));
      }
      runs += results.size();
      round_rates.push_back(sim_s / wall_s);
      total_sim_s += sim_s;
      total_round_s += wall_s;
      busy_fracs.push_back(run_wall_s / (static_cast<double>(jobs) * wall_s));

      if (opt_.trace) {
        std::vector<trace::ScenarioResult> traced_results;
        {
          const SpanLog::Scope span =
              spans_.open("run_many.traced", rounds, root.index());
          traced_results = traced.run_many(configs);
        }
        const std::size_t base = done_digests.size() - results.size();
        for (std::size_t i = 0; i < traced_results.size(); ++i) {
          const trace::ScenarioResult& r = traced_results[i];
          layers.traced_run_wall_s += r.perf.wall_seconds;
          report_.check(run_digest(r) == done_digests[base + i],
                        "seed " + std::to_string(configs[i].seed) +
                            ": tracing changed the simulated result");
        }
        runs += traced_results.size();
        if (rounds == 0) layers.traced = std::move(traced_results);
      }
      last_round_s = since(round_start);
      ++rounds;
    }
    const double measured_s = since(start);

    // Worker-count identity: the first config re-run alone at jobs = 1.
    const trace::ScenarioConfig first = round_configs(0)[0];
    std::string serial_digest;
    {
      const SpanLog::Scope span = spans_.open("run_one.jobs_1", first.seed,
                                              root.index());
      serial_digest = run_digest(trace::ScenarioRunner().run_one(first));
    }
    report_.check(serial_digest == done_digests[0],
                  "seed " + std::to_string(first.seed) +
                      " differs between jobs=" + std::to_string(jobs) +
                      " and jobs=1");
    // The digest covers round 0, which every run of this seed executes
    // whatever the host speed.
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < round_configs(0).size(); ++i) {
      digest = fnv1a(done_digests[i] + "\n", digest);
    }
    report_.count_ops(runs, failed);

    info << ",\"digest\":\"" << hex(digest) << "\",\"jobs\":" << jobs
         << ",\"rounds\":" << rounds << ",\"runs\":" << runs
         << ",\"run_latency_samples\":" << run_walls_ms.size()
         << ",\"round_rates\":[";
    for (std::size_t i = 0; i < round_rates.size(); ++i) {
      info << (i ? "," : "") << util::json_number(round_rates[i]);
    }
    info << "],\"measured_s\":" << util::json_number(measured_s)
         << ",\"ns_per_event\":"
         << util::json_number(
                ratio(layers.untraced_run_wall_s * 1e9,
                      static_cast<double>(layers.untraced_events)));

    if (!opt_.trace) {
      // Pooled over every round: each round draws other seeds, so a
      // median of round rates would carry more input variance.
      e2e.sim_s_per_wall_s = total_sim_s / total_round_s;
      // A batch has one load level, so both phase suffixes report the
      // host time of one run in the batch.
      e2e.p50_low_ms = e2e.p50_high_ms = quantile(run_walls_ms, 0.5);
      e2e.p75_low_ms = e2e.p75_high_ms = quantile(run_walls_ms, 0.75);
      e2e.goodput_rps = static_cast<double>(runs - failed) / measured_s;
      e2e.add_to(report_);
      return true;
    }
    layers.run_s_median = median(run_walls_ms) / 1e3;
    layers.pool_busy_frac = median(busy_fracs);
    add_layer_metrics(layers, spans_, {}, report_);
    return true;
  }

  // ------------------------------------------------------------- serve

  /// Fixed open-loop rates, about 30% and 45% of the default two-worker
  /// server's capacity on this request mix (about 13 req/s on a 4-vCPU
  /// Xeon host). README.md says why they sit far below 70% and 90%.
  static constexpr double kRateLow = 4.0;
  static constexpr double kRateHigh = 6.0;
  /// Simulated length of one request's drive.
  static constexpr int kServeDriveS = 120;
  /// A request answered later than this after its due time misses goodput.
  static constexpr double kLimitMs = 1000.0;
  /// Every kOracleStride-th request is re-run in process and compared.
  /// Odd, so the sample alternates faulted and trace-replay requests.
  static constexpr std::size_t kOracleStride = 9;
  static constexpr std::size_t kOracleJobs = 2;
  static constexpr double kDrainCapS = 60.0;
  /// Requests run closed-loop before the phases, so the first measured
  /// requests do not pay for a cold process.
  static constexpr std::size_t kWarmupRequests = 8;
  /// The phases alternate in blocks of about this length, low first, so
  /// each phase's samples span the whole run and a host slowdown of a few
  /// seconds falls on both phases alike.
  static constexpr double kBlockS = 5.0;

  struct Request {
    trace::ScenarioConfig config;  ///< as parsed back from its wire form
    std::string line;
    int phase = 0;  ///< 0 low, 1 high
    Clock::time_point due;
    bool answered = false;
    bool ok = false;
    Clock::time_point answered_at;
    std::string stats_json;  ///< RunStats re-serialized from the response
    double sim_s = 0.0;      ///< simulated seconds the response reports
  };

  /// kServeDriveS Spider 1/6/11 drive at 20 APs/km along a road exactly
  /// as long as the drive. Even requests carry a synthetic 12-fault
  /// schedule, odd ones an inline occupancy timeline.
  trace::ScenarioConfig serve_config(std::uint64_t index) const {
    trace::ScenarioConfig cfg;
    cfg.seed = opt_.seed * 100000 + index;
    cfg.duration = sec(kServeDriveS);
    cfg.speed_mps = 10.0;
    cfg.deployment.road_length_m = cfg.speed_mps * kServeDriveS;
    cfg.deployment.aps_per_km = 20;
    cfg.driver = trace::DriverKind::kSpider;
    cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(200));
    Rng rng(cfg.seed ^ 0x5eedfa17u);
    // Each draw is its own statement: argument evaluation order is
    // unspecified, and the inputs must not depend on the compiler.
    const auto seconds = [&rng](double lo_s, double hi_s) {
      return Time{static_cast<std::int64_t>(rng.uniform(lo_s, hi_s) * 1e6)};
    };
    if (index % 2 == 0) {
      fault::FaultSchedule s;
      const int aps = static_cast<int>(cfg.deployment.road_length_m *
                                       cfg.deployment.aps_per_km / 1000.0);
      for (int k = 0; k < 3; ++k) {
        for (const fault::FaultKind kind :
             {fault::FaultKind::kApReboot, fault::FaultKind::kDhcpStall,
              fault::FaultKind::kApBlackout,
              fault::FaultKind::kChannelBurstLoss}) {
          const Time at = seconds(5, kServeDriveS - 25);
          const Time outage = kind == fault::FaultKind::kApReboot
                                  ? seconds(2, 10)
                                  : seconds(5, 20);
          const auto target = static_cast<int>(rng.uniform_int(0, aps - 1));
          const auto channel = static_cast<wire::Channel>(
              1 + 5 * rng.uniform_int(0, 2));  // 1, 6 or 11
          const double loss = rng.uniform(0.5, 0.9);
          switch (kind) {
            case fault::FaultKind::kApReboot:
              s.ap_reboot(at, outage, target);
              break;
            case fault::FaultKind::kDhcpStall:
              s.dhcp_stall(at, outage, target);
              break;
            case fault::FaultKind::kApBlackout:
              s.ap_blackout(at, outage, target);
              break;
            default:
              s.burst_loss(at, outage, channel, loss);
              break;
          }
        }
      }
      cfg.impairments = trace::ImpairmentSource::synthetic(std::move(s));
    } else {
      tracein::OccupancyTimeline timeline;
      for (int t = 0; t < kServeDriveS; t += 5) {
        for (const wire::Channel ch : {1, 6, 11}) {
          const double occ = rng.chance(0.3) ? rng.uniform(0.2, 0.8)
                                             : rng.uniform(0.0, 0.1);
          timeline.samples.push_back({sec(t), ch, occ});
        }
      }
      cfg.impairments = trace::ImpairmentSource::inline_timeline(timeline);
    }
    return cfg;
  }

  /// Builds one request through validate, resolve and a wire round trip.
  std::optional<Request> build_request(std::uint64_t index, int parent) {
    Request req;
    const trace::ScenarioConfig cfg = serve_config(index);
    if (!validated(cfg, parent)) return std::nullopt;
    std::string error;
    std::optional<fault::FaultSchedule> schedule;
    {
      const bool synthetic =
          cfg.impairments.kind == trace::ImpairmentSource::Kind::kSynthetic;
      const SpanLog::Scope span = spans_.open(
          synthetic ? "resolve.synthetic" : "resolve.timeline", index, parent);
      schedule = cfg.impairments.resolve(&error);
    }
    if (!schedule || schedule->empty()) {
      report_.check(false, "request " + std::to_string(index) +
                               " impairments resolve to nothing: " + error);
      return std::nullopt;
    }
    std::string json;
    bool parsed = false;
    {
      const SpanLog::Scope span = spans_.open("serde", index, parent);
      json = serve::scenario_to_json(cfg);
      const std::optional<util::Json> doc = util::Json::parse(json);
      parsed = doc && serve::parse_scenario(*doc, &req.config, &error);
    }
    // The wire form must round-trip, so the in-process oracle runs exactly
    // the scenario the server parses.
    if (!parsed || serve::scenario_to_json(req.config) != json) {
      report_.check(false, "request " + std::to_string(index) +
                               " scenario JSON does not round-trip: " + error);
      return std::nullopt;
    }
    req.line = "{\"op\":\"run\",\"id\":\"" + std::to_string(index) +
               "\",\"scenario\":" + json + "}";
    return req;
  }

  /// Starts a server on `socket` and connects `client`, then waits for
  /// the first pong. Returns the host time from construction to the pong.
  std::optional<double> start_server(
      std::unique_ptr<serve::ScenarioServer>& server, serve::LineClient& client,
      const std::string& socket, int parent) {
    const SpanLog::Scope span = spans_.open("server.start_to_pong", 0, parent);
    const Clock::time_point t0 = Clock::now();
    serve::ServerConfig config;
    config.socket_path = socket;
    config.tracing = opt_.trace;
    server = std::make_unique<serve::ScenarioServer>(config);
    std::string error;
    if (!server->start(&error) || !client.connect_to(socket, &error) ||
        !client.send_line("{\"op\":\"ping\",\"id\":\"ping\"}")) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   error.c_str());
      return std::nullopt;
    }
    const std::optional<std::string> pong = client.recv_line(10'000.0);
    if (!pong || pong->find("\"ping\"") == std::string::npos) {
      std::fprintf(stderr, "perfbench: no pong from the server\n");
      return std::nullopt;
    }
    return since(t0);
  }

  /// Sends `warmup` back to back and waits for every answer.
  bool run_warmup(serve::LineClient& client, const std::vector<Request>& warmup,
                  int parent) {
    const SpanLog::Scope span = spans_.open("warmup", warmup.size(), parent);
    for (const Request& r : warmup) {
      if (!client.send_line(r.line)) return false;
    }
    for (std::size_t k = 0; k < warmup.size(); ++k) {
      const std::optional<std::string> line = client.recv_line(60'000.0);
      if (!line || line->find("\"ok\":true") == std::string::npos) {
        std::fprintf(stderr, "perfbench: warm-up request failed\n");
        return false;
      }
    }
    return true;
  }

  void take_response(const std::string& line, std::vector<Request>& reqs,
                     std::uint64_t& answered) {
    const Clock::time_point now = Clock::now();
    const std::optional<util::Json> doc = util::Json::parse(line);
    const util::Json* id = doc ? doc->find("id") : nullptr;
    const std::size_t index =
        id ? std::strtoull(id->string_or("").c_str(), nullptr, 10)
           : reqs.size();
    if (index >= reqs.size() || reqs[index].answered) {
      report_.check(false, "unexpected response: " + line.substr(0, 200));
      return;
    }
    Request& req = reqs[index];
    req.answered = true;
    req.answered_at = now;
    ++answered;
    const util::Json* ok = doc->find("ok");
    const util::Json* result = doc->find("result");
    std::optional<serve::RunStats> stats;
    if (ok && ok->bool_or(false) && result) {
      stats = serve::RunStats::from_json(*result);
    }
    req.ok = stats.has_value() && stats->completed;
    if (req.ok) {
      std::ostringstream os;
      stats->write_json(os);
      req.stats_json = os.str();
      req.sim_s = stats->sim_seconds;
    } else {
      std::fprintf(stderr, "perfbench: request %zu failed: %s\n", index,
                   line.substr(0, 300).c_str());
    }
  }

  bool run_serve(std::ostringstream& info) {
    const SpanLog::Scope root = spans_.open("serve_faulted");
    // The open-loop schedule: pairs of blocks, a low one then a high one.
    // Request k of a block is due at block start + k / rate.
    const int blocks = 2 * std::max(1, static_cast<int>(std::lround(
                                           opt_.seconds / (2 * kBlockS))));
    const double block_s = static_cast<double>(opt_.seconds) / blocks;
    struct Slot {
      int phase;
      double due_s;
    };
    std::vector<Slot> schedule;
    for (int b = 0; b < blocks; ++b) {
      const int phase = b % 2;
      const double rate = phase == 0 ? kRateLow : kRateHigh;
      const auto n = static_cast<int>(std::ceil(rate * block_s));
      for (int k = 0; k < n; ++k) {
        schedule.push_back({phase, b * block_s + k / rate});
      }
    }
    LayerInputs layers;
    std::vector<Request> reqs;
    std::vector<Request> warmup;
    for (std::size_t i = 0; i < schedule.size() + kWarmupRequests; ++i) {
      std::optional<Request> req = build_request(i, root.index());
      if (!req) return false;
      if (i < schedule.size()) {
        req->phase = schedule[i].phase;
        reqs.push_back(std::move(*req));
      } else {
        warmup.push_back(std::move(*req));
      }
    }

    const std::string socket =
        opt_.out_dir + "/pb" + std::to_string(::getpid()) + ".sock";
    std::vector<double> setups;
    const Clock::time_point setup_begin = Clock::now();
    for (int rep = 0; rep < kSetupReps || since(setup_begin) < kSetupMinS;
         ++rep) {
      std::unique_ptr<serve::ScenarioServer> server;
      serve::LineClient client;
      const std::optional<double> s =
          start_server(server, client, socket, root.index());
      if (server) server->shutdown();
      if (!s) return false;
      setups.push_back(*s);
    }

    std::unique_ptr<serve::ScenarioServer> server;
    serve::LineClient client;
    if (!start_server(server, client, socket, root.index()) ||
        !run_warmup(client, warmup, root.index())) {
      if (server) server->shutdown(true);
      return false;
    }

    // Open loop on one connection: each request is sent when due,
    // whether or not earlier ones were answered.
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    const auto at = [start](double t_s) {
      return start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t_s));
    };
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      reqs[i].due = at(schedule[i].due_s);
    }
    std::vector<double> gen_lag_ms;
    std::uint64_t answered = 0;
    std::size_t next = 0;
    bool connection_lost = false;
    const Clock::time_point drain_deadline = at(opt_.seconds + kDrainCapS);
    while (answered < reqs.size() && !connection_lost) {
      const Clock::time_point now = Clock::now();
      if (next < reqs.size() && now >= reqs[next].due) {
        gen_lag_ms.push_back(seconds_between(reqs[next].due, now) * 1e3);
        if (!client.send_line(reqs[next].line)) connection_lost = true;
        ++next;
        continue;
      }
      if (next == reqs.size() && now >= drain_deadline) break;
      const Clock::time_point until =
          next < reqs.size() ? reqs[next].due : drain_deadline;
      const std::optional<std::string> line =
          client.recv_line(std::max(0.0, seconds_between(now, until) * 1e3));
      if (line) {
        take_response(*line, reqs, answered);
      } else if (!client.connected()) {
        connection_lost = true;
      }
    }
    const Clock::time_point end = Clock::now();
    const obs::MetricsRegistry server_metrics = server->metrics_snapshot();
    client.disconnect();
    server->shutdown(true);
    server.reset();
    report_.check(!connection_lost, "lost the connection to the server");

    // Latency from each request's due time; failed, rejected and
    // unanswered requests count as misses and as failed operations.
    std::vector<double> latency[2];
    std::uint64_t good = 0, failed = 0;
    double served_sim_s = 0.0;
    for (const Request& r : reqs) {
      if (!r.answered || !r.ok) {
        ++failed;
        continue;
      }
      served_sim_s += r.sim_s;
      const double ms = seconds_between(r.due, r.answered_at) * 1e3;
      latency[r.phase].push_back(ms);
      good += ms <= kLimitMs;
      spans_.add("request", &r - reqs.data(), root.index(), r.due,
                 r.answered_at);
    }
    report_.count_ops(reqs.size(), failed);

    // Sent minus answered when each block's sending ended; a phase
    // reports its largest, so a backlog growing over its blocks shows.
    std::uint64_t backlog[2] = {};
    for (int b = 0; b < blocks; ++b) {
      const Clock::time_point block_end = at((b + 1) * block_s);
      std::uint64_t sent = 0, answered_by_end = 0;
      for (const Request& r : reqs) {
        sent += r.due < block_end;
        answered_by_end += r.answered && r.answered_at < block_end;
      }
      backlog[b % 2] = std::max(backlog[b % 2], sent - answered_by_end);
    }

    // Oracle: a sample of requests re-run in process through run_bounded
    // must reproduce the wire RunStats exactly. Their host times are the
    // in-process service times.
    std::vector<std::size_t> sample;
    for (std::size_t i = 0; i < reqs.size(); i += kOracleStride) {
      if (reqs[i].ok) sample.push_back(i);
    }
    const trace::ScenarioRunner runner;
    struct OracleRun {
      std::string stats_json;
      double wall_s = 0.0;
      double run_wall_s = 0.0;
      std::uint64_t events = 0;
    };
    const std::vector<OracleRun> oracle = util::parallel_map(
        kOracleJobs, sample.size(), [&](std::size_t k) {
          OracleRun out;
          const Clock::time_point t0 = Clock::now();
          trace::RunOutcome outcome;
          {
            const SpanLog::Scope span =
                spans_.open("run_bounded", sample[k], root.index());
            outcome = runner.run_bounded(reqs[sample[k]].config);
          }
          out.wall_s = since(t0);
          if (outcome.ok() && outcome.result) {
            std::ostringstream os;
            serve::RunStats::from_result(*outcome.result).write_json(os);
            out.stats_json = os.str();
            out.run_wall_s = outcome.result->perf.wall_seconds;
            out.events = outcome.result->perf.events_popped;
          }
          return out;
        });
    std::vector<double> service_ms, wait_ms;
    for (std::size_t k = 0; k < sample.size(); ++k) {
      const Request& r = reqs[sample[k]];
      report_.check(oracle[k].stats_json == r.stats_json,
                    "request " + std::to_string(sample[k]) +
                        ": wire RunStats differ from in-process run_bounded");
      service_ms.push_back(oracle[k].wall_s * 1e3);
      wait_ms.push_back(seconds_between(r.due, r.answered_at) * 1e3 -
                        oracle[k].wall_s * 1e3);
      layers.untraced_run_wall_s += oracle[k].run_wall_s;
      layers.untraced_events += oracle[k].events;
    }

    info << ",\"rates_rps\":{\"low\":" << util::json_number(kRateLow)
         << ",\"high\":" << util::json_number(kRateHigh)
         << "},\"req_n\":{\"low\":" << latency[0].size()
         << ",\"high\":" << latency[1].size() << "},\"blocks\":" << blocks
         << ",\"backlog_peak\":{\"low\":" << backlog[0]
         << ",\"high\":" << backlog[1] << "},\"failed\":" << failed
         << ",\"gen_lag_ms_p90\":"
         << util::json_number(quantile(gen_lag_ms, 0.9))
         << ",\"oracle_sample\":" << sample.size()
         << ",\"rejected_overload\":"
         << server_metrics.value("serve.rejected_overload")
         << ",\"measured_s\":"
         << util::json_number(seconds_between(start, end));
    std::uint64_t digest = kFnvBasis;
    for (const Request& r : reqs) digest = fnv1a(r.stats_json + "\n", digest);
    info << ",\"digest\":\"" << hex(digest) << '"';

    if (!opt_.trace) {
      EndToEnd e2e;
      // Open loop: simulated seconds answered per host second, which
      // equals the offered load while the server keeps up.
      e2e.sim_s_per_wall_s = served_sim_s / seconds_between(start, end);
      e2e.setup_s = median(setups);
      e2e.p50_low_ms = quantile(latency[0], 0.5);
      e2e.p75_low_ms = quantile(latency[0], 0.75);
      e2e.p50_high_ms = quantile(latency[1], 0.5);
      e2e.p75_high_ms = quantile(latency[1], 0.75);
      e2e.goodput_rps =
          static_cast<double>(good) / seconds_between(start, end);
      e2e.add_to(report_);
      return true;
    }

    // Traced: the simulated per-layer statistics come from a traced
    // in-process run of the same sample.
    std::vector<trace::ScenarioConfig> sample_configs;
    for (const std::size_t i : sample) sample_configs.push_back(reqs[i].config);
    trace::RunnerOptions traced_options;
    traced_options.jobs = kOracleJobs;
    traced_options.tracing = true;
    {
      const SpanLog::Scope span =
          spans_.open("run_many.traced", 0, root.index());
      layers.traced =
          trace::ScenarioRunner(traced_options).run_many(sample_configs);
    }
    for (const trace::ScenarioResult& r : layers.traced) {
      layers.traced_run_wall_s += r.perf.wall_seconds;
    }
    layers.run_s_median = median(service_ms) / 1e3;
    if (!sample.empty()) {
      layers.deploy_s = time_deployment(reqs[0].config, root.index());
    }
    const std::map<std::string, double> serve_metrics = {
        {"serve.service_ms_p50", quantile(service_ms, 0.5)},
        {"serve.wait_ms_p90", quantile(wait_ms, 0.9)},
        {"serve.queue_peak", server_metrics.value("serve.queue_peak")},
        {"serve.inflight_peak", server_metrics.value("serve.inflight_peak")},
        {"serve.rejected_overload",
         server_metrics.value("serve.rejected_overload")},
        {"bench.gen_lag_ms_p90", quantile(gen_lag_ms, 0.9)},
        {"bench.req_n_low", static_cast<double>(latency[0].size())},
        {"bench.req_n_high", static_cast<double>(latency[1].size())},
        {"bench.backlog_low", static_cast<double>(backlog[0])},
        {"bench.backlog_high", static_cast<double>(backlog[1])},
    };
    add_layer_metrics(layers, spans_, serve_metrics, report_);
    return true;
  }

  Options opt_;
  SpanLog spans_;
  Report report_;
};

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && opt->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  return Bench(std::move(opt)).run();
}
