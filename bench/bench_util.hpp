#pragma once

// Shared configuration for the reproduction benches. Each bench binary
// regenerates one table or figure of the paper; the defaults here are the
// paper's experimental constants (§4.1) so individual benches only override
// what their experiment sweeps.

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/cancel.hpp"
#include "trace/experiment.hpp"
#include "trace/export.hpp"
#include "trace/runner.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace spider::bench {

/// Process-wide cooperative stop token for bench binaries, tripped by
/// SIGINT/SIGTERM (installed by parse_sweep_cli). The sweep runner polls
/// it between and inside runs, so ^C during an hours-long sweep drains
/// promptly instead of losing everything.
inline sim::CancelToken& interrupt_token() {
  static sim::CancelToken token;
  return token;
}

namespace detail {
inline void on_interrupt_signal(int) { interrupt_token().request_cancel(); }
}  // namespace detail

inline void install_interrupt_handlers() {
  std::signal(SIGINT, detail::on_interrupt_signal);
  std::signal(SIGTERM, detail::on_interrupt_signal);
}

/// Every simulation-visible field of a faulted run, resilience counters
/// and the full TTR sample vector included. Comparing these strings across
/// reruns checks that the fault subsystem reproduced exactly, not
/// statistically.
inline std::string fault_digest(const trace::ScenarioResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "popped=%llu tx=%llu bytes=%llu joins=%zu e2e=%zu "
                "switches=%llu conn=%.9f faults=%llu outages=%llu "
                "recovered=%llu ttr_n=%zu",
                static_cast<unsigned long long>(r.perf.events_popped),
                static_cast<unsigned long long>(r.perf.frames_tx),
                static_cast<unsigned long long>(r.total_bytes),
                r.joins_attempted, r.e2e_succeeded,
                static_cast<unsigned long long>(r.switches), r.connectivity,
                static_cast<unsigned long long>(r.faults_injected),
                static_cast<unsigned long long>(r.outages),
                static_cast<unsigned long long>(r.recoveries),
                r.recovery_times.size());
  std::string out = buf;
  for (const double s : r.recovery_times.samples()) {
    std::snprintf(buf, sizeof buf, " %.9f", s);
    out += buf;
  }
  return out;
}

/// One CLI flag a sweep bench understands. A flag with a `value_name`
/// takes a value, accepted as `--name VALUE` or `--name=VALUE`; a flag
/// with an empty `value_name` is a switch and takes none. `apply` runs
/// during parsing with the raw value text (empty for a switch).
struct FlagSpec {
  std::string name;        // including the leading "--"
  std::string value_name;  // shown in the usage line, e.g. "N"; "" = switch
  std::string help;
  std::function<void(const std::string&)> apply;
};

/// Shared CLI flags of the sweep benches. Parsing is a declarative flag
/// table; benches register their own flags via `extra_flags`. Unknown
/// flags, bare positional arguments, flags missing their value and
/// switches given one are hard errors: usage goes to stderr and the bench
/// exits with status 2.
///
///   --jobs N            worker threads; 0 = SPIDER_JOBS env, then
///                       hardware_concurrency (ThreadPool::default_jobs)
///   --perf-csv PATH     dump per-run engine counters after the sweep
///   --trace-jsonl PATH  flight-recorder events, one JSON object per line
///   --trace-chrome PATH flight-recorder events as Chrome trace-event JSON
///                       (load in Perfetto / chrome://tracing)
///   --metrics-csv PATH  merged per-layer event counters as metric,kind,value
///
/// Perf counters and traces carry host-dependent values and therefore only
/// ever go to files, never to stdout: bench stdout must stay byte-identical
/// across --jobs settings, and any --trace-* flag implies tracing without
/// touching stdout.
struct SweepCli {
  /// Sweeps default to every core (jobs = 0); --jobs overrides.
  trace::RunnerOptions sweep{.jobs = 0};
  std::string perf_csv;

  /// Validates every config up front; malformed sweeps print the issues
  /// and exit 2 instead of asserting (or silently misbehaving) mid-run.
  void check(const std::vector<trace::ScenarioConfig>& configs) const {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const std::vector<trace::ConfigIssue> issues = configs[i].validate();
      if (!issues.empty()) {
        std::fprintf(stderr, "invalid scenario (sweep index %zu): %s\n", i,
                     trace::join_issues(issues).c_str());
        std::exit(2);
      }
    }
  }

  /// Validated sweep with graceful-interrupt semantics: on SIGINT/SIGTERM
  /// the sweep drains, partial sinks are flushed, a completed/total count
  /// goes to stderr, and the bench exits 130 — stdout never carries a
  /// partial table that could be mistaken for a full run. `app` rides
  /// along as in ScenarioRunner::run_many.
  std::vector<trace::ScenarioResult> run(
      const std::vector<trace::ScenarioConfig>& configs,
      const trace::AppFactory& app = {}) const {
    check(configs);
    std::vector<trace::ScenarioResult> results =
        trace::ScenarioRunner(sweep).run_many(configs, app);
    exit_if_interrupted(results);
    return results;
  }

  std::vector<trace::ScenarioResult> run_averaged(
      const std::vector<trace::ScenarioConfig>& configs, int runs) const {
    check(configs);
    std::vector<trace::ScenarioResult> results =
        trace::ScenarioRunner(sweep).run_many_averaged(configs, runs);
    exit_if_interrupted(results);
    return results;
  }

  void exit_if_interrupted(
      const std::vector<trace::ScenarioResult>& results) const {
    if (sweep.cancel == nullptr || !sweep.cancel->cancel_requested()) return;
    std::size_t done = 0;
    for (const trace::ScenarioResult& r : results) done += r.completed;
    // Trace sinks were already flushed by the runner; add the perf CSV
    // for the runs that did finish.
    if (!perf_csv.empty() && !trace::write_perf_csv(perf_csv, results)) {
      std::fprintf(stderr, "warning: could not write %s\n", perf_csv.c_str());
    }
    std::fprintf(stderr,
                 "interrupted: %zu/%zu runs completed; partial output "
                 "flushed\n",
                 done, results.size());
    std::exit(130);
  }
};

inline void print_sweep_usage(const char* argv0,
                              const std::vector<FlagSpec>& flags) {
  const auto synopsis = [](const FlagSpec& f) {
    return f.value_name.empty() ? f.name : f.name + " " + f.value_name;
  };
  std::fprintf(stderr, "usage: %s", argv0);
  for (const FlagSpec& f : flags) {
    std::fprintf(stderr, " [%s]", synopsis(f).c_str());
  }
  std::fprintf(stderr, "\n");
  for (const FlagSpec& f : flags) {
    std::fprintf(stderr, "  %s\n      %s\n", synopsis(f).c_str(),
                 f.help.c_str());
  }
}

inline SweepCli parse_sweep_cli(int argc, char** argv,
                                std::vector<FlagSpec> extra_flags = {}) {
  SweepCli cli;
  install_interrupt_handlers();
  cli.sweep.cancel = &interrupt_token();
  std::vector<FlagSpec> flags;
  const auto fail = [&](const std::string& message) {
    std::fprintf(stderr, "%s: %s\n", argv[0], message.c_str());
    print_sweep_usage(argv[0], flags);
    std::exit(2);
  };
  flags = {
      {"--jobs", "N",
       "worker threads; 0 = SPIDER_JOBS env, then hardware_concurrency",
       [&cli, &fail](const std::string& v) {
         const char* last = v.data() + v.size();
         std::size_t jobs = 0;
         const auto [end, ec] = std::from_chars(v.data(), last, jobs);
         if (ec != std::errc() || end != last) {
           fail("flag '--jobs' expects a non-negative integer, got '" + v +
                "'");
         }
         cli.sweep.jobs = jobs;
       }},
      {"--perf-csv", "PATH", "dump per-run engine counters after the sweep",
       [&cli](const std::string& v) { cli.perf_csv = v; }},
      {"--trace-jsonl", "PATH",
       "record a flight recorder per run; write events as JSON lines",
       [&cli](const std::string& v) { cli.sweep.sinks.jsonl_path = v; }},
      {"--trace-chrome", "PATH",
       "record a flight recorder per run; write Chrome trace-event JSON",
       [&cli](const std::string& v) { cli.sweep.sinks.chrome_path = v; }},
      {"--metrics-csv", "PATH",
       "write merged per-layer event counters as metric,kind,value rows",
       [&cli](const std::string& v) { cli.sweep.sinks.metrics_path = v; }},
  };
  for (FlagSpec& f : extra_flags) flags.push_back(std::move(f));

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      fail("unexpected argument '" + arg + "'");
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const FlagSpec* spec = nullptr;
    for (const FlagSpec& f : flags) {
      if (f.name == name) {
        spec = &f;
        break;
      }
    }
    if (spec == nullptr) {
      fail("unknown flag '" + name + "'");
    }
    std::string value;
    if (spec->value_name.empty()) {
      if (eq != std::string::npos) {
        fail("flag '" + name + "' takes no value");
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      fail("flag '" + name + "' expects a value (" + spec->value_name + ")");
    }
    spec->apply(value);
  }
  return cli;
}

/// Host fingerprint for the wall-clock records a bench writes to JSON, so
/// numbers from different hosts or build types are never compared: a JSON
/// object {"nproc": N, "cpu": "<model>", "build_type": "<type>"}. The CPU
/// model is the first "model name" of /proc/cpuinfo ("unknown" elsewhere);
/// `build_type` is the CMAKE_BUILD_TYPE the bench was compiled with.
inline std::string host_fingerprint_json(const std::string& build_type) {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t value = line.find_first_not_of(" \t:", line.find(':'));
    if (value != std::string::npos) cpu = line.substr(value);
    break;
  }
  return "{\"nproc\": " +
         std::to_string(std::max(1u, std::thread::hardware_concurrency())) +
         ", \"cpu\": \"" + util::json_escape(cpu) + "\", \"build_type\": \"" +
         util::json_escape(build_type) + "\"}";
}

inline void maybe_write_perf_csv(const SweepCli& cli,
                                 const std::vector<trace::ScenarioResult>& results) {
  if (cli.perf_csv.empty()) return;
  if (!trace::write_perf_csv(cli.perf_csv, results)) {
    std::fprintf(stderr, "warning: could not write %s\n", cli.perf_csv.c_str());
  }
}

/// The "our town" vehicular environment of §4.1: a downtown road driven
/// repeatedly at passenger-car speed, open APs concentrated on channels
/// 1/6/11, residential backhauls, heavy-tailed DHCP servers.
inline trace::ScenarioConfig town_scenario(std::uint64_t seed = 1) {
  trace::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = sec(1800);  // "30-60 minutes" per experiment
  cfg.speed_mps = 10.0;
  cfg.deployment.road_length_m = 2500;
  cfg.deployment.aps_per_km = 10;
  cfg.driver = trace::DriverKind::kSpider;
  cfg.spider.mode = core::OperationMode::single(1);
  return cfg;
}

/// Spider's tuned mobile stack (100 ms link-layer timers, reduced DHCP
/// retransmit) used throughout §4 unless the experiment sweeps timers.
inline core::SpiderConfig tuned_spider() {
  core::SpiderConfig c;
  c.num_interfaces = 7;
  c.mlme = {.ll_timeout = msec(100), .max_retries = 5};
  c.dhcp = {.retx_timeout = msec(600), .max_sends = 4};
  return c;
}

/// The extension benches' drive: 15 minutes of the §4.1 town on the tuned
/// stack, scheduling `mode`.
inline trace::ScenarioConfig town_drive_15min(std::uint64_t seed,
                                              const core::OperationMode& mode) {
  trace::ScenarioConfig cfg = town_scenario(seed);
  cfg.duration = sec(900);
  cfg.spider = tuned_spider();
  cfg.spider.mode = mode;
  return cfg;
}

/// The indoor rig of the driver micro-benchmarks (Table 1, Figs. 7, 8, 10,
/// the PSM ablation): a static client at the origin (speed 0 parks it at
/// the road's start), `sites` in easy range (1% base loss, 95 m good
/// radius) behind quick DHCP servers, and the tuned stack.
inline trace::ScenarioConfig static_rig(std::uint64_t seed, Time duration,
                                        std::vector<mob::ApSite> sites) {
  trace::ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = duration;
  cfg.speed_mps = 0.0;
  cfg.fixed_sites = std::move(sites);
  cfg.propagation.base_loss = 0.01;
  cfg.propagation.good_radius_m = 95;
  cfg.dhcp_server.offer_delay_median = msec(150);
  cfg.dhcp_server.offer_delay_max = msec(400);
  cfg.spider = tuned_spider();
  return cfg;
}

/// Posts `fn` where a bench reading the run between run_until(t) and the
/// next run_until would act: one tick after `t`. run_until(t) runs every
/// event at `t` before its caller reads, while an event posted now for `t`
/// would run ahead of the events queued for `t` later.
template <typename Fn>
void post_after(sim::Simulator& sim, Time t, Fn&& fn) {
  sim.post_at(t + usec(1), std::forward<Fn>(fn));
}

/// The bulk download measured over a window: joins and slow start settle
/// for the first 15 s, then the KB/s delivered from there to the end of the
/// run lands in `kBps`. The app owns its recorder and harness, so the run's
/// own download stays detached.
class WindowDownload : public trace::ScenarioApp {
 public:
  static constexpr Time kWarmup = sec(15);

  WindowDownload(trace::Testbed& bed, double& kBps)
      : sim_(bed.sim), harness_(bed.sim, bed.server_ip(), recorder_),
        kBps_(kBps) {
    post_after(sim_, kWarmup,
               [this] { warm_bytes_ = recorder_.total_bytes(); });
  }
  bool attach(trace::ClientRig& rig) override {
    if (rig.stock) {
      harness_.attach(*rig.stock);
    } else {
      harness_.attach(*rig.manager);
    }
    return false;
  }
  void finish() override {
    kBps_ = static_cast<double>(recorder_.total_bytes() - warm_bytes_) /
            to_seconds(sim_.now() - kWarmup) / 1e3;
  }

 private:
  sim::Simulator& sim_;
  trace::ThroughputRecorder recorder_;
  trace::DownloadHarness harness_;
  double& kBps_;
  std::uint64_t warm_bytes_ = 0;
};

/// Runs `configs` on the sweep, each with a WindowDownload; returns each
/// run's window KB/s in config order.
inline std::vector<double> run_windows(
    const SweepCli& cli, const std::vector<trace::ScenarioConfig>& configs) {
  std::vector<double> kBps(configs.size());
  const auto results =
      cli.run(configs, [&kBps](std::size_t run, trace::Testbed& bed) {
        return std::make_unique<WindowDownload>(bed, kBps[run]);
      });
  maybe_write_perf_csv(cli, results);
  return kBps;
}

/// Prints a CDF as fraction-at-or-below over a fixed grid, one row per x.
inline void print_cdf(const std::string& label, const Cdf& cdf,
                      const std::vector<double>& grid,
                      const std::string& x_label) {
  TextTable t({x_label, "F(x) [" + label + "]", "n=" + std::to_string(cdf.size())});
  for (double x : grid) {
    t.add_row({TextTable::num(x, 2), TextTable::num(cdf.fraction_at_or_below(x), 3)});
  }
  t.print(std::cout);
  if (!cdf.empty()) {
    std::printf("  median=%.2f  mean=%.2f  p90=%.2f\n\n", cdf.median(),
                cdf.mean(), cdf.quantile(0.9));
  } else {
    std::printf("  (no samples)\n\n");
  }
}

inline std::vector<double> linspace(double lo, double hi, int n) {
  std::vector<double> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * i / (n - 1));
  }
  return out;
}

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "==========================================================\n"
            << title << "\n(" << paper_ref << ")\n"
            << "==========================================================\n";
}

}  // namespace spider::bench
