// spider_sim_cli — a command-line front end for the scenario runner, the
// tool a downstream user reaches for first: configure a drive, run it,
// read a summary, optionally dump CSVs for plotting.
//
//   ./build/examples/spider_sim_cli --driver spider --mode single:6
//       --speed 12 --duration 600 --density 10 --seed 3 --csv out/run1
//
// Flags (all optional):
//   --driver spider|stock|fatvap       (default spider)
//   --mode single:<ch> | equal:<ch,ch,...>[:<period_ms>]   (default single:6)
//   --ifaces N          virtual interfaces            (default 7)
//   --speed M           vehicle speed, m/s            (default 10)
//   --duration S        simulated seconds             (default 900)
//   --road M            road length, metres           (default 2500)
//   --density N         open APs per km               (default 10)
//   --seed N            RNG seed                      (default 1)
//   --adaptive          enable the speed-adaptive controller
//   --sites-csv FILE    replay AP sites from a CSV instead of generating
//   --csv PREFIX        write PREFIX.timeseries.csv / PREFIX.joins.csv

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "mobility/deployment_io.hpp"
#include "trace/experiment.hpp"
#include "trace/export.hpp"
#include "trace/runner.hpp"

using namespace spider;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--driver spider|stock|fatvap] [--mode MODE]\n"
               "          [--ifaces N] [--speed M] [--duration S] [--road M]\n"
               "          [--density N] [--seed N] [--adaptive] [--csv PREFIX]\n"
               "MODE: single:<ch> or equal:<ch,ch,...>[:<period_ms>]\n",
               argv0);
  std::exit(2);
}

core::OperationMode parse_mode(const std::string& text, const char* argv0) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) usage(argv0);
  const std::string kind = text.substr(0, colon);
  std::string rest = text.substr(colon + 1);
  if (kind == "single") {
    return core::OperationMode::single(std::atoi(rest.c_str()));
  }
  if (kind == "equal") {
    Time period = msec(600);
    if (const auto p = rest.find(':'); p != std::string::npos) {
      period = msec(std::atoi(rest.substr(p + 1).c_str()));
      rest = rest.substr(0, p);
    }
    std::vector<wire::Channel> channels;
    std::size_t pos = 0;
    while (pos < rest.size()) {
      auto comma = rest.find(',', pos);
      if (comma == std::string::npos) comma = rest.size();
      channels.push_back(std::atoi(rest.substr(pos, comma - pos).c_str()));
      pos = comma + 1;
    }
    if (channels.empty()) usage(argv0);
    return core::OperationMode::equal_split(channels, period);
  }
  usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  trace::ScenarioConfig cfg;
  cfg.duration = sec(900);
  cfg.deployment.road_length_m = 2500;
  cfg.deployment.aps_per_km = 10;
  cfg.spider.mode = core::OperationMode::single(6);
  std::string csv_prefix;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--driver") {
      const std::string d = next();
      cfg.driver = d == "spider"   ? trace::DriverKind::kSpider
                   : d == "stock"  ? trace::DriverKind::kStock
                   : d == "fatvap" ? trace::DriverKind::kFatVap
                                   : (usage(argv[0]), trace::DriverKind::kSpider);
    } else if (arg == "--mode") {
      cfg.spider.mode = parse_mode(next(), argv[0]);
      cfg.fatvap.channels = cfg.spider.mode.channels();
    } else if (arg == "--ifaces") {
      cfg.spider.num_interfaces = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--speed") {
      cfg.speed_mps = std::atof(next());
    } else if (arg == "--duration") {
      const char* text = next();
      const std::optional<Time> duration =
          bounded_time(std::atof(text), 1e6, sec);
      if (!duration) {
        std::fprintf(stderr,
                     "%s: --duration must be a time in [%.0f, %.0f] seconds, "
                     "got '%s'\n",
                     argv[0], -time_bound(1e6), time_bound(1e6), text);
        usage(argv[0]);
      }
      cfg.duration = *duration;
    } else if (arg == "--road") {
      cfg.deployment.road_length_m = std::atof(next());
    } else if (arg == "--density") {
      cfg.deployment.aps_per_km = std::atof(next());
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--adaptive") {
      cfg.adaptive = true;
    } else if (arg == "--sites-csv") {
      cfg.fixed_sites = mob::read_sites_csv_file(next());
    } else if (arg == "--csv") {
      csv_prefix = next();
    } else {
      usage(argv[0]);
    }
  }

  std::printf("driver=%s mode=%s ifaces=%zu speed=%.1f m/s duration=%.0fs "
              "road=%.0fm density=%.1f/km seed=%llu%s\n",
              trace::to_string(cfg.driver), cfg.spider.mode.describe().c_str(),
              cfg.spider.num_interfaces, cfg.speed_mps,
              to_seconds(cfg.duration), cfg.deployment.road_length_m,
              cfg.deployment.aps_per_km,
              static_cast<unsigned long long>(cfg.seed),
              cfg.adaptive ? " adaptive" : "");

  // run_bounded validates the config first, so a bad flag value (negative
  // density, zero interfaces, ...) is reported instead of crashing the run.
  trace::RunOutcome outcome = trace::ScenarioRunner().run_bounded(cfg);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s: %s: %s\n", argv[0],
                 trace::to_string(outcome.error->kind),
                 outcome.error->message.c_str());
    return outcome.error->kind == trace::RunErrorKind::kInvalidConfig ? 2 : 1;
  }
  const trace::ScenarioResult& result = *outcome.result;

  std::printf("\nthroughput    %.1f KB/s (%llu bytes)\n",
              result.avg_throughput_kBps,
              static_cast<unsigned long long>(result.total_bytes));
  std::printf("connectivity  %.1f%%\n", result.connectivity * 100.0);
  std::printf("joins         %zu attempted, %zu assoc, %zu dhcp, %zu e2e\n",
              result.joins_attempted, result.assoc_succeeded,
              result.dhcp_succeeded, result.e2e_succeeded);
  std::printf("switches      %llu",
              static_cast<unsigned long long>(result.switches));
  if (result.switch_latency_ms.count() > 0) {
    std::printf(" (%.2f +/- %.2f ms)", result.switch_latency_ms.mean(),
                result.switch_latency_ms.stddev());
  }
  std::printf("\n");
  if (!result.connection_durations.empty()) {
    std::printf("connections   median %.0f s, longest %.0f s\n",
                result.connection_durations.median(),
                result.connection_durations.quantile(1.0));
  }
  if (!result.disruption_durations.empty()) {
    std::printf("disruptions   median %.0f s, longest %.0f s\n",
                result.disruption_durations.median(),
                result.disruption_durations.quantile(1.0));
  }

  if (!csv_prefix.empty()) {
    const std::string joins = csv_prefix + ".joins.csv";
    if (trace::write_join_log_csv(joins, result.join_log)) {
      std::printf("wrote %s (%zu rows)\n", joins.c_str(),
                  result.join_log.size());
    } else {
      std::fprintf(stderr, "could not write %s\n", joins.c_str());
      return 1;
    }
  }
  return 0;
}
