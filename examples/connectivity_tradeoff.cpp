// The throughput/connectivity dial: §4.3's trade-off as a runnable
// experiment. Sweeps Spider's operation mode from "all-in on one channel"
// to "equal thirds across 1/6/11" and prints both metrics, so you can see
// where your application's preference sits.
//
//   ./build/examples/connectivity_tradeoff

#include <cstdio>
#include <iostream>

#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "util/table.hpp"

using namespace spider;

int main() {
  std::printf("Spider operation-mode sweep: throughput vs connectivity\n\n");

  struct Mode {
    const char* name;
    core::OperationMode mode;
  };
  const Mode modes[] = {
      {"100% channel 6", core::OperationMode::single(6)},
      {"80/10/10 split",
       core::OperationMode::weighted({{6, 0.8}, {1, 0.1}, {11, 0.1}}, msec(600))},
      {"60/20/20 split",
       core::OperationMode::weighted({{6, 0.6}, {1, 0.2}, {11, 0.2}}, msec(600))},
      {"equal thirds",
       core::OperationMode::equal_split({1, 6, 11}, msec(600))},
  };

  TextTable table({"mode", "throughput (KB/s)", "connectivity",
                   "median connection (s)", "longest outage (s)"});
  for (const auto& m : modes) {
    trace::ScenarioConfig cfg;
    cfg.seed = 17;
    cfg.duration = sec(900);
    cfg.speed_mps = 10;
    cfg.deployment.road_length_m = 2500;
    cfg.deployment.aps_per_km = 10;
    cfg.spider.mode = m.mode;
    auto result = trace::ScenarioRunner().run_one(cfg);
    table.add_row({
        m.name,
        TextTable::num(result.avg_throughput_kBps, 1),
        TextTable::percent(result.connectivity),
        TextTable::num(result.connection_durations.empty()
                           ? 0.0
                           : result.connection_durations.median(),
                       1),
        TextTable::num(result.disruption_durations.empty()
                           ? 0.0
                           : result.disruption_durations.quantile(1.0),
                       1),
    });
  }
  table.print(std::cout);
  std::printf(
      "\nBulk transfer wants the top row; interactive apps that mostly need\n"
      "*some* connectivity may prefer the bottom — Spider exposes the dial\n"
      "as a user-space operation mode (§3.2.2).\n");
  return 0;
}
