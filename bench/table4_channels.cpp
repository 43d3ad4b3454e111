// Table 4: average throughput and connectivity for different static
// multi-channel schedules. Expected shape: a single channel maximises
// throughput by a large factor; the three-channel equal schedule maximises
// connectivity; two channels sit between on connectivity but gain no
// throughput over three.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Table 4 — static schedules: channels vs throughput",
                "town drive x3 seeds, 200 ms per scheduled channel");

  struct Variant {
    const char* label;
    core::OperationMode mode;
  };
  const Variant variants[] = {
      {"3-channel (equal schedule)",
       core::OperationMode::equal_split({1, 6, 11}, msec(600))},
      {"2-channel (equal schedule)",
       core::OperationMode::equal_split({1, 6}, msec(400))},
      {"Single-channel",
       core::OperationMode::single(1)},
  };

  std::vector<trace::ScenarioConfig> configs;
  for (const auto& v : variants) {
    auto cfg = bench::town_scenario(/*seed=*/200);
    cfg.spider = bench::tuned_spider();
    cfg.spider.mode = v.mode;
    configs.push_back(cfg);
  }
  const auto results = cli.run_averaged(configs, 3);

  TextTable table({"parameters", "throughput (KB/s)", "connectivity",
                   "switches"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& r = results[i];
    table.add_row({variants[i].label, TextTable::num(r.avg_throughput_kBps, 1),
                   TextTable::percent(r.connectivity),
                   std::to_string(r.switches)});
  }
  table.print(std::cout);
  std::printf(
      "\n(Paper: 28.8 KB/s / 44.7%%, 25.1 KB/s / 35.8%%, 121.5 KB/s / 35.5%%.)\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
