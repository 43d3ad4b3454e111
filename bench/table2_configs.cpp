// Table 2: average throughput and connectivity for the four Spider
// configurations plus the stock driver, on the vehicular town runs:
//
//   (1) single channel, multi-AP        (2) single channel, single-AP
//   (3) multi-channel,  multi-AP        (4) multi-channel, single-AP
//   (2') channel 6, single-AP ("Cambridge", denser deployment)
//   stock driver
//
// Expected shape: (1) wins throughput by a wide margin (paper: 4x over
// (2), 400% over (3)); (3) wins connectivity; stock trails Spider.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

namespace {

trace::ScenarioConfig base_town() {
  auto cfg = bench::town_scenario(/*seed=*/200);
  cfg.spider = bench::tuned_spider();
  return cfg;
}

void add_row(TextTable& table, const char* name,
             const trace::ScenarioResult& r) {
  table.add_row({name, TextTable::num(r.avg_throughput_kBps, 1),
                 TextTable::percent(r.connectivity),
                 std::to_string(r.e2e_succeeded)});
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Table 2 — throughput & connectivity per configuration",
                "town drive, 30 min x3 seeds, multi-channel D=600ms equal");

  const auto ch1 = core::OperationMode::single(1);
  const auto three = core::OperationMode::equal_split({1, 6, 11}, msec(600));
  std::vector<const char*> labels;
  std::vector<trace::ScenarioConfig> configs;
  const auto add = [&](const char* label, trace::ScenarioConfig cfg) {
    labels.push_back(label);
    configs.push_back(std::move(cfg));
  };

  {  // (1) single channel, multi-AP
    auto cfg = base_town();
    cfg.spider.mode = ch1;
    add("(1) Channel 1, Multi-AP", cfg);
  }
  {  // (2) single channel, single-AP
    auto cfg = base_town();
    cfg.spider.mode = ch1;
    cfg.spider.num_interfaces = 1;
    add("(2) Channel 1, Single-AP", cfg);
  }
  {  // (3) multi-channel, multi-AP
    auto cfg = base_town();
    cfg.spider.mode = three;
    add("(3) Multi-channel, Multi-AP", cfg);
  }
  {  // (4) multi-channel, single-AP
    auto cfg = base_town();
    cfg.spider.mode = three;
    cfg.spider.num_interfaces = 1;
    add("(4) Multi-channel, Single-AP", cfg);
  }
  {  // (2') "Cambridge": denser urban deployment, channel 6
    auto cfg = base_town();
    cfg.seed = 300;
    cfg.deployment.aps_per_km = 16;
    cfg.spider.mode = core::OperationMode::single(6);
    cfg.spider.num_interfaces = 1;
    add("(2) Channel 6, Single-AP*", cfg);
  }
  {  // stock driver
    auto cfg = base_town();
    cfg.driver = trace::DriverKind::kStock;
    add("Stock driver", cfg);
  }
  const auto results = cli.run_averaged(configs, 3);

  TextTable table({"(Config) Parameters", "Throughput (KB/s)", "Connectivity",
                   "joins"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    add_row(table, labels[i], results[i]);
  }
  table.print(std::cout);
  std::printf(
      "\n(* denser deployment, as the paper's Cambridge runs. Paper: 121.5,\n"
      "28.0, 28.8, 77.9, 90.7, 35.9 KB/s — expect the same ordering, with\n"
      "single-channel multi-AP far ahead and multi-channel best-connected.)\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
