// Fig. 7: average TCP throughput as a function of the percentage of time
// the driver spends on the primary channel, for a fixed D = 400 ms
// schedule (two typical RTTs). Indoor/static setup: one AP on the primary
// channel, plentiful backhaul, bulk download.
//
// Expected shape: throughput grows monotonically with the primary-channel
// share — absences are short enough that TCP rides the AP's PSM buffer
// rather than timing out.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Fig. 7 — TCP throughput vs % time on primary channel",
                "static client, D=400ms, 5 Mbps backhaul, bulk download");

  // Per share: three seeds, each a clean minute after the warm-up.
  std::vector<trace::ScenarioConfig> configs;
  for (int pct = 10; pct <= 100; pct += 10) {
    const double f_primary = pct / 100.0;
    for (std::uint64_t seed = 70; seed < 73; ++seed) {
      auto cfg =
          bench::static_rig(seed, sec(75), {{{15, 0}, 6, mbps(5)}});
      cfg.spider.num_interfaces = 1;
      if (f_primary >= 1.0) {
        cfg.spider.mode = core::OperationMode::single(6);
      } else {
        cfg.spider.mode = core::OperationMode::weighted(
            {{6, f_primary},
             {1, (1.0 - f_primary) / 2},
             {11, (1.0 - f_primary) / 2}},
            msec(400));
      }
      configs.push_back(cfg);
    }
  }
  const std::vector<double> kBps_runs = bench::run_windows(cli, configs);

  TextTable table({"% on primary", "avg throughput (KB/s)", "(kbps)"});
  std::size_t next = 0;
  for (int pct = 10; pct <= 100; pct += 10) {
    double sum = 0;
    for (int r = 0; r < 3; ++r) sum += kBps_runs[next++];
    const double kBps = sum / 3.0;
    table.add_row({std::to_string(pct), TextTable::num(kBps, 1),
                   TextTable::num(kBps * 8, 0)});
  }
  table.print(std::cout);
  std::printf(
      "\nExpected: roughly proportional growth — with the whole schedule\n"
      "under two RTTs, absences ride the AP's PSM buffer without RTOs.\n");
  return 0;
}
