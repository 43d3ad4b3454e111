// Fig. 10: throughput micro-benchmark vs per-AP backhaul bandwidth, for a
// static client and two APs behind traffic-shaped backhauls:
//
//   - one card, stock driver (one AP)
//   - two cards, stock drivers (one AP each, different channels)
//   - Spider (100,0,0): both APs on channel 1, no switching
//   - Spider (50,0,50): APs on channels 1 and 11, 50 ms per channel
//   - Spider (100,0,100): same, 100 ms per channel
//
// The two-card rig is the sum of two one-card runs, one locked to each
// AP's channel: the cards sit on non-overlapping channels behind separate
// backhauls, so apart from the shared RNG nothing couples them.
//
// Expected shape: Spider on a single channel tracks the two-card rig at
// ~2x the one-card line; the switching configurations trade throughput
// for the second channel, with the faster schedule better at high rates.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Fig. 10 — throughput vs backhaul bandwidth per AP",
                "static client, two shaped APs, 60 s bulk downloads");

  const double backhauls[] = {0.5, 1.0, 2.0, 3.0, 4.0, 5.0};
  const auto rig = [](double mb, bool same_channel, std::uint64_t seed) {
    return bench::static_rig(seed, sec(75),
                             {{{15, 0}, 1, mbps(mb)},
                              {{-15, 0}, same_channel ? 1 : 11, mbps(mb)}});
  };
  const auto stock = [&rig](double mb, wire::Channel card,
                            std::uint64_t seed) {
    auto cfg = rig(mb, /*same_channel=*/false, seed);
    cfg.driver = trace::DriverKind::kStock;
    cfg.stock.lock_channel = card;
    return cfg;
  };
  const auto spider = [&rig](double mb, core::OperationMode mode,
                             bool same_channel, std::uint64_t seed) {
    auto cfg = rig(mb, same_channel, seed);
    cfg.spider.num_interfaces = 2;
    cfg.spider.mode = std::move(mode);
    return cfg;
  };

  // Per backhaul and seed, five runs: the ch 1 card, the ch 11 card, then
  // the three Spider schedules.
  constexpr std::size_t kRuns = 5;
  std::vector<trace::ScenarioConfig> configs;
  for (double mb : backhauls) {
    for (std::uint64_t seed = 100; seed < 103; ++seed) {
      configs.push_back(stock(mb, 1, seed));
      configs.push_back(stock(mb, 11, seed));
      configs.push_back(
          spider(mb, core::OperationMode::single(1), true, seed));
      configs.push_back(spider(
          mb, core::OperationMode::equal_split({1, 11}, msec(100)), false,
          seed));
      configs.push_back(spider(
          mb, core::OperationMode::equal_split({1, 11}, msec(200)), false,
          seed));
    }
  }
  const std::vector<double> kBps = bench::run_windows(cli, configs);

  TextTable table({"backhaul (Mbps)", "1 card stock", "2 cards stock",
                   "Spider (100,0,0)", "Spider (50,0,50)",
                   "Spider (100,0,100)"});
  std::size_t row = 0;
  for (double mb : backhauls) {
    const auto average = [&](std::size_t column) {
      double sum = 0;
      for (std::size_t s = 0; s < 3; ++s) {
        sum += kBps[row + s * kRuns + column];
      }
      return sum / 3.0;
    };
    table.add_row({
        TextTable::num(mb, 1),
        TextTable::num(average(0), 0),
        TextTable::num(average(0) + average(1), 0),
        TextTable::num(average(2), 0),
        TextTable::num(average(3), 0),
        TextTable::num(average(4), 0),
    });
    row += 3 * kRuns;
  }
  std::printf("All cells: average throughput in KB/s.\n\n");
  table.print(std::cout);
  return 0;
}
