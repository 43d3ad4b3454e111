// Fig. 8: average TCP throughput as a function of the *absolute* time
// spent on each channel under an equal three-channel schedule — for time x
// on the primary channel, 2x is spent away. Same indoor setup as Fig. 7.
//
// Expected shape: non-monotonic. Tiny dwells drown in the per-switch
// hardware-reset overhead; large dwells push the off-channel absence past
// TCP's RTO, collapsing the window. The sweet spot sits in between.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Fig. 8 — TCP throughput vs absolute per-channel dwell",
                "equal 3-channel schedule: x on the channel, 2x away");

  const int dwells[] = {15, 25, 50, 75, 100, 150, 200, 300, 400};
  std::vector<trace::ScenarioConfig> configs;
  for (int x : dwells) {
    for (std::uint64_t seed = 80; seed < 84; ++seed) {
      auto cfg =
          bench::static_rig(seed, sec(75), {{{15, 0}, 6, mbps(5)}});
      cfg.spider.num_interfaces = 1;
      cfg.spider.mode =
          core::OperationMode::equal_split({6, 1, 11}, 3 * msec(x));
      configs.push_back(cfg);
    }
  }
  const std::vector<double> kBps_runs = bench::run_windows(cli, configs);

  TextTable table({"dwell x (ms)", "away 2x (ms)", "avg throughput (KB/s)"});
  std::size_t next = 0;
  for (int x : dwells) {
    double sum = 0;
    for (int r = 0; r < 4; ++r) sum += kBps_runs[next++];
    table.add_row({std::to_string(x), std::to_string(2 * x),
                   TextTable::num(sum / 4.0, 1)});
  }
  table.print(std::cout);
  std::printf(
      "\nExpected: rises while switch overhead amortises, then falls once\n"
      "2x exceeds the RTO and every absence costs a TCP timeout.\n");
  return 0;
}
