// Table 3: DHCP failure probability for different timeout configurations.
// "dhcp: X ms" means the client's retransmit timer; the attempt window is
// max_sends * X, so shrinking the timer trades failures for faster
// successes. Expected shape, as in the paper: reduced timers fail roughly
// twice as often as the defaults, and splitting the schedule across three
// channels adds its own failures even at default timers.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

namespace {

struct Row {
  const char* label;
  core::OperationMode mode;
  net::DhcpClientConfig dhcp;
  mac::MlmeConfig mlme;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Table 3 — DHCP failure probability per timeout config",
                "vehicular town runs, 7 interfaces, x5 seeds");

  const auto ch1 = core::OperationMode::single(1);
  const auto three = core::OperationMode::equal_split({1, 6, 11}, msec(600));
  const mac::MlmeConfig ll100{.ll_timeout = msec(100), .max_retries = 5};
  const mac::MlmeConfig ll_default{.ll_timeout = sec(1), .max_retries = 5};

  const Row rows[] = {
      {"chan 1, ll 100ms, dhcp 600ms", ch1,
       {.retx_timeout = msec(600), .max_sends = 4}, ll100},
      {"chan 1, ll 100ms, dhcp 400ms", ch1,
       {.retx_timeout = msec(400), .max_sends = 4}, ll100},
      {"chan 1, ll 100ms, dhcp 200ms", ch1,
       {.retx_timeout = msec(200), .max_sends = 4}, ll100},
      {"3 chans, ll 100ms, dhcp 200ms", three,
       {.retx_timeout = msec(200), .max_sends = 4}, ll100},
      {"chan 1, default timers", ch1,
       {.retx_timeout = sec(1), .max_sends = 3}, ll_default},
      {"3 chans, default timers", three,
       {.retx_timeout = sec(1), .max_sends = 3}, ll_default},
  };

  // Rows × seeds, flattened row-major: the per-seed failure fractions feed
  // a mean and a spread, so the seeds run individually, not pooled.
  constexpr std::uint64_t kFirstSeed = 400;
  constexpr std::size_t kSeeds = 5;
  std::vector<trace::ScenarioConfig> configs;
  for (const auto& row : rows) {
    for (std::size_t k = 0; k < kSeeds; ++k) {
      auto cfg = bench::town_scenario(kFirstSeed + k);
      cfg.duration = sec(1200);
      cfg.spider = bench::tuned_spider();
      cfg.spider.mode = row.mode;
      cfg.spider.dhcp = row.dhcp;
      cfg.spider.mlme = row.mlme;
      cfg.spider.use_lease_cache = false;  // isolate raw acquisition
      configs.push_back(cfg);
    }
  }
  const auto results = cli.run(configs);

  TextTable table({"parameters", "failed dhcp", "+/-", "attempts"});
  std::size_t next = 0;
  for (const auto& row : rows) {
    OnlineStats per_seed;
    std::size_t attempts = 0;
    for (std::size_t k = 0; k < kSeeds; ++k) {
      const auto& result = results[next++];
      per_seed.add(result.dhcp_failure_fraction());
      attempts += result.assoc_succeeded;
    }
    table.add_row({row.label, TextTable::percent(per_seed.mean()),
                   TextTable::percent(per_seed.stddev()),
                   std::to_string(attempts)});
  }
  table.print(std::cout);
  std::printf(
      "\n(Paper: 23.0/27.1/28.2%% for 600/400/200 ms; 23.6%% for 3-channel\n"
      "200 ms; 13.5%% / 21.8%% for single/multi-channel default timers.)\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
