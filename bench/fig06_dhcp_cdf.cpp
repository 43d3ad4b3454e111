// Fig. 6: rate of successful DHCP acquisitions on the primary channel as a
// function of time, for varying channel fractions and DHCP retransmit
// timers. Four curves: f6 in {25%, 50%, 100%} with 100 ms timers, plus
// f6 = 100% with the stock defaults (1 s retransmit, 3 s attempt, i.e. the
// "100% default" curve whose median the paper measures at ~2.5 s).
//
// Curves are *unconditional*: F(x) = leases obtained within x / attempts
// that reached the DHCP phase, so each plateaus at the success rate.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

namespace {

struct Config {
  const char* label;
  double f6;
  net::DhcpClientConfig dhcp;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Fig. 6 — DHCP lease time CDF vs schedule and timeout",
                "D=400ms, link-layer timeout=100ms, vehicular town runs");

  const Config variants[] = {
      {"25% - 100ms", 0.25, {.retx_timeout = msec(100), .max_sends = 8}},
      {"50% - 100ms", 0.50, {.retx_timeout = msec(100), .max_sends = 8}},
      {"100% - 100ms", 1.00, {.retx_timeout = msec(100), .max_sends = 8}},
      {"100% - default", 1.00, {.retx_timeout = sec(1), .max_sends = 3}},
  };

  const double grid[] = {0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 7, 10, 15};

  std::vector<trace::ScenarioConfig> configs;
  for (const auto& c : variants) {
    trace::ScenarioConfig cfg = bench::town_scenario(/*seed=*/60);
    cfg.duration = sec(1200);
    cfg.spider = bench::tuned_spider();
    cfg.spider.dhcp = c.dhcp;
    cfg.spider.use_lease_cache = false;  // isolate raw acquisition latency
    if (c.f6 >= 1.0) {
      cfg.spider.mode = core::OperationMode::single(6);
    } else {
      cfg.spider.mode = core::OperationMode::weighted(
          {{6, c.f6}, {1, (1.0 - c.f6) / 2}, {11, (1.0 - c.f6) / 2}},
          msec(400));
    }
    configs.push_back(cfg);
  }
  const auto results = cli.run_averaged(configs, 3);

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto& c = variants[i];
    const auto& result = results[i];

    std::size_t reached_dhcp = 0;
    Cdf lease_s;
    for (const auto& rec : result.join_log) {
      if (rec.channel != 6 || !rec.assoc_delay) continue;
      ++reached_dhcp;
      if (rec.dhcp_delay) {
        lease_s.add(to_seconds(*rec.dhcp_delay - *rec.assoc_delay));
      }
    }

    std::printf("\n%s — %zu DHCP attempts, %zu leases (success %.0f%%)\n",
                c.label, reached_dhcp, lease_s.size(),
                reached_dhcp
                    ? 100.0 * lease_s.size() / static_cast<double>(reached_dhcp)
                    : 0.0);
    TextTable table({"time to lease (s)", "fraction of attempts"});
    for (double x : grid) {
      const double f =
          reached_dhcp == 0
              ? 0.0
              : lease_s.fraction_at_or_below(x) *
                    (static_cast<double>(lease_s.size()) / reached_dhcp);
      table.add_row({TextTable::num(x, 2), TextTable::num(f, 3)});
    }
    table.print(std::cout);
    if (!lease_s.empty()) {
      std::printf("  median lease time (successes): %.2f s\n", lease_s.median());
    }
  }
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
