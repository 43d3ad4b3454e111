// Fig. 5: CDF of link-layer association time on the primary channel
// (channel 6) as a function of the fraction of the 400 ms schedule the
// driver spends there — f6 in {25%, 50%, 75%, 100%}, the remainder split
// between channels 1 and 11. Vehicular runs, 100 ms link-layer timeouts.
//
// Expected shape: 100% completes fastest; lower fractions shift the CDF
// right but association remains fairly robust to switching (the paper's
// observation that the four-way handshake tolerates fractions down to 25%).

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Fig. 5 — association time CDF vs f6",
                "D=400ms, link-layer timeout=100ms, vehicular town runs");

  const double fractions[] = {0.25, 0.50, 0.75, 1.00};
  std::vector<trace::ScenarioConfig> configs;
  for (double f6 : fractions) {
    trace::ScenarioConfig cfg = bench::town_scenario(/*seed=*/50);
    cfg.duration = sec(1200);
    cfg.spider = bench::tuned_spider();
    if (f6 >= 1.0) {
      cfg.spider.mode = core::OperationMode::single(6);
    } else {
      cfg.spider.mode = core::OperationMode::weighted(
          {{6, f6}, {1, (1.0 - f6) / 2}, {11, (1.0 - f6) / 2}}, msec(400));
    }
    configs.push_back(cfg);
  }
  const auto results = cli.run_averaged(configs, 3);

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double f6 = fractions[i];
    const auto& result = results[i];

    Cdf assoc_ms;
    std::size_t attempts_on_6 = 0;
    for (const auto& rec : result.join_log) {
      if (rec.channel != 6) continue;
      ++attempts_on_6;
      if (rec.assoc_delay) assoc_ms.add(to_millis(*rec.assoc_delay));
    }

    char label[64];
    std::snprintf(label, sizeof(label), "f6=%.0f%%", f6 * 100);
    std::printf("\n%s — %zu attempts on ch6, %zu associated (%.0f%%)\n", label,
                attempts_on_6, assoc_ms.size(),
                attempts_on_6
                    ? 100.0 * assoc_ms.size() / static_cast<double>(attempts_on_6)
                    : 0.0);
    bench::print_cdf(label, assoc_ms,
                     {50, 100, 200, 300, 400, 600, 800, 1000},
                     "time to associate (ms)");
  }
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
