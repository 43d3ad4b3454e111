// Table 1: channel-switching latency of the Spider driver vs the number of
// associated interfaces. The switch sequence is: PSM NullData to every
// associated AP on the old channel, hardware reset, wake frame to every
// associated AP on the new channel — so latency grows with the interface
// count from a ~4-5 ms reset-dominated floor, mirroring the paper's
// 4.9 -> 5.9 ms progression.

#include <cstdio>

#include "bench/bench_util.hpp"

using namespace spider;

namespace {

/// Runs without a download and drops the switch samples taken while the
/// interfaces were still joining: the driver's stats restart at 30 s.
class SteadySwitches : public trace::ScenarioApp {
 public:
  explicit SteadySwitches(sim::Simulator& sim) {
    bench::post_after(sim, sec(30), [this] { driver_->reset_switch_stats(); });
  }
  bool attach(trace::ClientRig& rig) override {
    driver_ = rig.spider.get();
    return false;
  }

 private:
  core::SpiderDriver* driver_ = nullptr;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Table 1 — channel switching latency vs #interfaces",
                "PSM frames + hardware reset + wake frames, 2-channel schedule");

  // n APs on each of the two scheduled channels, all within easy range of
  // the client at the origin; then a steady minute after the joins.
  std::vector<trace::ScenarioConfig> configs;
  for (int n = 0; n <= 4; ++n) {
    std::vector<mob::ApSite> sites;
    for (int i = 0; i < n; ++i) {
      const double x = 10 + 10 * i;
      sites.push_back({{x, -10}, 1, mbps(1.5)});
      sites.push_back({{x, 10}, 11, mbps(1.5)});
    }
    auto cfg = bench::static_rig(40 + n, sec(90), sites);
    // Without sites the road generates a deployment: keep it empty. One
    // unassociated interface switches exactly like none.
    cfg.deployment.aps_per_km = 0;
    cfg.deployment.clusters_per_km = 0;
    cfg.spider.num_interfaces = static_cast<std::size_t>(std::max(1, 2 * n));
    cfg.spider.mode =
        core::OperationMode::weighted({{1, 0.5}, {11, 0.5}}, msec(400));
    configs.push_back(cfg);
  }
  const auto results =
      cli.run(configs, [](std::size_t, trace::Testbed& bed) {
        return std::make_unique<SteadySwitches>(bed.sim);
      });

  TextTable table({"num interfaces", "mean (ms)", "std dev (ms)", "samples"});
  for (int n = 0; n <= 4; ++n) {
    const auto& stats = results[static_cast<std::size_t>(n)].switch_latency_ms;
    table.add_row({
        std::to_string(n),
        TextTable::num(stats.mean(), 3),
        TextTable::num(stats.stddev(), 3),
        std::to_string(stats.count()),
    });
  }
  table.print(std::cout);
  std::printf(
      "\n(Latency = PSM drain + %s hardware reset + wake-frame airtime;\n"
      "grows with interface count as a PSM frame is sent per associated AP.)\n",
      "4 ms");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
