// Extension bench: soft hand-off. §5 claims Spider is "the only practical
// soft hand-off solution using client side modifications" — holding several
// APs concurrently means a dying link is often already covered by the next
// one. This bench quantifies it: the fraction of hand-offs that are
// seamless (make-before-break) and the outage distribution of the rest,
// Spider multi-AP vs single-interface Spider vs the stock driver.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "trace/handoff.hpp"

using namespace spider;

namespace {

/// Tracks the client's links in place of the bulk download.
class HandoffApp : public trace::ScenarioApp {
 public:
  HandoffApp(sim::Simulator& sim, trace::HandoffTracker::Summary& out)
      : tracker_(sim), out_(out) {}
  bool attach(trace::ClientRig& rig) override {
    if (rig.stock) {
      tracker_.attach(*rig.stock);
    } else {
      tracker_.attach(*rig.manager);
    }
    return false;
  }
  void finish() override { out_ = tracker_.summarize(); }

 private:
  trace::HandoffTracker tracker_;
  trace::HandoffTracker::Summary& out_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Extension — soft hand-off analysis",
                "make-before-break fraction and hard-handoff outage, x3 seeds");

  struct Variant {
    const char* name;
    trace::DriverKind driver;
    std::size_t interfaces;  ///< Spider's; the stock driver has one
  };
  const Variant variants[] = {
      {"Spider, 7 interfaces (ch1)", trace::DriverKind::kSpider, 7},
      {"Spider, 1 interface (ch1)", trace::DriverKind::kSpider, 1},
      {"Stock driver (all channels)", trace::DriverKind::kStock, 1},
  };

  std::vector<trace::ScenarioConfig> configs;
  for (const auto& v : variants) {
    for (std::uint64_t seed = 985; seed < 988; ++seed) {
      auto cfg = bench::town_drive_15min(seed, core::OperationMode::single(1));
      cfg.deployment.aps_per_km = 12;
      cfg.driver = v.driver;
      cfg.spider.num_interfaces = v.interfaces;
      configs.push_back(cfg);
    }
  }
  std::vector<trace::HandoffTracker::Summary> summaries(configs.size());
  const auto results =
      cli.run(configs, [&summaries](std::size_t run, trace::Testbed& bed) {
        return std::make_unique<HandoffApp>(bed.sim, summaries[run]);
      });

  TextTable table({"driver", "hand-offs", "soft (seamless)", "soft fraction",
                   "hard gap median (s)", "hard gap p90 (s)"});
  std::size_t next = 0;
  for (const auto& v : variants) {
    std::size_t handoffs = 0, soft = 0;
    Cdf gaps;
    for (int r = 0; r < 3; ++r) {
      const auto& s = summaries[next++];
      handoffs += s.handoffs;
      soft += s.soft;
      for (double g : s.gap_seconds.samples()) gaps.add(g);
    }
    table.add_row({
        v.name,
        std::to_string(handoffs),
        std::to_string(soft),
        TextTable::percent(handoffs ? static_cast<double>(soft) / handoffs : 0),
        TextTable::num(gaps.empty() ? 0.0 : gaps.median(), 1),
        TextTable::num(gaps.empty() ? 0.0 : gaps.quantile(0.9), 1),
    });
  }
  table.print(std::cout);
  std::printf(
      "\nExpected: only the multi-interface configuration achieves seamless\n"
      "(make-before-break) hand-offs; single-interface stacks always pay an\n"
      "outage to re-scan and re-join.\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
