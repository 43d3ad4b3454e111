// Extension bench: fleet scaling. The paper's testbed ran five vehicles
// concurrently; this bench measures how per-vehicle Spider performance
// degrades as more cars share the same open APs (DHCP pools, association
// tables, and — dominantly — the residential backhauls are shared).

#include <cstdio>
#include <deque>
#include <vector>

#include "bench/bench_util.hpp"

using namespace spider;

namespace {

struct FleetResult {
  double per_vehicle_kBps = 0.0;
  double aggregate_kBps = 0.0;
  double mean_connectivity = 0.0;
};

/// Gives every car its own download and recorder in place of the shared
/// one, so throughput and connectivity come out per vehicle.
class PerCarDownloads : public trace::ScenarioApp {
 public:
  PerCarDownloads(trace::Testbed& bed, FleetResult& out)
      : bed_(bed), out_(out) {}
  bool attach(trace::ClientRig& rig) override {
    trace::ThroughputRecorder& recorder = recorders_.emplace_back();
    harnesses_.emplace_back(bed_.sim, bed_.server_ip(), recorder)
        .attach(*rig.manager);
    return false;
  }
  void finish() override {
    for (trace::ThroughputRecorder& recorder : recorders_) {
      recorder.finalize(bed_.sim.now());
      out_.per_vehicle_kBps += recorder.average_throughput_kBps();
      out_.mean_connectivity += recorder.connectivity_fraction();
    }
    const auto vehicles = static_cast<int>(recorders_.size());
    out_.aggregate_kBps = out_.per_vehicle_kBps;
    out_.per_vehicle_kBps /= vehicles;
    out_.mean_connectivity /= vehicles;
  }

 private:
  trace::Testbed& bed_;
  FleetResult& out_;
  std::deque<trace::ThroughputRecorder> recorders_;  // stable addresses
  std::deque<trace::DownloadHarness> harnesses_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Extension — fleet scaling",
                "N Spider vehicles sharing one town's APs, 15-minute drives");

  // The runner staggers the cars evenly along the road.
  const int sizes[] = {1, 2, 3, 5};
  const int seeds = 2;
  std::vector<trace::ScenarioConfig> configs;
  for (int n : sizes) {
    for (std::uint64_t seed = 980; seed < 980 + seeds; ++seed) {
      auto cfg = bench::town_drive_15min(seed, core::OperationMode::single(1));
      cfg.clients = n;
      configs.push_back(cfg);
    }
  }
  std::vector<FleetResult> fleets(configs.size());
  const auto results =
      cli.run(configs, [&fleets](std::size_t run, trace::Testbed& bed) {
        return std::make_unique<PerCarDownloads>(bed, fleets[run]);
      });

  TextTable table({"vehicles", "per-vehicle (KB/s)", "aggregate (KB/s)",
                   "mean connectivity"});
  std::size_t next = 0;
  for (int n : sizes) {
    FleetResult sum;
    for (int r = 0; r < seeds; ++r) {
      const auto& one = fleets[next++];
      sum.per_vehicle_kBps += one.per_vehicle_kBps / seeds;
      sum.aggregate_kBps += one.aggregate_kBps / seeds;
      sum.mean_connectivity += one.mean_connectivity / seeds;
    }
    table.add_row({std::to_string(n), TextTable::num(sum.per_vehicle_kBps, 1),
                   TextTable::num(sum.aggregate_kBps, 1),
                   TextTable::percent(sum.mean_connectivity)});
  }
  table.print(std::cout);
  std::printf(
      "\nPer-vehicle throughput declines as the fleet shares backhauls and\n"
      "DHCP pools, while aggregate town goodput keeps growing sub-linearly\n"
      "— the contention regime a citywide deployment would live in.\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
