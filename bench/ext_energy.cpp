// Extension bench: energy efficiency of the scheduling policies. The
// paper's introduction motivates Wi-Fi offloading with "higher per-bit
// energy efficiency"; this bench quantifies the per-MB energy of each
// Spider configuration — the cost of channel switching (resets burn power
// and suppress goodput) shows up directly in joules per megabyte.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "phy/energy.hpp"

using namespace spider;

namespace {

struct RadioEnergy {
  double joules = 0.0;
  double switch_s = 0.0;
};

/// Keeps the bulk download and reads the radio's energy when the drive ends.
class EnergyReadout : public trace::ScenarioApp {
 public:
  EnergyReadout(sim::Simulator& sim, RadioEnergy& out) : sim_(sim), out_(out) {}
  bool attach(trace::ClientRig& rig) override {
    driver_ = rig.spider.get();
    return true;
  }
  void finish() override {
    out_.joules = phy::EnergyModel{}.joules(driver_->radio(), sim_.now());
    out_.switch_s = to_seconds(driver_->radio().switch_airtime());
  }

 private:
  sim::Simulator& sim_;
  RadioEnergy& out_;
  core::SpiderDriver* driver_ = nullptr;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Extension — energy per megabyte by schedule",
                "Atheros-era power model; 15-minute town drives x3 seeds");

  struct Variant {
    const char* name;
    core::OperationMode mode;
  };
  const Variant variants[] = {
      {"single channel (ch1)", core::OperationMode::single(1)},
      {"2 channels equal", core::OperationMode::equal_split({1, 6}, msec(400))},
      {"3 channels equal",
       core::OperationMode::equal_split({1, 6, 11}, msec(600))},
      {"3 channels, D=150ms",
       core::OperationMode::equal_split({1, 6, 11}, msec(150))},
  };

  std::vector<trace::ScenarioConfig> configs;
  for (const auto& v : variants) {
    for (std::uint64_t seed = 970; seed < 973; ++seed) {
      configs.push_back(bench::town_drive_15min(seed, v.mode));
    }
  }
  std::vector<RadioEnergy> energy(configs.size());
  const auto results =
      cli.run(configs, [&energy](std::size_t run, trace::Testbed& bed) {
        return std::make_unique<EnergyReadout>(bed.sim, energy[run]);
      });

  TextTable table({"schedule", "energy (J)", "data (MB)", "J per MB",
                   "reset time (s)"});
  std::size_t next = 0;
  for (const auto& v : variants) {
    double joules = 0.0, mb = 0.0, switch_s = 0.0;
    for (int r = 0; r < 3; ++r, ++next) {
      joules += energy[next].joules;
      mb += static_cast<double>(results[next].total_bytes) / 1e6;
      switch_s += energy[next].switch_s;
    }
    table.add_row({
        v.name,
        TextTable::num(joules / 3.0, 0),
        TextTable::num(mb / 3.0, 1),
        TextTable::num(mb > 0 ? joules / mb : 0.0, 1),
        TextTable::num(switch_s / 3.0, 1),
    });
  }
  table.print(std::cout);
  std::printf(
      "\nThe card never sleeps (Spider's fake-PSM keeps it awake), so the\n"
      "baseline draw is fixed; efficiency is therefore goodput-dominated,\n"
      "and the single-channel schedule wins J/MB by a wide margin. Frantic\n"
      "schedules additionally burn reset time for nothing.\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
