// Extension bench (beyond the paper's figures, answering its §4.3/§4.7
// question directly): can Spider's connectivity profile carry interactive
// real-time traffic? Runs a VoIP-like 64 kbps CBR stream through every
// Spider link during town drives and reports what the receiver heard.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "trace/voip.hpp"
#include "transport/cbr.hpp"

using namespace spider;

namespace {

/// Serves CBR call legs next to the download server and carries one over
/// every link in place of the bulk download.
class VoipApp : public trace::ScenarioApp {
 public:
  VoipApp(trace::Testbed& bed, trace::VoipHarness::Summary& out)
      : bed_(bed), cbr_(bed.sim, bed.server), voip_(bed.sim, bed.server_ip()),
        out_(out) {
    bed.server.set_handler([this](const wire::Packet& p) {
      if (!cbr_.on_packet(p)) bed_.downloads.on_packet(p);
    });
  }
  bool attach(trace::ClientRig& rig) override {
    voip_.attach(*rig.manager);
    return false;
  }
  void finish() override { out_ = voip_.summarize(bed_.sim.now()); }

 private:
  trace::Testbed& bed_;
  tcp::CbrServer cbr_;
  trace::VoipHarness voip_;
  trace::VoipHarness::Summary& out_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto cli = bench::parse_sweep_cli(argc, argv);
  bench::banner("Extension — VoIP suitability over Spider",
                "64 kbps CBR legs over every link; 15-minute town drives");

  struct Variant {
    const char* name;
    core::OperationMode mode;
  };
  const Variant variants[] = {
      {"single channel (ch1)", core::OperationMode::single(1)},
      {"3 channels equal", core::OperationMode::equal_split({1, 6, 11}, msec(600))},
  };

  std::vector<trace::ScenarioConfig> configs;
  for (const auto& v : variants) {
    for (std::uint64_t seed = 900; seed < 903; ++seed) {
      configs.push_back(bench::town_drive_15min(seed, v.mode));
    }
  }
  std::vector<trace::VoipHarness::Summary> summaries(configs.size());
  const auto results =
      cli.run(configs, [&summaries](std::size_t run, trace::Testbed& bed) {
        return std::make_unique<VoipApp>(bed, summaries[run]);
      });

  TextTable table({"mode", "voice availability", "delivery in-call",
                   "mean delay (ms)", "jitter (ms)", "worst gap (s)",
                   "call legs"});
  std::size_t next = 0;
  for (const auto& v : variants) {
    OnlineStats avail, deliv, delay, jitter;
    double worst_gap = 0;
    std::size_t legs = 0;
    for (int r = 0; r < 3; ++r) {
      const auto& s = summaries[next++];
      avail.add(s.voice_availability);
      deliv.add(s.mean_delivery_ratio);
      delay.add(s.mean_delay_s);
      jitter.add(s.mean_jitter_s);
      worst_gap = std::max(worst_gap, to_seconds(s.longest_gap));
      legs += s.calls;
    }
    table.add_row({v.name, TextTable::percent(avail.mean()),
                   TextTable::percent(deliv.mean()),
                   TextTable::num(delay.mean() * 1e3, 1),
                   TextTable::num(jitter.mean() * 1e3, 2),
                   TextTable::num(worst_gap, 0), std::to_string(legs)});
  }
  table.print(std::cout);
  std::printf(
      "\nReading: within coverage a call leg is clean (high delivery, low\n"
      "jitter); availability tracks coverage, so the multi-channel mode is\n"
      "the VoIP-friendly configuration — §4.3's conclusion, measured.\n");
  bench::maybe_write_perf_csv(cli, results);
  return 0;
}
