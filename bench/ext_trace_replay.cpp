// Extension: trace-driven realism. A recorded channel-occupancy file (the
// checked-in sample by default, or any CSV/JSONL monitor dump via --trace)
// is ingested, compiled into a deterministic impairment schedule, and
// replayed against Spider, FatVAP and the stock single-association stack —
// each driver also runs the same scenario clean, so the table isolates
// what the recorded interference costs each stack.
//
// Determinism contract, checked in-process before the sweep: ingest ->
// serialize -> re-ingest must reproduce the identical timeline and compile
// to the identical fault schedule (the "same trace file + seed =
// byte-identical run" guarantee ext_trace_replay pins for CI). Everything
// on stdout is seeded and byte-identical across --jobs settings.
//
//   --trace PATH            occupancy recording to replay (CSV or JSONL)
//   --mapping NAME          interference | burst (occupancy -> loss model)
//   --smoke                 short deployment for the trace-replay-smoke test
//   --resilience-csv PATH   per-run resilience digest (deterministic CSV)
//   --write-sample PATH     re-emit the ingested trace in canonical CSV form

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>

#include "bench/bench_util.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"

using namespace spider;

namespace {

std::string ttr_cell(const Cdf& ttr) {
  if (ttr.empty()) return "-";
  return TextTable::num(ttr.quantile(0.5), 1) + "/" +
         TextTable::num(ttr.quantile(0.9), 1);
}

/// The re-ingest pin: serialize the parsed timeline to canonical CSV,
/// parse that, and require both the timeline and its compiled schedule to
/// come back identical. Exits non-zero on divergence — this is the bench's
/// executable determinism guarantee, same spirit as ext_citywide's digest
/// pin.
void check_reingest(const tracein::OccupancyTimeline& timeline,
                    const tracein::ReplayOptions& replay) {
  std::istringstream round_trip(tracein::occupancy_to_csv(timeline));
  const tracein::OccupancyTimeline again = tracein::read_occupancy(round_trip);
  if (!(again == timeline)) {
    std::fprintf(stderr,
                 "ext_trace_replay: re-ingest MISMATCH (timeline differs "
                 "after serialize -> parse)\n");
    std::exit(1);
  }
  const fault::FaultSchedule a = tracein::compile_schedule(timeline, replay);
  const fault::FaultSchedule b = tracein::compile_schedule(again, replay);
  bool schedules_equal = a.size() == b.size();
  for (std::size_t i = 0; schedules_equal && i < a.size(); ++i) {
    const fault::FaultSpec& x = a.specs()[i];
    const fault::FaultSpec& y = b.specs()[i];
    schedules_equal = x.kind == y.kind && x.at == y.at &&
                      x.duration == y.duration && x.target == y.target &&
                      x.intensity == y.intensity &&
                      x.burst_mean == y.burst_mean && x.gap_mean == y.gap_mean;
  }
  if (!schedules_equal) {
    std::fprintf(stderr,
                 "ext_trace_replay: re-ingest MISMATCH (compiled schedules "
                 "differ)\n");
    std::exit(1);
  }
  std::printf("re-ingest determinism: ok (%zu samples -> %zu faults)\n\n",
              timeline.size(), a.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path = "data/traces/sample_occupancy.csv";
  std::string resilience_csv;
  std::string write_sample;
  tracein::ReplayOptions replay;
  bool smoke = false;
  const auto cli = bench::parse_sweep_cli(
      argc, argv,
      {{"--trace", "PATH", "occupancy recording to replay (CSV or JSONL)",
        [&](const std::string& v) { trace_path = v; }},
       {"--mapping", "NAME",
        "occupancy -> loss mapping: interference | burst",
        [&](const std::string& v) {
          if (!tracein::replay_mapping_from_string(v, &replay.mapping)) {
            std::fprintf(stderr,
                         "--mapping must be interference|burst, got '%s'\n",
                         v.c_str());
            std::exit(2);
          }
        }},
       {"--smoke", "", "short deployment for the CI smoke test",
        [&](const std::string&) { smoke = true; }},
       {"--resilience-csv", "PATH",
        "write the per-run resilience digest (deterministic CSV)",
        [&](const std::string& v) { resilience_csv = v; }},
       {"--write-sample", "PATH",
        "re-emit the ingested trace in canonical CSV form",
        [&](const std::string& v) { write_sample = v; }}});
  bench::banner("Extension — trace-driven channel-occupancy replay",
                "recorded occupancy -> impairment schedule; fixed seed");

  // Ingest once up front so a bad path or malformed row fails with its
  // line number before any simulation work (the scenario configs below
  // re-ingest through ImpairmentSource; validate() covers them too).
  std::string error;
  const std::optional<tracein::OccupancyTimeline> timeline =
      tracein::ingest_file(trace_path, &error);
  if (!timeline) {
    std::fprintf(stderr, "ext_trace_replay: %s: %s\n", trace_path.c_str(),
                 error.c_str());
    return 2;
  }
  std::printf("trace: %zu samples, %zu channels, %.0f s span (%s)\n",
              timeline->size(), timeline->channels().size(),
              to_seconds(timeline->span()), trace_path.c_str());
  check_reingest(*timeline, replay);
  if (!write_sample.empty() &&
      !tracein::write_occupancy_csv(write_sample, *timeline)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 write_sample.c_str());
  }

  struct DriverRow {
    const char* label;
    trace::DriverKind kind;
  };
  const DriverRow drivers[] = {
      {"spider", trace::DriverKind::kSpider},
      {"fatvap", trace::DriverKind::kFatVap},
      {"stock", trace::DriverKind::kStock},
  };

  // The run must outlive the recording so every compiled window actually
  // plays; the dense walking-pace strip keeps coverage continuous, so the
  // table's outages are interference-induced, not deployment gaps.
  const Time duration =
      std::max(timeline->span() + sec(30), smoke ? sec(60) : sec(240));
  std::vector<trace::ScenarioConfig> configs;
  std::vector<std::string> row_labels;
  for (const auto& driver : drivers) {
    for (const bool replayed : {false, true}) {
      auto cfg = bench::town_scenario(/*seed=*/7117);
      cfg.duration = duration;
      cfg.speed_mps = 1.5;
      cfg.deployment.road_length_m = smoke ? 200 : 300;
      cfg.deployment.aps_per_km = 20;
      cfg.driver = driver.kind;
      cfg.spider = bench::tuned_spider();
      cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
      if (replayed) {
        cfg.impairments =
            trace::ImpairmentSource::trace_file(trace_path, replay);
      }
      configs.push_back(cfg);
      row_labels.push_back(std::string(driver.label) +
                           (replayed ? " +trace" : " clean"));
    }
  }
  const auto results = cli.run(configs);

  TextTable table({"driver", "kB/s", "conn %", "faults", "outages",
                   "recovered", "ttr p50/p90 s"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    table.add_row({row_labels[i], TextTable::num(result.avg_throughput_kBps, 1),
                   TextTable::percent(result.connectivity),
                   std::to_string(result.faults_injected),
                   std::to_string(result.outages),
                   std::to_string(result.recoveries),
                   ttr_cell(result.recovery_times)});
  }
  table.print(std::cout);
  bench::maybe_write_perf_csv(cli, results);
  if (!resilience_csv.empty() &&
      !trace::write_resilience_summary_csv(resilience_csv, results)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 resilience_csv.c_str());
  }
  std::printf(
      "\nEach recorded occupancy window becomes one channel impairment\n"
      "(loss = occupancy under the interference mapping; Gilbert-Elliott\n"
      "dwells sized to the busy fraction under burst). Spider rides out\n"
      "the saturation burst on channel 6 by leaning on its concurrent\n"
      "links on 1/11; single-association stacks camped on the impaired\n"
      "channel take the full outage until their prober gives up.\n");
}
