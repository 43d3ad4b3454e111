// Extension bench: city-scale medium stress. Not a paper reproduction —
// the paper's testbed is one road (§4.1) — but the scaling story its
// deployment implies: a 2x2 km downtown street mesh carrying hundreds to
// thousands of open APs (channel mix 1/6/11 at 28/33/34%) and fleets of
// Spider clients touring the blocks.
//
// Each (APs x clients) cell runs twice: once with the medium's spatial
// grid index and once with the brute-force per-channel scan. The two must
// agree byte-for-byte on every simulation-visible result (the grid is a
// pure search-space optimisation; DESIGN.md §10); the bench exits non-zero
// on any divergence, and --smoke doubles as the ctest determinism pin by
// also comparing digests across --jobs {1,8}. The headline number is the
// candidate-reduction factor: brute-force radio_candidates over grid
// radio_candidates, which acceptance requires to reach >= 5x at 5000 APs.
//
// Stdout is deterministic (counters and bytes only); wall-clock rates go
// to the JSON file (--json, default BENCH_citywide.json, stamped with the
// host fingerprint) and --perf-csv.
// --assert-wall additionally fails the run (stderr diagnostics, nonzero
// exit) if grid mode loses to brute force on wall-clock at any cell beyond
// a noise tolerance — the regression guard for the grid hot path.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "mobility/deployment.hpp"

using namespace spider;

namespace {

struct Cell {
  std::size_t aps;
  int clients;
};

trace::ScenarioConfig city_config(const Cell& cell, phy::NeighborIndex index,
                                  Time duration) {
  trace::ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.duration = duration;
  cfg.speed_mps = 10.0;
  cfg.clients = cell.clients;
  mob::CityGridConfig city;  // 2x2 km mesh, paper's channel mix
  city.aps_per_km2 = static_cast<double>(cell.aps) /
                     (city.width_m * city.height_m / 1e6);
  cfg.city = city;
  cfg.neighbor_index = index;
  cfg.driver = trace::DriverKind::kSpider;
  cfg.spider = bench::tuned_spider();
  cfg.spider.mode = core::OperationMode::single(1);
  return cfg;
}

/// Every simulation-visible field that must not depend on the neighbor
/// index or the worker count. radio_candidates and the grid counters are
/// deliberately absent: they describe the search, not the simulation.
std::string digest(const trace::ScenarioResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "popped=%llu tx=%llu fanout=%llu bytes=%llu joins=%zu "
                "e2e=%zu switches=%llu conn=%.9f",
                static_cast<unsigned long long>(r.perf.events_popped),
                static_cast<unsigned long long>(r.perf.frames_tx),
                static_cast<unsigned long long>(r.perf.frames_fanout),
                static_cast<unsigned long long>(r.total_bytes),
                r.joins_attempted, r.e2e_succeeded,
                static_cast<unsigned long long>(r.switches), r.connectivity);
  return buf;
}

double candidates_per_tx(const trace::ScenarioResult& r) {
  return r.perf.frames_tx == 0
             ? 0.0
             : static_cast<double>(r.perf.radio_candidates) /
                   static_cast<double>(r.perf.frames_tx);
}

}  // namespace

int main(int argc, char** argv) {
  // --assert-wall turns the wall-clock comparison below into a hard
  // failure; its diagnostics go to stderr so stdout stays byte-identical
  // across hosts.
  bool smoke = false;
  bool assert_wall = false;
  std::string json_path = "BENCH_citywide.json";
  auto cli = bench::parse_sweep_cli(
      argc, argv,
      {{"--smoke", "", "two small cells plus the jobs {1,8} digest pin",
        [&smoke](const std::string&) { smoke = true; }},
       {"--assert-wall", "",
        "fail if grid mode loses to brute force on wall-clock at any cell",
        [&assert_wall](const std::string&) { assert_wall = true; }},
       {"--json", "PATH",
        "write per-cell wall-clock metrics as JSON (default " + json_path + ")",
        [&json_path](const std::string& v) { json_path = v; }}});

  const std::vector<Cell> cells =
      smoke ? std::vector<Cell>{{200, 8}, {1000, 8}}
            : std::vector<Cell>{{200, 8},  {200, 64},  {1000, 8},
                                {1000, 64}, {5000, 8}, {5000, 64}};
  const Time duration = smoke ? sec(4) : sec(12);

  bench::banner("ext: city-scale medium, spatial grid vs brute force",
                "extension; city mesh per §4.1 deployment statistics");

  // Interleave grid/brute per cell; results come back in submission order.
  std::vector<trace::ScenarioConfig> configs;
  for (const Cell& cell : cells) {
    configs.push_back(city_config(cell, phy::NeighborIndex::kGrid, duration));
    configs.push_back(
        city_config(cell, phy::NeighborIndex::kBruteForce, duration));
  }

  const auto results = cli.run(configs);

  bool ok = true;
  std::vector<trace::ScenarioResult> serial;
  if (smoke) {
    // Scale determinism pin: the whole sweep must digest identically on a
    // serial and an 8-wide pool.
    auto opts1 = cli.sweep;
    opts1.jobs = 1;
    auto opts8 = cli.sweep;
    opts8.jobs = 8;
    serial = trace::ScenarioRunner(opts1).run_many(configs);
    const auto wide = trace::ScenarioRunner(opts8).run_many(configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (digest(serial[i]) != digest(wide[i]) ||
          digest(serial[i]) != digest(results[i])) {
        std::printf("JOBS DIVERGENCE run %zu:\n  jobs=1 %s\n  jobs=8 %s\n",
                    i, digest(serial[i]).c_str(), digest(wide[i]).c_str());
        ok = false;
      }
    }
    std::printf("jobs {1,8} digest check: %s\n\n", ok ? "identical" : "DIFF");
  }

  TextTable table({"APs", "clients", "index", "MB", "joins", "switches",
                   "cand/tx", "vs grid", "reduction"});
  double min_reduction_5000 = 1e300;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const trace::ScenarioResult& grid = results[2 * c];
    const trace::ScenarioResult& brute = results[2 * c + 1];
    const bool same = digest(grid) == digest(brute);
    ok = ok && same;
    const double reduction =
        grid.perf.radio_candidates == 0
            ? 0.0
            : static_cast<double>(brute.perf.radio_candidates) /
                  static_cast<double>(grid.perf.radio_candidates);
    if (cells[c].aps == 5000 && reduction < min_reduction_5000) {
      min_reduction_5000 = reduction;
    }
    for (const bool is_grid : {true, false}) {
      const trace::ScenarioResult& r = is_grid ? grid : brute;
      table.add_row({std::to_string(cells[c].aps),
                     std::to_string(cells[c].clients),
                     is_grid ? "grid" : "brute",
                     TextTable::num(r.total_bytes / 1e6, 2),
                     std::to_string(r.joins_attempted),
                     std::to_string(r.switches),
                     TextTable::num(candidates_per_tx(r), 1),
                     same ? "identical" : "DIFF",
                     is_grid ? std::string("-")
                             : TextTable::num(reduction, 1) + "x"});
    }
    if (!same) {
      std::printf("INDEX DIVERGENCE at %zu APs x %d clients:\n  grid  %s\n"
                  "  brute %s\n",
                  cells[c].aps, cells[c].clients, digest(grid).c_str(),
                  digest(brute).c_str());
    }
  }
  table.print(std::cout);
  if (!smoke) {
    std::printf("\nmin candidate reduction at 5000 APs: %.1fx (need >= 5x)\n",
                min_reduction_5000);
    if (min_reduction_5000 < 5.0) ok = false;
  }
  std::printf("\ncitywide %s: %s\n", smoke ? "smoke" : "sweep",
              ok ? "PASS" : "FAIL");

  // Wall-clock comparison: the grid must keep up with brute force at every
  // cell, with headroom for timer noise and sub-100 ms cells. Walls come
  // from the serial re-run when --smoke produced one — on the parallel
  // pool a cell's wall is inflated by whatever its neighbors were doing.
  // Informational in the JSON always; a hard failure under --assert-wall.
  bool wall_ok = true;
  const auto& timed = serial.empty() ? results : serial;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const double g = timed[2 * c].perf.wall_seconds;
    const double b = timed[2 * c + 1].perf.wall_seconds;
    const double allowed = b * 1.15 + 0.10;
    if (g > allowed) {
      wall_ok = false;
      std::fprintf(stderr,
                   "WALL REGRESSION at %zu APs x %d clients: grid %.3fs vs "
                   "brute %.3fs (allowed %.3fs)\n",
                   cells[c].aps, cells[c].clients, g, b, allowed);
    }
  }

  // Host-dependent rates live in files only.
  if (std::FILE* out = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(out, "{\n  \"host\": %s,\n  \"cells\": [\n",
                 bench::host_fingerprint_json(SPIDER_BUILD_TYPE).c_str());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      for (const bool is_grid : {true, false}) {
        const trace::ScenarioResult& r = results[2 * c + (is_grid ? 0 : 1)];
        std::fprintf(
            out,
            "    {\"aps\": %zu, \"clients\": %d, \"index\": \"%s\", "
            "\"radio_candidates\": %llu, \"grid_cells_scanned\": %llu, "
            "\"grid_rebuckets\": %llu, \"position_samples\": %llu, "
            "\"frames_tx\": %llu, "
            "\"wall_s\": %.3f, \"sim_per_wall\": %.2f}%s\n",
            cells[c].aps, cells[c].clients, is_grid ? "grid" : "brute",
            static_cast<unsigned long long>(r.perf.radio_candidates),
            static_cast<unsigned long long>(r.perf.grid_cells_scanned),
            static_cast<unsigned long long>(r.perf.grid_rebuckets),
            static_cast<unsigned long long>(r.perf.position_samples),
            static_cast<unsigned long long>(r.perf.frames_tx),
            r.perf.wall_seconds, r.perf.sim_rate(),
            (2 * c + (is_grid ? 0 : 1)) + 1 == results.size() ? "" : ",");
      }
    }
    std::fprintf(out, "  ],\n  \"pass\": %s,\n  \"wall_pass\": %s\n}\n",
                 ok ? "true" : "false", wall_ok ? "true" : "false");
    std::fclose(out);
  } else {
    std::fprintf(stderr, "warning: could not write %s\n", json_path.c_str());
  }
  bench::maybe_write_perf_csv(cli, results);
  return ok && (wall_ok || !assert_wall) ? 0 : 1;
}
