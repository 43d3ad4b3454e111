#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "baseline/fatvap.hpp"
#include "baseline/stock_wifi.hpp"
#include "core/adaptive.hpp"
#include "core/config.hpp"
#include "core/link_manager.hpp"
#include "core/spider_driver.hpp"
#include "fault/fault.hpp"
#include "mobility/deployment.hpp"
#include "mobility/mobility.hpp"
#include "trace/impairment.hpp"
#include "net/dhcp_server.hpp"
#include "obs/metrics.hpp"
#include "sim/cancel.hpp"
#include "sim/perf.hpp"
#include "trace/error.hpp"
#include "trace/testbed.hpp"
#include "util/stats.hpp"

namespace spider::obs {
class Tracer;
}  // namespace spider::obs

namespace spider::trace {

enum class DriverKind { kSpider, kStock, kFatVap };
const char* to_string(DriverKind k);

/// A full outdoor drive: the §4.1 vehicular experiment. One client drives
/// back and forth along a road lined with generated open APs, downloading
/// through every live connection. Everything the evaluation section varies
/// is a field here.
struct ScenarioConfig {
  std::uint64_t seed = 1;
  Time duration = sec(1800);
  double speed_mps = 10.0;
  /// Independent vehicles sharing the medium and AP population. Along the
  /// road they start evenly staggered on the same loop; in a city each
  /// draws its own block tour. Every client runs its own driver stack and
  /// download harness; result fields pool across clients (join logs
  /// concatenate in client order, switches sum, latency stats merge).
  /// Runs clamp it at 1; validate() rejects anything below.
  int clients = 1;

  mob::DeploymentConfig deployment;
  /// When set, the AP population and client routes come from a 2-D city
  /// street mesh (mob::generate_city_deployment) instead of the single
  /// road. `deployment` is then ignored; `fixed_sites` still wins.
  std::optional<mob::CityGridConfig> city;
  /// When non-empty, replay these sites instead of generating a deployment
  /// (e.g. loaded from a wardriving CSV via mob::read_sites_csv_file).
  /// Fixed sites take no deployment RNG fork, so a static rig built from
  /// them replays a hand-built Testbed with the same APs exactly.
  std::vector<mob::ApSite> fixed_sites;
  phy::PropagationConfig propagation;
  /// Medium neighbor search: the spatial grid by default; brute force is
  /// the differential-test oracle (results are byte-identical in both
  /// modes). The grid's cell edge always derives from the propagation
  /// range (DESIGN.md §10).
  phy::NeighborIndex neighbor_index = phy::NeighborIndex::kGrid;
  net::DhcpServerConfig dhcp_server;
  Time backhaul_delay = msec(10);

  DriverKind driver = DriverKind::kSpider;
  core::SpiderConfig spider;     ///< stack for Spider and FatVAP
  base::StockConfig stock;
  base::FatVapConfig fatvap;
  /// Spider only: enable the §4.8 speed-adaptive mode controller (the
  /// scenario's constant speed feeds it; the initial mode comes from
  /// `spider.mode`, the thresholds from core::AdaptiveConfig's defaults).
  bool adaptive = false;

  /// What impairs this run: a synthetic fault timeline, a recorded
  /// channel-occupancy trace file, or an inline timeline (see
  /// ImpairmentSource). The resolved schedule is replayed against the
  /// assembled APs and medium (a "none" source = no injector,
  /// byte-identical to pre-fault runs). FaultSpec targets index into the
  /// scenario's AP list (mod its size).
  ImpairmentSource impairments;

  Time metrics_bin = sec(1);

  /// Structural sanity check, run before any simulator state is built:
  /// non-positive durations/rates/counts, malformed city geometry,
  /// degenerate channel mixes or operation modes, and any channel outside
  /// the 2.4 GHz band (1..14).
  /// Empty result means the config is runnable; callers that cannot
  /// continue (benches, the scenario server) surface the issues as an
  /// RunErrorKind::kInvalidConfig instead of asserting mid-run.
  std::vector<ConfigIssue> validate() const;
};

/// Everything the evaluation section reports about one run.
struct ScenarioResult {
  double avg_throughput_kBps = 0.0;
  double connectivity = 0.0;
  Cdf connection_durations;
  Cdf disruption_durations;
  Cdf instantaneous_kBps;
  std::vector<core::JoinRecord> join_log;
  std::uint64_t switches = 0;
  OnlineStats switch_latency_ms;
  std::uint64_t total_bytes = 0;

  // Join-log digests.
  std::size_t joins_attempted = 0;
  std::size_t assoc_succeeded = 0;
  std::size_t dhcp_succeeded = 0;
  std::size_t e2e_succeeded = 0;
  double dhcp_failure_fraction() const;  ///< of attempts that associated

  // Resilience digests (all zero when the scenario injected no faults).
  std::uint64_t faults_injected = 0;
  std::uint64_t outages = 0;
  std::uint64_t recoveries = 0;
  Cdf recovery_times;  ///< seconds, one sample per recovered outage

  /// False when the run was interrupted by a cancel/deadline token (the
  /// result then holds whatever was harvested at the interruption point —
  /// partial output, flushed, never silently discarded). Pooled results
  /// are complete only when every constituent run completed.
  bool completed = true;

  /// Engine counters for the run (events popped/cancelled, heap peak,
  /// wall-clock, sim rate). Wall-clock fields are host-dependent and never
  /// appear in deterministic bench output; see write_perf_csv.
  sim::PerfCounters perf;

  /// Derived per-layer counters from the flight recorder (empty unless the
  /// run was traced). Pooled results merge these: counters sum, gauges max.
  obs::MetricsRegistry metrics;
  /// The raw flight recorders, one per traced run, in seed order. Pooled
  /// results concatenate them so sinks can render every repetition.
  std::vector<std::shared_ptr<const obs::Tracer>> traces;
};

/// One vehicle of a drive: its route and the driver stack the scenario
/// runs. Spider and FatVAP rigs carry a LinkManager; `adaptive` is set only
/// for Spider with ScenarioConfig::adaptive.
struct ClientRig {
  std::unique_ptr<mob::MobilityModel> route;
  /// Phase shift into the route, staggering road clients along the loop.
  Time offset{0};
  std::unique_ptr<core::SpiderDriver> spider;
  std::unique_ptr<base::StockWifiDriver> stock;
  std::unique_ptr<base::FatVapDriver> fatvap;
  std::unique_ptr<core::LinkManager> manager;
  std::unique_ptr<core::AdaptiveModeController> adaptive;
};

/// What a run carries per client besides, or instead of, the bulk download
/// (VoIP calls, web flows, a hand-off tracker, ...). Passed to
/// ScenarioRunner::run_many by benches; never part of ScenarioConfig, so
/// the wire form, validate() and the server never see it (DESIGN.md §5).
class ScenarioApp {
 public:
  virtual ~ScenarioApp() = default;
  /// Per client, after its driver and manager are built, before they
  /// start. Returns whether the bulk download attaches too; an app that
  /// returns false owns the link callbacks (and a faulted run's outage
  /// tracking with them).
  virtual bool attach(ClientRig& rig) = 0;
  /// Per client, right after its stack (and adaptive controller) started.
  virtual void started(ClientRig& /*rig*/) {}
  /// Once, when the run has ended.
  virtual void finish() {}
};

/// Builds run `run`'s app (its index in the batch) on the run's testbed,
/// after the APs are deployed and before any client is assembled. Runner
/// workers call it concurrently; each call touches only its own run.
using AppFactory =
    std::function<std::unique_ptr<ScenarioApp>(std::size_t run, Testbed& bed)>;

namespace detail {
/// The single scenario kernel every entrypoint funnels into: assembles the
/// testbed, installs `tracer` on the simulator when given, runs, harvests.
/// When `cancel` is non-null the simulator polls it (DESIGN.md §11): a
/// tripped token interrupts the run and the partial result comes back with
/// `completed == false`. Completed runs are byte-identical with or without
/// a token installed. `app`, when set, builds run `run`'s ScenarioApp.
ScenarioResult execute_scenario(const ScenarioConfig& config,
                                std::shared_ptr<obs::Tracer> tracer,
                                sim::CancelToken* cancel = nullptr,
                                const AppFactory& app = {},
                                std::size_t run = 0);

/// Fills the join-log digests (attempted/assoc/dhcp/e2e) from result.join_log.
void digest_join_log(ScenarioResult& result);
}  // namespace detail

/// Merges per-seed runs into one pooled result: scalar metrics are
/// averaged, counts summed, join logs and CDF samples concatenated in
/// order, perf counters and trace metrics merged. Used by
/// ScenarioRunner::run_many_averaged (trace/runner.hpp), so serial and
/// parallel sweeps agree to the byte.
ScenarioResult pool_results(const std::vector<ScenarioResult>& runs);

}  // namespace spider::trace
