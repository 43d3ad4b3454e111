#include <gtest/gtest.h>

#include "bench/bench_util.hpp"
#include "core/spider_driver.hpp"
#include "mobility/mobility.hpp"
#include "trace/experiment.hpp"
#include "trace/handoff.hpp"
#include "trace/runner.hpp"

namespace spider::trace {
namespace {

/// A compact town: short road, healthy AP density, quick DHCP — so the
/// integration assertions hold within a few simulated minutes.
ScenarioConfig town(DriverKind driver, std::uint64_t seed = 11) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.duration = sec(240);
  cfg.speed_mps = 10.0;
  cfg.deployment.road_length_m = 1500;
  cfg.deployment.aps_per_km = 14;
  cfg.dhcp_server.offer_delay_min = msec(200);
  cfg.dhcp_server.offer_delay_median = msec(500);
  cfg.dhcp_server.offer_delay_max = sec(2);
  cfg.driver = driver;
  cfg.spider.mode = core::OperationMode::single(6);
  cfg.spider.dhcp = {.retx_timeout = msec(400), .max_sends = 4};
  return cfg;
}

TEST(Integration, SpiderDrivesThroughTownAndTransfers) {
  const auto result = ScenarioRunner().run_one(town(DriverKind::kSpider));
  EXPECT_GT(result.total_bytes, 500'000u);
  EXPECT_GT(result.connectivity, 0.05);
  EXPECT_LT(result.connectivity, 1.0);
  EXPECT_GT(result.joins_attempted, 3u);
  EXPECT_GT(result.e2e_succeeded, 0u);
  EXPECT_EQ(result.switches, 0u);  // single-channel mode never switches
}

TEST(Integration, DeterministicPerSeed) {
  const auto a = ScenarioRunner().run_one(town(DriverKind::kSpider, 21));
  const auto b = ScenarioRunner().run_one(town(DriverKind::kSpider, 21));
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.joins_attempted, b.joins_attempted);
  EXPECT_DOUBLE_EQ(a.connectivity, b.connectivity);
}

TEST(Integration, SeedsActuallyVaryOutcomes) {
  const auto a = ScenarioRunner().run_one(town(DriverKind::kSpider, 31));
  const auto b = ScenarioRunner().run_one(town(DriverKind::kSpider, 32));
  EXPECT_NE(a.total_bytes, b.total_bytes);
}

TEST(Integration, MultiApBeatsSingleApOnOneChannel) {
  // Table 2's first comparison, in miniature: same channel, multiple APs
  // vs a single interface.
  auto multi = town(DriverKind::kSpider);
  multi.spider.num_interfaces = 7;
  auto single = town(DriverKind::kSpider);
  single.spider.num_interfaces = 1;
  const auto pooled = ScenarioRunner().run_many_averaged({multi, single}, 3);
  EXPECT_GT(pooled[0].avg_throughput_kBps, pooled[1].avg_throughput_kBps);
}

TEST(Integration, MultiChannelJoinsMoreButSwitchesConstantly) {
  auto cfg = town(DriverKind::kSpider);
  cfg.spider.mode = core::OperationMode::equal_split({1, 6, 11}, msec(600));
  const auto result = ScenarioRunner().run_one(cfg);
  EXPECT_GT(result.switches, 100u);
  // APs from more than one channel appear in the join log.
  std::set<wire::Channel> channels;
  for (const auto& rec : result.join_log) channels.insert(rec.channel);
  EXPECT_GE(channels.size(), 2u);
}

TEST(Integration, StockDriverWorksButLagsSpider) {
  const auto pooled = ScenarioRunner().run_many_averaged(
      {town(DriverKind::kSpider), town(DriverKind::kStock)}, 3);
  const auto& spider = pooled[0];
  const auto& stock = pooled[1];
  EXPECT_GT(stock.total_bytes, 0u);  // stock does transfer something
  EXPECT_GT(spider.avg_throughput_kBps, stock.avg_throughput_kBps);
}

TEST(Integration, FatVapCompletesJoinsUnderSlotting) {
  auto cfg = town(DriverKind::kFatVap, 13);
  cfg.spider.e2e_timeout = sec(6);
  const auto result = ScenarioRunner().run_one(cfg);
  EXPECT_GT(result.joins_attempted, 0u);
  EXPECT_GT(result.total_bytes, 0u);
}

TEST(Integration, AveragingPoolsJoinLogs) {
  auto cfg = town(DriverKind::kSpider);
  cfg.duration = sec(120);
  const auto one = ScenarioRunner().run_one(cfg);
  const auto three = ScenarioRunner().run_many_averaged({cfg}, 3).front();
  EXPECT_GT(three.joins_attempted, one.joins_attempted);
}

TEST(Integration, DhcpFailureFractionWithinSanity) {
  auto cfg = town(DriverKind::kSpider);
  cfg.spider.dhcp = {.retx_timeout = msec(200), .max_sends = 3};
  cfg.dhcp_server.offer_delay_min = msec(300);
  cfg.dhcp_server.offer_delay_median = sec(1);
  cfg.dhcp_server.offer_delay_max = sec(4);
  const auto result = ScenarioRunner().run_many_averaged({cfg}, 3).front();
  // Short timeouts against slow servers: real failures, but not total.
  EXPECT_GT(result.dhcp_failure_fraction(), 0.05);
  EXPECT_LT(result.dhcp_failure_fraction(), 0.95);
}

TEST(Integration, FixedSitesReplayExactly) {
  // The same hand-written deployment replays identically regardless of the
  // generator config, enabling measured-town reproduction.
  std::vector<mob::ApSite> sites(2);
  sites[0].position = {200, 30};
  sites[0].channel = 6;
  sites[0].backhaul = mbps(3);
  sites[1].position = {600, -30};
  sites[1].channel = 6;
  sites[1].backhaul = mbps(3);

  auto cfg = town(DriverKind::kSpider, 99);
  cfg.duration = sec(120);
  cfg.fixed_sites = sites;
  cfg.deployment.aps_per_km = 50;  // must be ignored
  const auto a = ScenarioRunner().run_one(cfg);
  cfg.deployment.aps_per_km = 1;   // still ignored
  const auto b = ScenarioRunner().run_one(cfg);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_GT(a.total_bytes, 0u);
  // Exactly our two APs exist; every join targets one of them.
  for (const auto& rec : a.join_log) EXPECT_EQ(rec.channel, 6);
}

TEST(Integration, TwoVehiclesShareTheTown) {
  // Two concurrent Spider clients on one testbed: both make progress, and
  // the shared world stays deterministic.
  TestbedConfig tc;
  tc.seed = 55;
  Testbed bed(tc);
  mob::DeploymentConfig dep;
  dep.road_length_m = 1500;
  dep.aps_per_km = 12;
  Rng rng = bed.fork_rng();
  for (const auto& site : mob::generate_deployment(dep, rng)) {
    Testbed::ApSpec spec;
    spec.channel = site.channel;
    spec.position = site.position;
    spec.backhaul = site.backhaul;
    bed.add_ap(spec);
  }
  mob::BackAndForthRoad route_a(dep.road_length_m, 10.0);
  mob::BackAndForthRoad route_b(dep.road_length_m, 8.0);
  core::SpiderConfig cfg;
  cfg.mode = core::OperationMode::single(6);
  cfg.dhcp = {.retx_timeout = msec(400), .max_sends = 4};

  core::SpiderDriver car_a(bed.sim, bed.medium, bed.next_client_mac_block(),
                           [&] { return route_a.position_at(bed.sim.now()); },
                           cfg);
  core::SpiderDriver car_b(bed.sim, bed.medium, bed.next_client_mac_block(),
                           [&] { return route_b.position_at(bed.sim.now()); },
                           cfg);
  core::LinkManager mgr_a(car_a, bed.server_ip());
  core::LinkManager mgr_b(car_b, bed.server_ip());
  ThroughputRecorder rec_a, rec_b;
  DownloadHarness h_a(bed.sim, bed.server_ip(), rec_a);
  DownloadHarness h_b(bed.sim, bed.server_ip(), rec_b);
  h_a.attach(mgr_a);
  h_b.attach(mgr_b);
  car_a.start();
  mgr_a.start();
  car_b.start();
  mgr_b.start();
  bed.sim.run_until(sec(300));

  EXPECT_GT(rec_a.total_bytes(), 0u);
  EXPECT_GT(rec_b.total_bytes(), 0u);
  EXPECT_GT(mgr_a.joins_attempted(), 0u);
  EXPECT_GT(mgr_b.joins_attempted(), 0u);
}

// ---------------------------------------------------------------------------
// ScenarioApp: the per-client application hook of ScenarioRunner::run_many
// ---------------------------------------------------------------------------

/// Reference: the hand-built rig a bench used to assemble for a one-client
/// Spider drive with a hand-off tracker in place of the download.
HandoffTracker::Summary hand_built_handoffs(const ScenarioConfig& cfg) {
  TestbedConfig tc;
  tc.seed = cfg.seed;
  Testbed bed(tc);
  Rng rng = bed.fork_rng();
  for (const auto& site : mob::generate_deployment(cfg.deployment, rng)) {
    Testbed::ApSpec spec;
    spec.channel = site.channel;
    spec.position = site.position;
    spec.backhaul = site.backhaul;
    spec.dhcp = cfg.dhcp_server;
    bed.add_ap(spec);
  }
  mob::BackAndForthRoad route(cfg.deployment.road_length_m, cfg.speed_mps);
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [&] { return route.position_at(bed.sim.now()); },
                            cfg.spider);
  core::LinkManager manager(driver, bed.server_ip());
  HandoffTracker tracker(bed.sim);
  tracker.attach(manager);
  driver.start();
  manager.start();
  bed.sim.run_until(cfg.duration);
  return tracker.summarize();
}

/// Attaches a hand-off tracker to every client, in place of the download.
class TrackHandoffs : public ScenarioApp {
 public:
  TrackHandoffs(sim::Simulator& sim, HandoffTracker::Summary& out)
      : tracker_(sim), out_(out) {}
  bool attach(ClientRig& rig) override {
    tracker_.attach(*rig.manager);
    return false;
  }
  void finish() override { out_ = tracker_.summarize(); }

 private:
  HandoffTracker tracker_;
  HandoffTracker::Summary& out_;
};

/// Keeps the download and only counts the hook calls it sees.
struct CountHooks : ScenarioApp {
  explicit CountHooks(std::vector<int>& calls) : calls_(calls) {}
  bool attach(ClientRig& rig) override {
    EXPECT_NE(rig.manager, nullptr);
    ++calls_[0];
    return true;
  }
  void started(ClientRig&) override { ++calls_[1]; }
  void finish() override { ++calls_[2]; }
  std::vector<int>& calls_;
};

ScenarioConfig short_town(std::uint64_t seed) {
  ScenarioConfig cfg = town(DriverKind::kSpider, seed);
  cfg.duration = sec(120);
  return cfg;
}

void expect_same_summary(const HandoffTracker::Summary& a,
                         const HandoffTracker::Summary& b) {
  EXPECT_EQ(a.handoffs, b.handoffs);
  EXPECT_EQ(a.soft, b.soft);
  EXPECT_EQ(a.gap_seconds.samples(), b.gap_seconds.samples());
}

TEST(ScenarioApp, TrackerMatchesTheHandBuiltRig) {
  const ScenarioConfig cfg = short_town(41);
  const HandoffTracker::Summary reference = hand_built_handoffs(cfg);
  ASSERT_GT(reference.handoffs, 0u);

  HandoffTracker::Summary hooked;
  const auto results = ScenarioRunner().run_many(
      {cfg}, [&hooked](std::size_t, Testbed& bed) {
        return std::make_unique<TrackHandoffs>(bed.sim, hooked);
      });
  expect_same_summary(hooked, reference);
  // The tracker replaced the download: no bulk bytes moved.
  EXPECT_EQ(results.front().total_bytes, 0u);
}

TEST(ScenarioApp, KeepingTheDownloadLeavesTheRunUnchanged) {
  // A faulted run, so the resilience callbacks on the download path are
  // exercised too.
  ScenarioConfig cfg = short_town(43);
  cfg.impairments.schedule.ap_blackout(sec(20), sec(5), 0)
      .gateway_flap(sec(40), sec(8), 1)
      .dhcp_stall(sec(60), sec(10), 2);
  cfg.clients = 2;
  const ScenarioResult plain = ScenarioRunner().run_one(cfg);

  std::vector<int> calls(3, 0);
  const auto hooked = ScenarioRunner().run_many(
      {cfg}, [&calls](std::size_t, Testbed&) {
        return std::make_unique<CountHooks>(calls);
      });
  EXPECT_EQ(bench::fault_digest(hooked.front()), bench::fault_digest(plain));
  EXPECT_GT(plain.faults_injected, 0u);
  EXPECT_EQ(calls, (std::vector<int>{2, 2, 1}));
}

TEST(ScenarioApp, ResultsAreIndependentOfJobs) {
  std::vector<ScenarioConfig> configs;
  for (std::uint64_t seed = 51; seed < 55; ++seed) {
    configs.push_back(short_town(seed));
  }
  const auto sweep = [&configs](std::size_t jobs) {
    std::vector<HandoffTracker::Summary> out(configs.size());
    ScenarioRunner({.jobs = jobs})
        .run_many(configs, [&out](std::size_t run, Testbed& bed) {
          return std::make_unique<TrackHandoffs>(bed.sim, out[run]);
        });
    return out;
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_same_summary(parallel[i], serial[i]);
  }
}

/// Reference: the hand-built static rig Fig. 7 used to assemble — one AP,
/// a static client, the window read between two run_until calls.
struct HandBuiltWindow {
  double kBps = 0.0;
  std::vector<core::JoinRecord> joins;
};

HandBuiltWindow hand_built_window(std::uint64_t seed,
                                  const core::OperationMode& mode) {
  TestbedConfig tc;
  tc.seed = seed;
  tc.propagation.base_loss = 0.01;
  tc.propagation.good_radius_m = 95;
  Testbed bed(tc);
  Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {15, 0};
  spec.backhaul = mbps(5);
  spec.dhcp.offer_delay_median = msec(150);
  spec.dhcp.offer_delay_max = msec(400);
  bed.add_ap(spec);

  core::SpiderConfig cfg = bench::tuned_spider();
  cfg.num_interfaces = 1;
  cfg.mode = mode;
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  ThroughputRecorder recorder;
  DownloadHarness harness(bed.sim, bed.server_ip(), recorder);
  harness.attach(manager);
  driver.start();
  manager.start();
  bed.sim.run_until(sec(15));
  const auto warm = recorder.total_bytes();
  bed.sim.run_until(sec(75));
  return {static_cast<double>(recorder.total_bytes() - warm) / 60.0 / 1e3,
          manager.join_log()};
}

void expect_same_joins(const std::vector<core::JoinRecord>& a,
                       const std::vector<core::JoinRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bssid, b[i].bssid);
    EXPECT_EQ(a[i].channel, b[i].channel);
    EXPECT_EQ(a[i].started, b[i].started);
    EXPECT_EQ(a[i].assoc_delay, b[i].assoc_delay);
    EXPECT_EQ(a[i].dhcp_delay, b[i].dhcp_delay);
    EXPECT_EQ(a[i].e2e_delay, b[i].e2e_delay);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].finished, b[i].finished);
  }
}

TEST(ScenarioApp, StaticWindowMatchesTheHandBuiltRig) {
  // A fixed-site run takes no deployment fork, so its AP streams, and with
  // them the whole run, equal the hand-built rig's. (No event lands on the
  // 15 s edge here; MidRunEdgeMatchesTheHandBuiltRig pins the edge rule.)
  const core::OperationMode modes[] = {
      core::OperationMode::single(6),
      core::OperationMode::weighted({{6, 0.5}, {1, 0.25}, {11, 0.25}},
                                    msec(400)),
  };
  std::vector<ScenarioConfig> configs;
  for (const auto& mode : modes) {
    auto cfg = bench::static_rig(70, sec(75), {{{15, 0}, 6, mbps(5)}});
    cfg.spider.num_interfaces = 1;
    cfg.spider.mode = mode;
    configs.push_back(cfg);
  }
  std::vector<double> kBps(configs.size());
  const auto results = ScenarioRunner().run_many(
      configs, [&kBps](std::size_t run, Testbed& bed) {
        return std::make_unique<bench::WindowDownload>(bed, kBps[run]);
      });
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const HandBuiltWindow reference = hand_built_window(70, modes[i]);
    ASSERT_GT(reference.kBps, 0.0);
    EXPECT_EQ(kBps[i], reference.kBps);
    expect_same_joins(results[i].join_log, reference.joins);
    // The window app replaced the run's own download.
    EXPECT_EQ(results[i].total_bytes, 0u);
  }
}

/// Restarts the client's switch statistics at `at` and drops the download.
class ResetSwitchStats : public ScenarioApp {
 public:
  ResetSwitchStats(sim::Simulator& sim, Time at) {
    bench::post_after(sim, at, [this] { driver_->reset_switch_stats(); });
  }
  bool attach(ClientRig& rig) override {
    driver_ = rig.spider.get();
    return false;
  }

 private:
  core::SpiderDriver* driver_ = nullptr;
};

TEST(ScenarioApp, MidRunEdgeMatchesTheHandBuiltRig) {
  // Table 1's empty rig: a switch lands exactly on the 30 s edge, which a
  // hand-built rig counted as warm-up. Posted at 30 s instead of one tick
  // later, the reset runs ahead of it and keeps one sample too many.
  const core::OperationMode mode =
      core::OperationMode::weighted({{1, 0.5}, {11, 0.5}}, msec(400));
  TestbedConfig tc;
  tc.seed = 40;
  tc.propagation.base_loss = 0.01;
  tc.propagation.good_radius_m = 95;
  Testbed bed(tc);
  core::SpiderConfig cfg = bench::tuned_spider();
  cfg.num_interfaces = 1;
  cfg.mode = mode;
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(30));
  driver.reset_switch_stats();
  bed.sim.run_until(sec(90));
  const OnlineStats& reference = driver.switch_latency_stats();
  ASSERT_GT(reference.count(), 0u);

  ScenarioConfig run = bench::static_rig(40, sec(90), {});
  run.deployment.aps_per_km = 0;
  run.deployment.clusters_per_km = 0;
  run.spider.num_interfaces = 1;
  run.spider.mode = mode;
  const auto results = ScenarioRunner().run_many(
      {run}, [](std::size_t, Testbed& run_bed) {
        return std::make_unique<ResetSwitchStats>(run_bed.sim, sec(30));
      });
  const OnlineStats& hooked = results.front().switch_latency_ms;
  EXPECT_EQ(hooked.count(), reference.count());
  EXPECT_EQ(hooked.mean(), reference.mean());
  EXPECT_EQ(hooked.stddev(), reference.stddev());
}

}  // namespace
}  // namespace spider::trace
