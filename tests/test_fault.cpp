// Fault-injection subsystem tests: deterministic fault timelines against
// live testbeds, and the resilient link-management policies they motivate
// (escalating blacklists, lease-cache invalidation, flap detection, the
// join watchdog). The central scenario is the acceptance case: an AP that
// reboots mid-encounter behind a buggy gateway (no NAK after its pool is
// wiped) strands the legacy flat-blacklist/sticky-cache stack, while the
// hardened stack invalidates the cache and re-establishes the link.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/link_manager.hpp"
#include "core/spider_driver.hpp"
#include "fault/fault.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "trace/metrics.hpp"
#include "trace/testbed.hpp"

namespace spider {
namespace {

using core::JoinOutcome;

// ---------------------------------------------------------------------------
// Escalating blacklist / flap detection (ApSelector unit tests)
// ---------------------------------------------------------------------------

core::SelectorConfig backoff_config() {
  core::SelectorConfig c;
  c.blacklist_duration = sec(2);
  c.blacklist_backoff = 2.0;
  c.blacklist_max = sec(30);
  c.blacklist_decay = sec(20);
  c.flap_window = sec(60);
  c.flap_penalty = sec(4);
  return c;
}

TEST(BackoffBlacklist, EscalatesGeometricallyUpToCap) {
  core::ApSelector sel(backoff_config());
  const wire::Bssid b(0xB1);

  sel.blacklist(b, sec(0));
  EXPECT_EQ(sel.blacklisted_until(b), sec(2));  // first failure: base
  EXPECT_EQ(sel.failure_streak(b), 1);

  sel.blacklist(b, sec(2));
  EXPECT_EQ(sel.blacklisted_until(b), sec(6));  // 2 s x 2^1
  EXPECT_EQ(sel.failure_streak(b), 2);

  sel.blacklist(b, sec(6));
  EXPECT_EQ(sel.blacklisted_until(b), sec(14));  // 2 s x 2^2
  EXPECT_TRUE(sel.blacklisted(b, sec(13)));
  EXPECT_FALSE(sel.blacklisted(b, sec(14)));

  // Many more consecutive failures saturate at blacklist_max.
  Time now = sec(14);
  for (int i = 0; i < 6; ++i) {
    sel.blacklist(b, now);
    now = sel.blacklisted_until(b);
  }
  sel.blacklist(b, now);
  EXPECT_EQ(sel.blacklisted_until(b) - now, sec(30));
}

TEST(BackoffBlacklist, StreakDecaysAfterQuietPeriod) {
  core::ApSelector sel(backoff_config());
  const wire::Bssid b(0xB2);

  sel.blacklist(b, sec(0));
  sel.blacklist(b, sec(2));
  sel.blacklist(b, sec(6));
  ASSERT_EQ(sel.failure_streak(b), 3);

  // 3 x blacklist_decay of quiet: the whole streak has decayed, so this
  // failure is penalised like a first one.
  sel.blacklist(b, sec(66));
  EXPECT_EQ(sel.failure_streak(b), 1);
  EXPECT_EQ(sel.blacklisted_until(b), sec(66) + sec(2));

  // One decay step forgives one failure: 21 s quiet drops streak 1 -> 0,
  // then the new failure rebuilds it to 1 at base duration again.
  sel.blacklist(b, sec(89));
  EXPECT_EQ(sel.failure_streak(b), 1);
  EXPECT_EQ(sel.blacklisted_until(b), sec(89) + sec(2));
}

TEST(BackoffBlacklist, LegacyFlatModeNeverGrows) {
  core::ApSelector sel(backoff_config());
  const wire::Bssid b(0xB3);
  for (int i = 0; i < 5; ++i) {
    sel.blacklist(b, sec(i), /*escalate=*/false);
    EXPECT_EQ(sel.blacklisted_until(b), sec(i) + sec(2));
  }
  EXPECT_EQ(sel.failure_streak(b), 0);
}

TEST(BackoffBlacklist, FullJoinForgivesHistory) {
  core::ApSelector sel(backoff_config());
  const wire::Bssid b(0xB4);
  sel.blacklist(b, sec(0));
  sel.blacklist(b, sec(2));
  ASSERT_EQ(sel.failure_streak(b), 2);
  sel.record_outcome(b, JoinOutcome::kEndToEnd);
  EXPECT_EQ(sel.failure_streak(b), 0);
  // The next failure starts from the base duration again.
  sel.blacklist(b, sec(10));
  EXPECT_EQ(sel.blacklisted_until(b), sec(10) + sec(2));
}

TEST(BackoffBlacklist, FlapPenaltyStacksInsideWindow) {
  core::ApSelector sel(backoff_config());
  const wire::Bssid b(0xB5);

  sel.record_flap(b, sec(0));
  EXPECT_EQ(sel.flap_count(b), 1);
  EXPECT_EQ(sel.blacklisted_until(b), sec(4));  // 1 x flap_penalty

  sel.record_flap(b, sec(10));
  EXPECT_EQ(sel.flap_count(b), 2);
  EXPECT_EQ(sel.blacklisted_until(b), sec(10) + sec(8));  // 2 x penalty

  // Outside the window the counter restarts.
  sel.record_flap(b, sec(200));
  EXPECT_EQ(sel.flap_count(b), 1);
  EXPECT_EQ(sel.blacklisted_until(b), sec(200) + sec(4));
}

// ---------------------------------------------------------------------------
// Injector mechanics (PHY + logging)
// ---------------------------------------------------------------------------

TEST(Injector, BurstLossTogglesChannelImpairment) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation(phy::PropagationConfig{}), Rng(7));
  fault::FaultInjector injector(sim, Rng(8));
  injector.attach_medium(medium);

  fault::FaultSchedule schedule;
  schedule.burst_loss(msec(1), sec(2), /*channel=*/6, /*bad_loss=*/0.8);
  injector.arm(schedule);

  sim.run_until(msec(2));  // a burst fault opens in its bad state
  EXPECT_DOUBLE_EQ(medium.channel_impairment(6), 0.8);
  EXPECT_EQ(injector.active_faults(), 1u);

  sim.run_until(sec(3));  // past the fault window: fully cleaned up
  EXPECT_DOUBLE_EQ(medium.channel_impairment(6), 0.0);
  EXPECT_EQ(injector.active_faults(), 0u);
  ASSERT_EQ(injector.log().size(), 1u);
  EXPECT_FALSE(injector.log()[0].active);
  EXPECT_GE(injector.log()[0].cleared, sec(2));
}

TEST(Injector, ConstantInterferenceCombinesWithPropagation) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation(phy::PropagationConfig{}), Rng(7));
  fault::FaultInjector injector(sim, Rng(8));
  injector.attach_medium(medium);

  fault::FaultSchedule schedule;
  schedule.channel_interference(msec(1), sec(5), 6, 1.0);
  injector.arm(schedule);

  sim.run_until(sec(1));
  EXPECT_DOUBLE_EQ(medium.channel_impairment(6), 1.0);
  EXPECT_DOUBLE_EQ(medium.channel_impairment(11), 0.0);  // other channels clean
  sim.run_until(sec(6));
  EXPECT_DOUBLE_EQ(medium.channel_impairment(6), 0.0);
}

/// Channel 6's extra loss sampled every millisecond for 4 s under
/// `schedule`, armed on an injector with no AP targets.
std::vector<double> channel6_timeline(const fault::FaultSchedule& schedule) {
  sim::Simulator sim;
  phy::Medium medium(sim, phy::Propagation(phy::PropagationConfig{}), Rng(7));
  fault::FaultInjector injector(sim, Rng(31));
  injector.attach_medium(medium);
  injector.arm(schedule);
  std::vector<double> out;
  for (Time t = msec(1); t <= sec(4); t += msec(1)) {
    sim.run_until(t);
    out.push_back(medium.channel_impairment(6));
  }
  return out;
}

TEST(Injector, SkippedSpecDoesNotShiftLaterDwellStreams) {
  // Each spec forks its dwell stream in schedule order *before* the skip
  // decision, so a spec dropped for want of a target hands the next spec
  // the same stream an armed spec in its place would have.
  fault::FaultSchedule skipped;
  skipped.ap_blackout(sec(1), sec(1), 0)  // no AP registered: skipped
      .burst_loss(sec(1), sec(2), 6, 0.9, msec(50), msec(50));
  fault::FaultSchedule armed;
  armed.burst_loss(sec(9), sec(1), 1, 0.9)  // armed, fires after the window
      .burst_loss(sec(1), sec(2), 6, 0.9, msec(50), msec(50));
  fault::FaultSchedule first;
  first.burst_loss(sec(1), sec(2), 6, 0.9, msec(50), msec(50));

  const std::vector<double> timeline = channel6_timeline(skipped);
  EXPECT_EQ(timeline, channel6_timeline(armed));
  // The burst really toggles, and on the second fork, not the first.
  EXPECT_NE(std::count(timeline.begin(), timeline.end(), 0.9), 0);
  EXPECT_NE(timeline, channel6_timeline(first));
}

TEST(Resilience, SimultaneousRecoveriesTieBreakOnClientId) {
  // Clients 5 and 3 recover at the same instant with different outage
  // lengths; 5's link-up runs first, but client id orders the tie.
  trace::ResilienceRecorder recorder;
  recorder.note_link_up(sec(1), 5);
  recorder.note_link_up(sec(1), 3);
  recorder.note_link_down(sec(2), 5);
  recorder.note_link_down(sec(4), 3);
  recorder.note_link_up(sec(6), 5);  // ttr 4 s
  recorder.note_link_up(sec(6), 3);  // ttr 2 s
  EXPECT_EQ(recorder.outages(), 2u);
  EXPECT_EQ(recorder.recoveries(), 2u);
  const std::vector<double> expect = {2.0, 4.0};
  EXPECT_EQ(recorder.time_to_recover().samples(), expect);
}

TEST(Injector, InstantaneousFaultsLogAndClearImmediately) {
  trace::Testbed bed;
  trace::Testbed::ApSpec spec;
  auto& ap = bed.add_ap(spec);

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());

  std::size_t observed = 0;
  injector.set_fault_observer([&observed](const fault::FaultSpec&) { ++observed; });

  fault::FaultSchedule schedule;
  schedule.psm_flush(msec(1), 0);
  schedule.dhcp_pool_reset(msec(2), 0);
  injector.arm(schedule);

  bed.sim.run_until(msec(10));
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.active_faults(), 0u);
  EXPECT_EQ(observed, 2u);
  for (const auto& entry : injector.log()) EXPECT_FALSE(entry.active);
}

// ---------------------------------------------------------------------------
// Scenario fixtures
// ---------------------------------------------------------------------------

trace::TestbedConfig quiet_air(std::uint64_t seed) {
  trace::TestbedConfig tc;
  tc.seed = seed;
  tc.propagation.base_loss = 0.02;
  tc.propagation.good_radius_m = 90;
  return tc;
}

net::DhcpServerConfig quick_dhcp() {
  net::DhcpServerConfig d;
  d.offer_delay_min = msec(50);
  d.offer_delay_median = msec(150);
  d.offer_delay_max = msec(400);
  return d;
}

core::SpiderConfig one_iface() {
  core::SpiderConfig c;
  c.num_interfaces = 1;
  c.mode = core::OperationMode::single(6);
  c.dhcp = {.retx_timeout = msec(500), .max_sends = 4};
  // Bound the escalation so recovery after a long fault window fits the
  // short test encounters.
  c.selector.blacklist_max = sec(4);
  return c;
}

/// The acceptance scenario: one AP behind a buggy consumer gateway (after
/// a reboot wipes its pool it silently ignores unknown REQUESTs instead of
/// NAKing). The client joins, the AP power-cycles, and the encounter
/// continues for ~45 s — ample time to recover, if the stack can.
struct RebootRun {
  std::size_t links_up = 0;
  std::uint64_t cache_invalidations = 0;
  std::size_t joins = 0;
  bool saw_stale_cache_failure = false;
};

RebootRun run_reboot_encounter(bool resilient) {
  trace::Testbed bed(quiet_air(50));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.dhcp.nak_unknown_requests = false;  // the buggy gateway
  auto& ap = bed.add_ap(spec);

  core::SpiderConfig cfg = one_iface();
  cfg.resilient_link_policy = resilient;
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());
  fault::FaultSchedule schedule;
  schedule.ap_reboot(sec(12), sec(2), 0);
  injector.arm(schedule);

  bed.sim.run_until(sec(12));
  EXPECT_EQ(manager.links_up(), 1u);  // healthy before the reboot

  bed.sim.run_until(sec(60));

  RebootRun out;
  out.links_up = manager.links_up();
  out.cache_invalidations = manager.cache_invalidations();
  out.joins = manager.join_log().size();
  for (const auto& rec : manager.join_log()) {
    out.saw_stale_cache_failure |=
        rec.finished && rec.used_lease_cache &&
        rec.outcome == JoinOutcome::kAssocOnly;
  }
  return out;
}

TEST(FaultScenario, ApRebootMidEncounterHardenedStackRecovers) {
  const RebootRun run = run_reboot_encounter(/*resilient=*/true);
  EXPECT_EQ(run.links_up, 1u);
  // Recovery went through the invalidation path: the stale INIT-REBOOT
  // burned once, the cache entry was dropped, the rejoin used DISCOVER.
  EXPECT_GE(run.cache_invalidations, 1u);
  EXPECT_TRUE(run.saw_stale_cache_failure);
}

TEST(FaultScenario, ApRebootMidEncounterLegacyStackStrandedOnStaleCache) {
  const RebootRun run = run_reboot_encounter(/*resilient=*/false);
  // Pre-hardening behaviour: the cached lease survives its own refutation,
  // every retry replays the same silent INIT-REBOOT, and the encounter
  // ends with no link.
  EXPECT_EQ(run.links_up, 0u);
  EXPECT_EQ(run.cache_invalidations, 0u);
  EXPECT_TRUE(run.saw_stale_cache_failure);
  EXPECT_GE(run.joins, 3u);  // it kept trying, and kept failing the same way
}

TEST(FaultScenario, GatewayFlapDeclaredDeadThenReacquired) {
  trace::Testbed bed(quiet_air(51));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());
  fault::FaultSchedule schedule;
  schedule.gateway_flap(sec(10), sec(5), 0);
  injector.arm(schedule);

  bed.sim.run_until(sec(10));
  ASSERT_EQ(manager.links_up(), 1u);

  // 30 consecutive 100 ms probes go unanswered: declared dead ~3 s in.
  bed.sim.run_until(sec(14) + msec(500));
  EXPECT_EQ(manager.links_up(), 0u);
  EXPECT_FALSE(ap.network->gateway_up());

  bed.sim.run_until(sec(30));
  EXPECT_TRUE(ap.network->gateway_up());
  EXPECT_EQ(manager.links_up(), 1u);
  EXPECT_GE(manager.joins_attempted(), 2u);
  // Both the original join and the re-acquisition finished end-to-end.
  std::size_t e2e = 0;
  for (const auto& rec : manager.join_log()) {
    e2e += rec.finished && rec.outcome == JoinOutcome::kEndToEnd ? 1 : 0;
  }
  EXPECT_GE(e2e, 2u);
}

TEST(FaultScenario, DhcpStallBlocksJoinsUntilItLifts) {
  trace::Testbed bed(quiet_air(52));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());
  fault::FaultSchedule schedule;
  schedule.dhcp_stall(msec(1), sec(20), 0);
  injector.arm(schedule);

  bed.sim.run_until(sec(15));
  EXPECT_EQ(manager.links_up(), 0u);
  EXPECT_GT(ap.network->dhcp().messages_dropped(), 0u);
  bool saw_assoc_only = false;
  for (const auto& rec : manager.join_log()) {
    saw_assoc_only |= rec.finished && rec.outcome == JoinOutcome::kAssocOnly;
  }
  EXPECT_TRUE(saw_assoc_only);

  bed.sim.run_until(sec(40));
  EXPECT_EQ(manager.links_up(), 1u);
}

TEST(FaultScenario, NakStormFailsJoinsUntilItLifts) {
  trace::Testbed bed(quiet_air(53));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());
  fault::FaultSchedule schedule;
  schedule.dhcp_nak_storm(msec(1), sec(15), 0);
  injector.arm(schedule);

  bed.sim.run_until(sec(10));
  EXPECT_EQ(manager.links_up(), 0u);
  EXPECT_GT(ap.network->dhcp().naks_sent(), 0u);

  bed.sim.run_until(sec(35));
  EXPECT_EQ(manager.links_up(), 1u);
}

TEST(FaultScenario, BeaconSilenceBlindsPassiveScan) {
  trace::Testbed bed(quiet_air(54));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  auto& ap = bed.add_ap(spec);

  core::SpiderConfig cfg = one_iface();
  cfg.scanner.probe_interval = Time{0};  // purely passive scanning
  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, cfg);
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();

  fault::FaultInjector injector(bed.sim, bed.fork_rng());
  injector.add_ap(*ap.ap, ap.network.get());
  fault::FaultSchedule schedule;
  schedule.beacon_silence(msec(1), sec(10), 0);
  injector.arm(schedule);

  bed.sim.run_until(sec(9));
  EXPECT_EQ(manager.joins_attempted(), 0u);  // nothing to hear, nothing tried

  bed.sim.run_until(sec(25));
  EXPECT_GE(manager.joins_attempted(), 1u);
  EXPECT_EQ(manager.links_up(), 1u);
}

// ---------------------------------------------------------------------------
// Watchdog (scripted-driver unit test)
// ---------------------------------------------------------------------------

/// Minimal scriptable DriverBase (same shape as test_linkmanager_unit's):
/// frames are captured and the scan cache is fed directly, so the watchdog
/// can be shown recovering a desynchronised interface in isolation.
class ScriptedDriver final : public core::DriverBase {
 public:
  ScriptedDriver(sim::Simulator& simulator, core::SpiderConfig config)
      : sim_(simulator), config_(std::move(config)),
        scanner_(simulator, config_.scanner) {
    mode_ = core::OperationMode::single(6);
    for (std::size_t i = 0; i < config_.num_interfaces; ++i) {
      vifs_.push_back(std::make_unique<core::VirtualInterface>(
          simulator, *this, i, wire::MacAddress(0xF0 + i), config_));
    }
  }

  sim::Simulator& simulator() override { return sim_; }
  const core::SpiderConfig& config() const override { return config_; }
  const core::OperationMode& mode() const override { return mode_; }
  mac::Scanner& scanner() override { return scanner_; }
  core::VirtualInterface& iface(std::size_t i) override { return *vifs_[i]; }
  std::size_t num_interfaces() const override { return vifs_.size(); }

  bool send_mgmt(wire::Frame frame, wire::Channel channel) override {
    if (channel != 6) return false;
    mgmt_sent.push_back(std::move(frame));
    return true;
  }
  void send_data(core::VirtualInterface&, wire::PacketPtr packet) override {
    data_sent.push_back(std::move(packet));
  }

  void hear_ap(std::uint64_t bssid, double rssi = -50) {
    wire::Frame beacon;
    beacon.type = wire::FrameType::kBeacon;
    beacon.bssid = wire::Bssid(bssid);
    beacon.src = beacon.bssid;
    beacon.channel = 6;
    beacon.rssi_dbm = rssi;
    scanner_.on_frame(beacon);
  }

  void respond(std::size_t vif, wire::FrameType type, std::uint64_t bssid) {
    wire::Frame f;
    f.type = type;
    f.src = wire::Bssid(bssid);
    f.bssid = wire::Bssid(bssid);
    f.dst = vifs_[vif]->mac();
    f.aid = 1;
    vifs_[vif]->on_frame(f);
  }

  std::vector<wire::Frame> mgmt_sent;
  std::vector<wire::PacketPtr> data_sent;

 private:
  sim::Simulator& sim_;
  core::SpiderConfig config_;
  core::OperationMode mode_;
  mac::Scanner scanner_;
  std::vector<std::unique_ptr<core::VirtualInterface>> vifs_;
};

core::SpiderConfig scripted_config(bool resilient) {
  core::SpiderConfig c;
  c.num_interfaces = 1;
  c.dhcp = {.retx_timeout = msec(200), .max_sends = 3};
  c.resilient_link_policy = resilient;
  c.watchdog_interval = sec(1);
  return c;
}

TEST(Watchdog, AbandonsDesyncedDhcpStateMachine) {
  sim::Simulator sim;
  ScriptedDriver driver(sim, scripted_config(/*resilient=*/true));
  core::LinkManager manager(driver, wire::Ipv4(1, 1, 1, 1));
  manager.start();

  driver.hear_ap(0xA1);
  sim.run_until(msec(500));
  driver.respond(0, wire::FrameType::kAuthResponse, 0xA1);
  driver.respond(0, wire::FrameType::kAssocResponse, 0xA1);
  sim.run_until(msec(600));
  ASSERT_EQ(driver.iface(0).link_state(), core::LinkState::kDhcp);

  // Desync: the DHCP client is silently aborted behind LinkManager's back,
  // so no on_bound/on_failed callback will ever fire for this attempt.
  driver.iface(0).dhcp().abort();

  // Keep the AP fresh in the scan cache so the vanished-AP path cannot be
  // the one that cleans up; the watchdog must do it within ~1 s.
  for (int i = 0; i < 8; ++i) {
    driver.hear_ap(0xA1);
    sim.run_until(sim.now() + msec(300));
  }
  EXPECT_GE(manager.watchdog_aborts(), 1u);
  ASSERT_FALSE(manager.join_log().empty());
  EXPECT_TRUE(manager.join_log()[0].finished);
  EXPECT_EQ(manager.join_log()[0].outcome, JoinOutcome::kAssocOnly);
}

TEST(Watchdog, LegacyPolicyLeavesDesyncUntilJoinDeadline) {
  sim::Simulator sim;
  ScriptedDriver driver(sim, scripted_config(/*resilient=*/false));
  core::LinkManager manager(driver, wire::Ipv4(1, 1, 1, 1));
  manager.start();

  driver.hear_ap(0xA1);
  sim.run_until(msec(500));
  driver.respond(0, wire::FrameType::kAuthResponse, 0xA1);
  driver.respond(0, wire::FrameType::kAssocResponse, 0xA1);
  sim.run_until(msec(600));
  ASSERT_EQ(driver.iface(0).link_state(), core::LinkState::kDhcp);
  driver.iface(0).dhcp().abort();

  for (int i = 0; i < 8; ++i) {
    driver.hear_ap(0xA1);
    sim.run_until(sim.now() + msec(300));
  }
  // No watchdog: the interface is still wedged in kDhcp seconds later.
  EXPECT_EQ(manager.watchdog_aborts(), 0u);
  EXPECT_EQ(driver.iface(0).link_state(), core::LinkState::kDhcp);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

trace::ScenarioConfig faulted_scenario() {
  trace::ScenarioConfig cfg;
  cfg.seed = 99;
  cfg.duration = sec(120);
  cfg.deployment.road_length_m = 800;
  cfg.deployment.aps_per_km = 12;
  cfg.spider.mode = core::OperationMode::single(6);
  cfg.spider.dhcp = {.retx_timeout = msec(400), .max_sends = 4};
  cfg.impairments.schedule.ap_blackout(sec(20), sec(5), 0)
      .gateway_flap(sec(40), sec(8), 1)
      .dhcp_stall(sec(60), sec(10), 2)
      .burst_loss(sec(80), sec(10), 6, 0.7)
      .ap_reboot(sec(95), sec(3), 3);
  return cfg;
}

TEST(Determinism, SameSeedSameScheduleReplaysByteIdentically) {
  const auto a = trace::ScenarioRunner().run_one(faulted_scenario());
  const auto b = trace::ScenarioRunner().run_one(faulted_scenario());
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.joins_attempted, b.joins_attempted);
  EXPECT_EQ(a.e2e_succeeded, b.e2e_succeeded);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.outages, b.outages);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.recovery_times.samples(), b.recovery_times.samples());
  EXPECT_GT(a.faults_injected, 0u);
}

TEST(Determinism, FaultFreeScheduleMatchesPreFaultRuns) {
  // An empty schedule must not fork the injector RNG: results are identical
  // to a scenario that never mentions faults at all.
  trace::ScenarioConfig plain = faulted_scenario();
  plain.impairments = {};
  trace::ScenarioConfig with_empty = plain;
  const auto a = trace::ScenarioRunner().run_one(plain);
  const auto b = trace::ScenarioRunner().run_one(with_empty);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.joins_attempted, b.joins_attempted);
  EXPECT_EQ(a.faults_injected, 0u);
}

}  // namespace
}  // namespace spider
