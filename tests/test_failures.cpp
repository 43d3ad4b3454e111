// Failure-injection tests: broken infrastructure the stack must survive —
// captive portals, exhausted DHCP pools, full APs, vanishing coverage.

#include <gtest/gtest.h>

#include "core/link_manager.hpp"
#include "core/spider_driver.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "trace/testbed.hpp"

namespace spider {
namespace {

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
  return c;
}

TEST(Failure, CaptivePortalDetectedByE2eTest) {
  trace::Testbed bed(quiet_air(31));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.internet_connected = false;  // the captive portal
  bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(20));

  // Association and DHCP succeed — only the connectivity test catches it.
  EXPECT_EQ(manager.links_up(), 0u);
  ASSERT_FALSE(manager.join_log().empty());
  const auto& rec = manager.join_log().front();
  EXPECT_TRUE(rec.assoc_delay.has_value());
  EXPECT_TRUE(rec.dhcp_delay.has_value());
  EXPECT_FALSE(rec.e2e_delay.has_value());
  EXPECT_EQ(rec.outcome, core::JoinOutcome::kDhcpBound);
  // The failure degrades the AP's utility below the bootstrap value.
  EXPECT_LT(manager.selector().utility(rec.bssid), 1.0);
}

TEST(Failure, CaptivePortalGatewayStillPings) {
  // With a null ping target the prober falls back to the gateway, which a
  // captive portal does answer — the link then *looks* up. This is why
  // end-to-end probing is the default.
  trace::Testbed bed(quiet_air(32));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.internet_connected = false;
  bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, wire::Ipv4());  // gateway probing
  driver.start();
  manager.start();
  bed.sim.run_until(sec(20));
  EXPECT_EQ(manager.links_up(), 1u);  // fooled, as a gateway-pinging stack is
  ASSERT_FALSE(manager.join_log().empty());
  const auto& rec = manager.join_log().front();
  EXPECT_TRUE(rec.finished);
  EXPECT_EQ(rec.outcome, core::JoinOutcome::kEndToEnd);  // believes its probe
}

TEST(Failure, DhcpPoolExhaustionFailsJoin) {
  trace::Testbed bed(quiet_air(33));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.dhcp.first_host = 10;
  spec.dhcp.last_host = 10;  // one address
  auto& ap = bed.add_ap(spec);

  // Fill the single slot with a competing client.
  core::SpiderDriver first(bed.sim, bed.medium, bed.next_client_mac_block(),
                           [] { return Position{0, 5}; }, one_iface());
  core::LinkManager first_mgr(first, bed.server_ip());
  first.start();
  first_mgr.start();
  bed.sim.run_until(sec(10));
  ASSERT_EQ(first_mgr.links_up(), 1u);
  ASSERT_FALSE(first_mgr.join_log().empty());
  EXPECT_EQ(first_mgr.join_log().front().outcome, core::JoinOutcome::kEndToEnd);

  core::SpiderDriver second(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, -5}; }, one_iface());
  core::LinkManager second_mgr(second, bed.server_ip());
  second.start();
  second_mgr.start();
  bed.sim.run_until(sec(30));
  EXPECT_EQ(second_mgr.links_up(), 0u);
  bool saw_dhcp_failure = false;
  for (const auto& rec : second_mgr.join_log()) {
    saw_dhcp_failure |= rec.finished &&
                        rec.outcome == core::JoinOutcome::kAssocOnly;
    EXPECT_NE(rec.outcome, core::JoinOutcome::kEndToEnd);  // never got online
  }
  EXPECT_TRUE(saw_dhcp_failure);
  EXPECT_EQ(ap.network->dhcp().leases_outstanding(), 1u);
}

TEST(Failure, FullApDeniesAndSpiderMovesOn) {
  trace::Testbed bed(quiet_air(34));
  trace::Testbed::ApSpec full;
  full.channel = 6;
  full.position = {20, 0};
  full.dhcp = quick_dhcp();
  full.mac.max_clients = 1;
  auto& ap_full = bed.add_ap(full);

  trace::Testbed::ApSpec open = full;
  open.position = {-20, 0};
  open.mac.max_clients = 32;
  bed.add_ap(open);

  // Occupy the small AP.
  core::SpiderDriver squatter(bed.sim, bed.medium, bed.next_client_mac_block(),
                              [] { return Position{15, 5}; }, one_iface());
  core::LinkManager squatter_mgr(squatter, bed.server_ip());
  squatter.start();
  squatter_mgr.start();
  bed.sim.run_until(sec(10));
  ASSERT_EQ(squatter_mgr.links_up(), 1u);
  ASSERT_EQ(squatter_mgr.join_log().front().bssid, ap_full.ap->bssid());
  EXPECT_EQ(squatter_mgr.join_log().front().outcome,
            core::JoinOutcome::kEndToEnd);

  // The newcomer gets denied there but lands on the other AP.
  core::SpiderConfig cfg = one_iface();
  cfg.num_interfaces = 2;
  core::SpiderDriver newcomer(bed.sim, bed.medium, bed.next_client_mac_block(),
                              [] { return Position{0, 0}; }, cfg);
  core::LinkManager newcomer_mgr(newcomer, bed.server_ip());
  newcomer.start();
  newcomer_mgr.start();
  bed.sim.run_until(sec(40));
  EXPECT_GE(newcomer_mgr.links_up(), 1u);
  EXPECT_GE(ap_full.ap->assoc_denials(), 1u);
  bool newcomer_online = false;
  for (const auto& rec : newcomer_mgr.join_log()) {
    newcomer_online |= rec.outcome == core::JoinOutcome::kEndToEnd;
  }
  EXPECT_TRUE(newcomer_online);
}

TEST(Failure, AllDeadTownTransfersNothing) {
  trace::ScenarioConfig cfg;
  cfg.seed = 35;
  cfg.duration = sec(180);
  cfg.deployment.road_length_m = 1200;
  cfg.deployment.aps_per_km = 10;
  cfg.deployment.dead_backhaul_fraction = 1.0;
  cfg.spider.mode = core::OperationMode::single(6);
  cfg.spider.dhcp = {.retx_timeout = msec(400), .max_sends = 4};
  const auto result = trace::ScenarioRunner().run_one(cfg);
  EXPECT_EQ(result.total_bytes, 0u);
  EXPECT_EQ(result.e2e_succeeded, 0u);
  EXPECT_GT(result.dhcp_succeeded, 0u);  // portals do hand out leases
}

TEST(Failure, HalfDeadTownStillTransfers) {
  trace::ScenarioConfig cfg;
  cfg.seed = 36;
  cfg.duration = sec(240);
  cfg.deployment.road_length_m = 1200;
  cfg.deployment.aps_per_km = 12;
  cfg.deployment.dead_backhaul_fraction = 0.5;
  cfg.spider.mode = core::OperationMode::single(6);
  cfg.spider.dhcp = {.retx_timeout = msec(400), .max_sends = 4};
  const auto result = trace::ScenarioRunner().run_one(cfg);
  EXPECT_GT(result.total_bytes, 0u);
  EXPECT_GT(result.e2e_succeeded, 0u);
  EXPECT_LT(result.e2e_succeeded, result.dhcp_succeeded);
}

TEST(Failure, LeaseRenewalKeepsLongLinkAlive) {
  trace::Testbed bed(quiet_air(37));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.dhcp.lease_duration = sec(30);  // short lease: forces renewals
  auto& ap = bed.add_ap(spec);

  core::SpiderDriver driver(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, 0}; }, one_iface());
  core::LinkManager manager(driver, bed.server_ip());
  driver.start();
  manager.start();
  bed.sim.run_until(sec(10));
  ASSERT_EQ(manager.links_up(), 1u);
  const auto acks_before = ap.network->dhcp().acks_sent();

  // Three lease lifetimes later the link is still up, renewed in place.
  bed.sim.run_until(sec(100));
  EXPECT_EQ(manager.links_up(), 1u);
  EXPECT_GT(ap.network->dhcp().acks_sent(), acks_before + 1);
  EXPECT_EQ(manager.joins_attempted(), 1u);  // no re-join happened
  ASSERT_FALSE(manager.join_log().empty());
  EXPECT_TRUE(manager.join_log().front().finished);
  EXPECT_EQ(manager.join_log().front().outcome, core::JoinOutcome::kEndToEnd);
}

TEST(Failure, ReleasedAddressIsReusable) {
  trace::Testbed bed(quiet_air(38));
  trace::Testbed::ApSpec spec;
  spec.channel = 6;
  spec.position = {20, 0};
  spec.dhcp = quick_dhcp();
  spec.dhcp.first_host = 10;
  spec.dhcp.last_host = 10;
  auto& ap = bed.add_ap(spec);

  // A captive-portal-free AP, but we make the first client's join fail at
  // the e2e stage by pointing it at an unroutable ping target — its
  // teardown must RELEASE the single address for the second client.
  core::SpiderDriver first(bed.sim, bed.medium, bed.next_client_mac_block(),
                           [] { return Position{0, 5}; }, one_iface());
  core::LinkManager first_mgr(first, wire::Ipv4(9, 9, 9, 9));
  first.start();
  first_mgr.start();
  bed.sim.run_until(sec(10));
  ASSERT_EQ(first_mgr.links_up(), 0u);
  EXPECT_GE(ap.network->dhcp().releases_received(), 1u);
  EXPECT_EQ(ap.network->dhcp().leases_outstanding(), 0u);
  ASSERT_FALSE(first_mgr.join_log().empty());
  EXPECT_EQ(first_mgr.join_log().front().outcome,
            core::JoinOutcome::kDhcpBound);  // bound, then e2e test failed

  core::SpiderDriver second(bed.sim, bed.medium, bed.next_client_mac_block(),
                            [] { return Position{0, -5}; }, one_iface());
  core::LinkManager second_mgr(second, bed.server_ip());
  second.start();
  second_mgr.start();
  bed.sim.run_until(sec(30));
  EXPECT_EQ(second_mgr.links_up(), 1u);
  bool second_online = false;
  for (const auto& rec : second_mgr.join_log()) {
    second_online |= rec.outcome == core::JoinOutcome::kEndToEnd;
  }
  EXPECT_TRUE(second_online);
}

}  // namespace
}  // namespace spider
