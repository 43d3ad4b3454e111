// Final edge-case sweep across modules: lease-pool reclamation, CBR
// roaming, scenario speed sweeps, and small API corners.

#include <gtest/gtest.h>

#include "analysis/throughput_opt.hpp"
#include "net/dhcp_server.hpp"
#include "trace/experiment.hpp"
#include "trace/runner.hpp"
#include "transport/cbr.hpp"

namespace spider {
namespace {

TEST(DhcpServerEdge, ExpiredLeaseIsReclaimedOnWrap) {
  sim::Simulator sim;
  net::DhcpServerConfig cfg;
  cfg.offer_delay_min = msec(1);
  cfg.offer_delay_median = msec(1);
  cfg.offer_delay_max = msec(2);
  cfg.lease_duration = sec(5);
  cfg.first_host = 10;
  cfg.last_host = 11;  // pool of two
  net::DhcpServer server(sim, wire::Ipv4(10, 0, 0, 0), wire::Ipv4(10, 0, 0, 1),
                         cfg, Rng(4));
  int offers = 0;
  server.set_send([&](wire::PacketPtr, wire::MacAddress) { ++offers; });

  for (int i = 0; i < 2; ++i) {
    wire::DhcpMessage d{.type = wire::DhcpMessage::Type::kDiscover,
                        .xid = static_cast<std::uint32_t>(i),
                        .client_mac = wire::MacAddress(0xC1 + i)};
    server.on_message(d, d.client_mac);
  }
  sim.run_until(sec(1));
  EXPECT_EQ(offers, 2);

  // Pool full: a third client gets nothing...
  wire::DhcpMessage d3{.type = wire::DhcpMessage::Type::kDiscover,
                       .xid = 9, .client_mac = wire::MacAddress(0xC9)};
  server.on_message(d3, d3.client_mac);
  sim.run_until(sec(2));
  EXPECT_EQ(offers, 2);

  // ...until the earlier leases expire and the pool wraps.
  sim.run_until(sec(10));
  server.on_message(d3, d3.client_mac);
  sim.run_until(sec(11));
  EXPECT_EQ(offers, 3);
}

TEST(CbrEdge, ResubscribeKeepsStreamAlive) {
  sim::Simulator sim;
  net::WiredNetwork wired(sim);
  net::Host server(wired, wire::Ipv4(1, 1, 1, 1));
  net::Host client(wired, wire::Ipv4(2, 2, 2, 2));
  tcp::CbrServer cbr(sim, server, tcp::CbrConfig{}, /*subscriber_timeout=*/sec(5));
  server.set_handler([&](const wire::Packet& p) { cbr.on_packet(p); });
  int received = 0;
  client.set_handler([&](const wire::Packet& p) {
    if (p.as<wire::CbrDatagram>()) ++received;
  });

  wire::CbrDatagram sub;
  sub.flow_id = 7;
  sub.subscribe = true;
  sim::PeriodicTimer keepalive(sim, sec(2), [&] {
    client.send(wire::make_cbr_packet(client.ip(), server.ip(), sub));
  });
  client.send(wire::make_cbr_packet(client.ip(), server.ip(), sub));
  keepalive.start();
  sim.run_until(sec(20));
  EXPECT_EQ(cbr.active_flows(), 1u);       // keepalives held it
  EXPECT_NEAR(received, 1000, 60);         // ~50/s for 20 s
}

TEST(OperationModeEdge, AllNonPositiveFractionsYieldEmpty) {
  core::OperationMode m;
  m.fractions = {{1, -1.0}, {6, 0.0}};
  m.normalize();
  EXPECT_TRUE(m.fractions.empty());
  EXPECT_FALSE(m.includes(1));
  EXPECT_DOUBLE_EQ(m.fraction_of(6), 0.0);
}

TEST(Fig4SweepEdge, OnePointPerSpeed) {
  const auto points = model::fig4_sweep(0.5, 0.5, {3.0, 9.0, 27.0});
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].speed_mps, points[i - 1].speed_mps);
  }
}

class ScenarioSpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScenarioSpeedSweep, TransfersAtEverySpeed) {
  trace::ScenarioConfig cfg;
  cfg.seed = 71;
  cfg.duration = sec(180);
  cfg.speed_mps = GetParam();
  cfg.deployment.road_length_m = 1500;
  cfg.deployment.aps_per_km = 14;
  cfg.spider.mode = core::OperationMode::single(6);
  cfg.spider.dhcp = {.retx_timeout = msec(400), .max_sends = 4};
  const auto result = trace::ScenarioRunner().run_one(cfg);
  EXPECT_GT(result.total_bytes, 0u) << "speed " << GetParam();
  EXPECT_GT(result.e2e_succeeded, 0u);
  // Faster cars attempt joins at least as often per unit time (shorter
  // encounters), and the stack never wedges.
  EXPECT_GT(result.joins_attempted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Speeds, ScenarioSpeedSweep,
                         ::testing::Values(2.5, 5.0, 10.0, 15.0, 20.0, 30.0),
                         [](const auto& info) {
                           return "mps" + std::to_string(
                                              static_cast<int>(info.param * 10));
                         });

TEST(ScenarioEdge, ZeroDensityTownIsSilentButClean) {
  trace::ScenarioConfig cfg;
  cfg.seed = 72;
  cfg.duration = sec(60);
  cfg.deployment.aps_per_km = 0.0;
  const auto result = trace::ScenarioRunner().run_one(cfg);
  EXPECT_EQ(result.total_bytes, 0u);
  EXPECT_EQ(result.joins_attempted, 0u);
  EXPECT_DOUBLE_EQ(result.connectivity, 0.0);
  // One full-length disruption covers the run (queries are const now, so
  // the shared result needs no cast or clone).
  ASSERT_EQ(result.disruption_durations.size(), 1u);
  EXPECT_DOUBLE_EQ(result.disruption_durations.quantile(0.5), 60.0);
}

TEST(ScenarioEdge, AveragedRunsShareNoState) {
  // An averaged run must produce the same pooled result every time (no
  // hidden globals beyond the deterministic conn-id counter).
  trace::ScenarioConfig cfg;
  cfg.seed = 73;
  cfg.duration = sec(90);
  cfg.deployment.road_length_m = 1200;
  cfg.spider.mode = core::OperationMode::single(6);
  const trace::ScenarioRunner runner;
  const auto a = runner.run_many_averaged({cfg}, 2).front();
  const auto b = runner.run_many_averaged({cfg}, 2).front();
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.joins_attempted, b.joins_attempted);
}

}  // namespace
}  // namespace spider
