#include <gtest/gtest.h>

#include "mobility/deployment.hpp"
#include "mobility/mobility.hpp"

namespace spider::mob {
namespace {

TEST(BackAndForthRoad, BouncesAtEnds) {
  BackAndForthRoad m(100.0, 10.0);
  EXPECT_DOUBLE_EQ(m.position_at(sec(0)).x, 0.0);
  EXPECT_DOUBLE_EQ(m.position_at(sec(5)).x, 50.0);
  EXPECT_DOUBLE_EQ(m.position_at(sec(10)).x, 100.0);
  EXPECT_DOUBLE_EQ(m.position_at(sec(15)).x, 50.0);  // heading back
  EXPECT_DOUBLE_EQ(m.position_at(sec(20)).x, 0.0);
  EXPECT_DOUBLE_EQ(m.position_at(sec(25)).x, 50.0);  // next lap
}

TEST(BackAndForthRoad, ZeroSpeedParksAtTheStart) {
  // The static rigs of the micro-benchmarks are road runs at speed 0.
  BackAndForthRoad m(2000.0, 0.0);
  EXPECT_EQ(m.position_at(Time{0}), (Position{0, 0}));
  EXPECT_EQ(m.position_at(sec(90)), (Position{0, 0}));
}

TEST(BackAndForthRoad, StaysWithinSegment) {
  BackAndForthRoad m(200.0, 13.7, /*lane_y=*/2.5);
  for (int t = 0; t < 500; t += 7) {
    const auto p = m.position_at(sec(t));
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 200.0);
    EXPECT_DOUBLE_EQ(p.y, 2.5);
  }
}

TEST(WaypointLoop, VisitsWaypointsInOrder) {
  WaypointLoop m({{0, 0}, {100, 0}, {100, 100}, {0, 100}}, 10.0);
  EXPECT_DOUBLE_EQ(m.lap_length(), 400.0);
  EXPECT_EQ(m.position_at(sec(0)), (Position{0, 0}));
  EXPECT_EQ(m.position_at(sec(10)), (Position{100, 0}));
  EXPECT_EQ(m.position_at(sec(20)), (Position{100, 100}));
  EXPECT_EQ(m.position_at(sec(30)), (Position{0, 100}));
  EXPECT_EQ(m.position_at(sec(40)), (Position{0, 0}));  // wrapped
  EXPECT_EQ(m.position_at(sec(45)), (Position{50, 0}));
}

TEST(WaypointLoop, ContinuousMotion) {
  WaypointLoop m({{0, 0}, {100, 0}, {50, 50}}, 7.0);
  Position prev = m.position_at(Time{0});
  for (int ms = 100; ms < 60'000; ms += 100) {
    const Position cur = m.position_at(msec(ms));
    EXPECT_LT(distance(prev, cur), 7.0 * 0.1 + 1e-6);
    prev = cur;
  }
}

TEST(Deployment, GeneratesRequestedDensity) {
  DeploymentConfig cfg;
  cfg.road_length_m = 5000;
  cfg.aps_per_km = 6;
  Rng rng(9);
  const auto sites = generate_deployment(cfg, rng);
  EXPECT_EQ(sites.size(), 30u);
}

TEST(Deployment, SitesWithinBounds) {
  DeploymentConfig cfg;
  Rng rng(10);
  const auto sites = generate_deployment(cfg, rng);
  for (const auto& s : sites) {
    EXPECT_GE(s.position.x, 0.0);
    EXPECT_LE(s.position.x, cfg.road_length_m);
    EXPECT_GE(std::abs(s.position.y), cfg.lateral_min_m);
    EXPECT_LE(std::abs(s.position.y), cfg.lateral_max_m);
    EXPECT_GE(s.backhaul.bps, cfg.backhaul_min.bps);
    EXPECT_LE(s.backhaul.bps, cfg.backhaul_max.bps);
  }
}

TEST(Deployment, ChannelMixMatchesWeights) {
  DeploymentConfig cfg;
  cfg.road_length_m = 100'000;  // lots of APs for stable statistics
  cfg.aps_per_km = 10;
  Rng rng(11);
  const auto sites = generate_deployment(cfg, rng);
  int on_161 = 0, on_6 = 0;
  for (const auto& s : sites) {
    if (s.channel == 1 || s.channel == 6 || s.channel == 11) ++on_161;
    if (s.channel == 6) ++on_6;
  }
  const double frac_orthogonal =
      static_cast<double>(on_161) / static_cast<double>(sites.size());
  // The paper's measured mix: ~95% of APs on 1/6/11 and ~33% on 6.
  EXPECT_NEAR(frac_orthogonal, 0.95, 0.03);
  EXPECT_NEAR(static_cast<double>(on_6) / sites.size(), 0.33, 0.05);
}

TEST(Deployment, DeterministicPerSeed) {
  DeploymentConfig cfg;
  Rng a(42), b(42);
  const auto s1 = generate_deployment(cfg, a);
  const auto s2 = generate_deployment(cfg, b);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].position, s2[i].position);
    EXPECT_EQ(s1[i].channel, s2[i].channel);
  }
}

TEST(Deployment, SampleChannelCoversAllWeights) {
  DeploymentConfig cfg;
  cfg.channel_weights = {{1, 1.0}, {6, 1.0}};
  Rng rng(12);
  bool saw1 = false, saw6 = false;
  for (int i = 0; i < 200; ++i) {
    const auto ch = sample_channel(cfg, rng);
    EXPECT_TRUE(ch == 1 || ch == 6);
    saw1 |= ch == 1;
    saw6 |= ch == 6;
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw6);
}

}  // namespace
}  // namespace spider::mob
