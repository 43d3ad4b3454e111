// Coverage for mobility/deployment_io (CSV persistence of AP sites) and
// the city-grid deployment generator that feeds bench/ext_citywide.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "mobility/deployment.hpp"
#include "mobility/deployment_io.hpp"
#include "mobility/mobility.hpp"
#include "util/random.hpp"

namespace spider::mob {
namespace {

std::vector<ApSite> sample_sites() {
  Rng rng(99);
  DeploymentConfig config;
  config.road_length_m = 3000.0;
  config.aps_per_km = 12.0;
  config.dead_backhaul_fraction = 0.2;
  return generate_deployment(config, rng);
}

std::string to_csv(const std::vector<ApSite>& sites) {
  std::ostringstream os;
  write_sites_csv(os, sites);
  return os.str();
}

// --- round trips ------------------------------------------------------

TEST(DeploymentIo, WriteReadWriteIsByteIdentical) {
  const auto sites = sample_sites();
  ASSERT_FALSE(sites.empty());
  const std::string first = to_csv(sites);
  std::istringstream in(first);
  const auto reread = read_sites_csv(in);
  ASSERT_EQ(reread.size(), sites.size());
  // Byte-identity of the re-serialisation is the real invariant: the
  // writer's max_digits10 precision must survive a parse cycle exactly.
  EXPECT_EQ(to_csv(reread), first);
}

TEST(DeploymentIo, FileRoundTripPreservesEveryField) {
  const auto sites = sample_sites();
  const std::string path = testing::TempDir() + "deployment_io_roundtrip.csv";
  ASSERT_TRUE(write_sites_csv(path, sites));
  const auto reread = read_sites_csv_file(path);
  ASSERT_EQ(reread.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(reread[i].position.x, sites[i].position.x) << i;
    EXPECT_EQ(reread[i].position.y, sites[i].position.y) << i;
    EXPECT_EQ(reread[i].channel, sites[i].channel) << i;
    EXPECT_EQ(reread[i].backhaul.bps, sites[i].backhaul.bps) << i;
    EXPECT_EQ(reread[i].internet_connected, sites[i].internet_connected) << i;
  }
  std::remove(path.c_str());
}

TEST(DeploymentIo, HeaderIsOptionalOnRead) {
  std::istringstream with_header(
      "x,y,channel,backhaul_bps,connected\n10,-5,6,1500000,1\n");
  std::istringstream without_header("10,-5,6,1500000,1\n");
  const auto a = read_sites_csv(with_header);
  const auto b = read_sites_csv(without_header);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].position.x, b[0].position.x);
  EXPECT_EQ(a[0].channel, 6);
  EXPECT_TRUE(a[0].internet_connected);
}

TEST(DeploymentIo, SkipsEmptyLines) {
  std::istringstream in("10,0,1,1000000,1\n\n20,0,6,2000000,0\n\n");
  const auto sites = read_sites_csv(in);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[1].channel, 6);
  EXPECT_FALSE(sites[1].internet_connected);
}

// --- malformed input --------------------------------------------------

TEST(DeploymentIo, RejectsWrongColumnCountWithLineNumber) {
  std::istringstream in("10,0,6,1000000,1\n20,0,6\n");
  try {
    read_sites_csv(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(DeploymentIo, RejectsNonNumericValueWithLineNumber) {
  std::istringstream in("10,0,6,1000000,1\nten,0,6,1000000,1\n");
  try {
    read_sites_csv(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(DeploymentIo, RejectsOffBandChannelWithLineNumber) {
  std::istringstream in("x,y,channel,backhaul_bps,connected\n"
                        "10,0,6,1000000,1\n20,0,36,1000000,1\n");
  try {
    read_sites_csv(in);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "deployment csv line 3: channel 36 is outside 1..14");
  }
}

TEST(DeploymentIo, MissingFileThrows) {
  EXPECT_THROW(read_sites_csv_file("/nonexistent/deployment.csv"),
               std::runtime_error);
}

TEST(DeploymentIo, UnwritablePathReturnsFalse) {
  EXPECT_FALSE(write_sites_csv("/nonexistent/dir/deployment.csv", {}));
}

// --- city generator ---------------------------------------------------

TEST(CityDeployment, GeneratesDensityOnTheStreetMesh) {
  Rng rng(7);
  CityGridConfig config;  // 2x2 km, 250 m blocks, 50 APs/km^2
  const auto sites = generate_city_deployment(config, rng);
  EXPECT_EQ(sites.size(), 200u);  // 4 km^2 * 50/km^2

  std::set<wire::Channel> channels;
  for (const auto& site : sites) {
    EXPECT_GE(site.position.x, 0.0);
    EXPECT_LE(site.position.x, config.width_m);
    EXPECT_GE(site.position.y, 0.0);
    EXPECT_LE(site.position.y, config.height_m);
    channels.insert(site.channel);
    // Every site hugs some street line: its lateral offset from the nearest
    // mesh line on at least one axis is within [lateral_min, lateral_max]
    // (or clamped onto a boundary street).
    const auto offset_from_mesh = [&](double v) {
      const double rem = std::fmod(v, config.block_m);
      return std::min(rem, config.block_m - rem);
    };
    const double off =
        std::min(offset_from_mesh(site.position.x),
                 offset_from_mesh(site.position.y));
    EXPECT_LE(off, config.lateral_max_m) << "site far from every street";
  }
  // The paper's mix puts nearly everything on 1/6/11.
  EXPECT_TRUE(channels.count(1) && channels.count(6) && channels.count(11));
}

TEST(CityDeployment, CitySitesSurviveCsvRoundTrip) {
  Rng rng(13);
  CityGridConfig config;
  config.aps_per_km2 = 20.0;
  const auto sites = generate_city_deployment(config, rng);
  const std::string csv = to_csv(sites);
  std::istringstream in(csv);
  EXPECT_EQ(to_csv(read_sites_csv(in)), csv);
}

TEST(CityDeployment, RouteWaypointsFormARectangleOnTheMesh) {
  Rng rng(21);
  CityGridConfig config;
  const auto points = city_route_waypoints(config, rng);
  ASSERT_EQ(points.size(), 4u);
  // Opposite corners share street lines: a rectangle in loop order.
  EXPECT_EQ(points[0].x, points[3].x);
  EXPECT_EQ(points[1].x, points[2].x);
  EXPECT_EQ(points[0].y, points[1].y);
  EXPECT_EQ(points[2].y, points[3].y);
  EXPECT_LT(points[0].x, points[1].x);
  EXPECT_LT(points[0].y, points[3].y);
  for (const Position& p : points) {
    EXPECT_EQ(std::fmod(p.x, config.block_m), 0.0);
    EXPECT_EQ(std::fmod(p.y, config.block_m), 0.0);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, config.width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, config.height_m);
  }
  // And the loop is drivable: a WaypointLoop built from it has a positive
  // lap and returns to the start.
  WaypointLoop loop(points, 10.0);
  EXPECT_GT(loop.lap_length(), 0.0);
  const Position at_start = loop.position_at(Time{0});
  EXPECT_EQ(at_start.x, points[0].x);
  EXPECT_EQ(at_start.y, points[0].y);
}

TEST(CityDeployment, OversizedBlockIsRejected) {
  Rng rng(1);
  CityGridConfig config;
  config.block_m = 5000.0;  // one street per axis: no loop possible
  EXPECT_THROW(city_route_waypoints(config, rng), std::invalid_argument);
  config.block_m = 0.0;
  EXPECT_THROW(generate_city_deployment(config, rng), std::invalid_argument);
}

}  // namespace
}  // namespace spider::mob
