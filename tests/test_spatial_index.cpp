// Differential tests for the medium's spatial grid index (DESIGN.md §10).
//
// The grid is a pure search-space optimisation: for any deployment, traffic
// pattern, and seed, a grid-indexed medium must produce the byte-identical
// delivered-frame sequence — same receivers, same timestamps, same ARQ
// outcomes — as the brute-force per-channel scan, because candidate visit
// order (and therefore RNG draw order) is preserved. The brute-force path
// is the oracle; these tests replay randomized worlds through both and
// diff everything observable.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mobility/deployment.hpp"
#include "mobility/mobility.hpp"
#include "phy/medium.hpp"
#include "phy/propagation.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"

namespace spider::phy {

/// Test-only backdoor: corrupts private medium state to pin the checked
/// fatal-error paths (a release build used to ride an `assert` straight
/// into UB) and the empty-candidate-set counter guard, and reads the
/// motion-bound horizon.
struct MediumTestPeer {
  static void corrupt_recorded_cell(Medium& m, Radio& r) {
    auto& s = m.slots_[r.medium_slot_];
    s.cell = Medium::pack_cell(30000, 30000);
    s.qx0 = 1.0;  // empty stay box: force the rebucket path
    s.qx1 = 0.0;
  }
  static Time safe_until(const Medium& m, const Radio& r) {
    return m.slots_[r.medium_slot_].safe_until;
  }
  static void drop_from_cohort(Medium& m, Radio& r) {
    m.cohort_remove(r.channel(), r.medium_slot_);
  }
};

namespace {

constexpr wire::Channel kChannels[3] = {1, 6, 11};

PropagationConfig lossless_config(double range = 100.0) {
  PropagationConfig c;
  c.base_loss = 0.0;
  c.good_radius_m = range;  // no gray zone: in range means delivered
  c.range_m = range;
  return c;
}

MediumConfig indexed(NeighborIndex mode) {
  MediumConfig mc;
  mc.neighbor_index = mode;
  return mc;
}

wire::Frame broadcast_frame(std::size_t bytes = 100) {
  wire::Frame f;
  f.type = wire::FrameType::kBeacon;
  f.dst = wire::MacAddress::broadcast();
  f.size_bytes = bytes;
  return f;
}

/// Everything observable from one world run. `log` is the delivered-frame
/// sequence: receiver, sender, size, and delivery timestamp in microseconds,
/// in upcall order — byte-equality means the simulations were identical.
struct WorldResult {
  std::string log;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_at_rx = 0;
  std::uint64_t fanout = 0;
  std::uint64_t candidates = 0;
  std::uint64_t rebuckets = 0;
  std::uint64_t cells_scanned = 0;
};

/// Copies the medium's delivery and search counters into `out`.
void record_counters(const Medium& medium, WorldResult& out) {
  out.sent = medium.frames_sent();
  out.delivered = medium.frames_delivered();
  out.dropped_at_rx = medium.frames_dropped_at_rx();
  out.fanout = medium.fanout_scheduled();
  out.candidates = medium.candidates_examined();
  out.rebuckets = medium.grid_rebuckets();
  out.cells_scanned = medium.grid_cells_scanned();
}

/// One randomized deployment driven by `seed`, executed under the given
/// neighbor index. Every stochastic choice — world shape, radio placement,
/// mobility, channels, the event script, and the medium's loss draws — is a
/// pure function of (seed, script), so two calls with different `mode`
/// simulate the same world through different search structures.
///
/// `declare_speed` declares each mobile's exact speed as
/// RadioConfig::max_speed_mps, so the medium's motion-bound rebucket
/// amortisation engages. Off by default: the same world then runs with
/// per-timestamp re-sampling, giving a differential baseline for the
/// amortised path.
WorldResult run_world(NeighborIndex mode, std::uint64_t seed,
                      bool declare_speed = false) {
  Rng setup(seed);
  const int n = static_cast<int>(setup.uniform_int(2, 40));
  const double side = setup.uniform(100.0, 600.0);
  PropagationConfig pc;
  pc.range_m = setup.uniform(30.0, 150.0);
  pc.good_radius_m = pc.range_m * setup.uniform(0.5, 1.0);
  pc.base_loss = setup.uniform(0.0, 0.3);
  const double mobile_fraction = setup.uniform(0.0, 1.0);

  sim::Simulator sim;
  Medium medium(sim, Propagation(pc), Rng(seed * 31 + 7), indexed(mode));

  WorldResult out;
  std::vector<std::unique_ptr<Radio>> radios;
  radios.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const Position start{setup.uniform(0.0, side), setup.uniform(0.0, side)};
    const bool mobile = setup.chance(mobile_fraction);
    const double vx = mobile ? setup.uniform(-25.0, 25.0) : 0.0;
    const double vy = mobile ? setup.uniform(-25.0, 25.0) : 0.0;
    RadioConfig rc;
    rc.mobile = mobile;
    if (declare_speed) {
      rc.max_speed_mps = std::sqrt(vx * vx + vy * vy);
    }
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [start, vx, vy, &sim] {
          const double t = to_seconds(sim.now());
          return Position{start.x + vx * t, start.y + vy * t};
        },
        rc));
    radios.back()->set_receiver([&out, i, &sim](const wire::Frame& f) {
      out.log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
                 ":" + std::to_string(f.src.raw()) + ":" +
                 std::to_string(f.size_bytes) + ";";
    });
    radios.back()->tune(kChannels[setup.uniform_int(0, 2)]);
  }

  // Scripted traffic: sends (broadcast and unicast, exercising ARQ),
  // mid-run retunes, and mid-run detaches (radio destruction with frames
  // potentially in flight). All draws happen here, before the clock runs,
  // so the script is identical across modes.
  constexpr int kEvents = 150;
  for (int e = 0; e < kEvents; ++e) {
    const Time at = usec(setup.uniform_int(10'000, 3'000'000));
    const int kind = static_cast<int>(setup.uniform_int(0, 99));
    const auto idx = static_cast<std::size_t>(setup.uniform_int(0, n - 1));
    if (kind < 70) {
      wire::Frame f;
      f.type = wire::FrameType::kData;
      f.src = wire::MacAddress(idx + 1);
      const auto dst = static_cast<std::uint64_t>(setup.uniform_int(1, n));
      f.dst = setup.chance(0.5) ? wire::MacAddress::broadcast()
                                : wire::MacAddress(dst);
      f.size_bytes = static_cast<std::size_t>(setup.uniform_int(60, 1500));
      sim.post(at, [&radios, idx, f] {
        if (radios[idx]) radios[idx]->send(f);
      });
    } else if (kind < 90) {
      const wire::Channel ch = kChannels[setup.uniform_int(0, 2)];
      sim.post(at, [&radios, idx, ch] {
        if (radios[idx]) radios[idx]->tune(ch);
      });
    } else {
      sim.post(at, [&radios, idx] { radios[idx].reset(); });
    }
  }
  sim.run_until(sec(4));

  record_counters(medium, out);
  return out;
}

TEST(SpatialIndexDifferential, GridMatchesBruteForceAcross200Deployments) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult grid = run_world(NeighborIndex::kGrid, seed);
    const WorldResult brute = run_world(NeighborIndex::kBruteForce, seed);
    ASSERT_EQ(grid.log, brute.log) << "delivered-frame sequence diverged at "
                                   << "seed " << seed;
    ASSERT_EQ(grid.sent, brute.sent) << "seed " << seed;
    ASSERT_EQ(grid.delivered, brute.delivered) << "seed " << seed;
    ASSERT_EQ(grid.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(grid.fanout, brute.fanout) << "seed " << seed;
    // The search counters are mode-specific by design: the grid may only
    // ever examine a subset of the brute-force cohort.
    ASSERT_LE(grid.candidates, brute.candidates) << "seed " << seed;
    ASSERT_EQ(brute.rebuckets, 0u) << "seed " << seed;
  }
}

// A declared motion bound (RadioConfig::max_speed_mps) lets the mobile
// sweep skip radios that provably cannot have left their cell, and the
// transmit loop re-sample skipped candidates lazily. That amortisation
// must be invisible: the delivered log and *every* counter — including
// rebuckets and cells scanned, which depend on when positions are sampled
// — must match the per-timestamp re-sampling run and brute force exactly.
TEST(SpatialIndexDifferential, DeclaredSpeedBoundIsPureWallClockChange) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const WorldResult fast =
        run_world(NeighborIndex::kGrid, seed, /*declare_speed=*/true);
    const WorldResult plain = run_world(NeighborIndex::kGrid, seed);
    const WorldResult brute = run_world(NeighborIndex::kBruteForce, seed);
    ASSERT_EQ(fast.log, plain.log) << "seed " << seed;
    ASSERT_EQ(fast.log, brute.log) << "seed " << seed;
    ASSERT_EQ(fast.sent, plain.sent) << "seed " << seed;
    ASSERT_EQ(fast.delivered, plain.delivered) << "seed " << seed;
    ASSERT_EQ(fast.dropped_at_rx, plain.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(fast.fanout, plain.fanout) << "seed " << seed;
    ASSERT_EQ(fast.candidates, plain.candidates) << "seed " << seed;
    ASSERT_EQ(fast.cells_scanned, plain.cells_scanned) << "seed " << seed;
    ASSERT_EQ(fast.rebuckets, plain.rebuckets) << "seed " << seed;
  }
}

/// A street-mesh world: static APs beside the streets of a 1 km square mesh
/// of 250 m blocks (mob::generate_city_deployment) and vehicles touring
/// rectangular block loops on it, each declaring its exact speed — plus
/// two vehicles pinned to grid edges, one driving back and forth along
/// x = 3 * grid_cell_edge_m() and one along the town road y = 0, so the bucket
/// hysteresis is exercised on exactly the routes it exists for. Every
/// stochastic choice is drawn from `seed` before the clock runs, so both
/// index modes simulate the same world.
WorldResult run_street_world(NeighborIndex mode, std::uint64_t seed) {
  Rng setup(seed);
  PropagationConfig pc;
  pc.range_m = 100.0;
  pc.good_radius_m = 60.0;
  pc.base_loss = 0.1;
  sim::Simulator sim;
  Medium medium(sim, Propagation(pc), Rng(seed * 17 + 3), indexed(mode));
  const double cell = medium.grid_cell_edge_m();

  mob::CityGridConfig city;
  city.width_m = 1000.0;
  city.height_m = 1000.0;
  city.aps_per_km2 = 40.0;
  city.channel_weights = {{1, 0.5}, {6, 0.5}};
  const std::vector<mob::ApSite> sites =
      mob::generate_city_deployment(city, setup);
  std::vector<mob::WaypointLoop> routes;
  for (int v = 0; v < 6; ++v) {
    routes.emplace_back(mob::city_route_waypoints(city, setup),
                        setup.uniform(5.0, 25.0));
  }
  routes.emplace_back(
      std::vector<Position>{{3.0 * cell, 0.0}, {3.0 * cell, city.height_m}},
      15.0);
  routes.emplace_back(
      std::vector<Position>{{0.0, 0.0}, {city.width_m, 0.0}}, 20.0);

  WorldResult out;
  std::vector<std::unique_ptr<Radio>> radios;
  const auto add_radio = [&](RadioConfig rc, std::function<Position()> where,
                             wire::Channel channel) {
    const int i = static_cast<int>(radios.size());
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        std::move(where), rc));
    radios.back()->set_receiver([&out, i, &sim](const wire::Frame& f) {
      out.log += std::to_string(sim.now().count()) + ":" + std::to_string(i) +
                 ":" + std::to_string(f.src.raw()) + ":" +
                 std::to_string(f.size_bytes) + ";";
    });
    radios.back()->tune(channel);
  };
  RadioConfig ap;
  ap.mobile = false;
  for (const mob::ApSite& site : sites) {
    const Position p = site.position;
    add_radio(ap, [p] { return p; }, site.channel);
  }
  const std::size_t n_aps = radios.size();
  for (const mob::WaypointLoop& route : routes) {
    RadioConfig car;
    car.max_speed_mps = route.speed_mps();
    add_radio(car, [&route, &sim] { return route.position_at(sim.now()); },
              setup.chance(0.5) ? 1 : 6);
  }
  const std::size_t n = radios.size();

  // Scripted traffic: AP beacons, vehicle broadcasts and unicasts to APs
  // (exercising ARQ), and vehicle retunes between the two channels.
  constexpr int kEvents = 2500;
  for (int e = 0; e < kEvents; ++e) {
    const Time at = usec(setup.uniform_int(10'000, 30'000'000));
    const int kind = static_cast<int>(setup.uniform_int(0, 99));
    if (kind < 40) {
      const auto idx = static_cast<std::size_t>(
          setup.uniform_int(0, static_cast<std::int64_t>(n_aps) - 1));
      wire::Frame f = broadcast_frame(120);
      f.src = wire::MacAddress(idx + 1);
      sim.post(at, [&radios, idx, f] { radios[idx]->send(f); });
      continue;
    }
    const auto idx = static_cast<std::size_t>(setup.uniform_int(
        static_cast<std::int64_t>(n_aps), static_cast<std::int64_t>(n) - 1));
    if (kind < 90) {
      wire::Frame f;
      f.type = wire::FrameType::kData;
      f.src = wire::MacAddress(idx + 1);
      const auto dst = static_cast<std::uint64_t>(
          setup.uniform_int(1, static_cast<std::int64_t>(n_aps)));
      f.dst = setup.chance(0.3) ? wire::MacAddress::broadcast()
                                : wire::MacAddress(dst);
      f.size_bytes = static_cast<std::size_t>(setup.uniform_int(60, 1500));
      sim.post(at, [&radios, idx, f] { radios[idx]->send(f); });
    } else {
      const wire::Channel ch = setup.chance(0.5) ? 1 : 6;
      sim.post(at, [&radios, idx, ch] { radios[idx]->tune(ch); });
    }
  }
  sim.run_until(sec(31));

  record_counters(medium, out);
  return out;
}

// Vehicles on a street mesh — two of them driving exactly along grid cell
// edges, where a mobile hovers on the boundary of its bucket — must see
// the brute-force delivery log byte for byte: the hysteresis only ever
// widens the candidate set by out-of-range radios, which draw nothing.
TEST(SpatialIndexDifferential, StreetMeshAndEdgeRoutesMatchBruteForce) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const WorldResult grid = run_street_world(NeighborIndex::kGrid, seed);
    const WorldResult brute =
        run_street_world(NeighborIndex::kBruteForce, seed);
    ASSERT_FALSE(grid.log.empty()) << "seed " << seed;
    ASSERT_EQ(grid.log, brute.log) << "seed " << seed;
    ASSERT_EQ(grid.sent, brute.sent) << "seed " << seed;
    ASSERT_EQ(grid.delivered, brute.delivered) << "seed " << seed;
    ASSERT_EQ(grid.dropped_at_rx, brute.dropped_at_rx) << "seed " << seed;
    ASSERT_EQ(grid.fanout, brute.fanout) << "seed " << seed;
    ASSERT_LE(grid.candidates, brute.candidates) << "seed " << seed;
    ASSERT_GT(grid.rebuckets, 0u) << "seed " << seed;
  }
}

// --- checked fatal errors --------------------------------------------
// grid_remove and refresh_mobile_buckets used to guard missing-cell
// lookups with `assert` only — release builds (-DNDEBUG) rode straight
// into UB on the end() iterator. They are now checked fatal errors in
// every build; pin the abort and its message.

using SpatialIndexDeathTest = ::testing::Test;

TEST(SpatialIndexDeathTest, GridRemoveWithCorruptCellAbortsCleanly) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                      indexed(NeighborIndex::kGrid));
        auto radio = std::make_unique<Radio>(
            medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
        radio->tune(6);
        MediumTestPeer::corrupt_recorded_cell(medium, *radio);
        radio.reset();  // detach -> grid_remove on a cell that is not there
      },
      "grid invariant violated");
}

TEST(SpatialIndexDeathTest, MobileRefreshWithCorruptCellAbortsCleanly) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                      indexed(NeighborIndex::kGrid));
        Radio mobile(medium, wire::MacAddress(1), [&sim] {
          return Position{95.0 + 50.0 * to_seconds(sim.now()), 0.0};
        });
        mobile.tune(6);
        MediumTestPeer::corrupt_recorded_cell(medium, mobile);
        // The transmit-side sweep finds the mobile's recorded cell missing.
        sim.run_until(msec(10));
        mobile.send(broadcast_frame());
      },
      "grid invariant violated");
}

// The medium's per-channel tables cover the band only; an off-band channel
// reaching a cold entry point is a caller bug and aborts with the channel
// named (validate() rejects every scenario input that could carry one).
TEST(SpatialIndexDeathTest, OffBandChannelAbortsAtColdEntryPoints) {
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
        Radio radio(medium, wire::MacAddress(1),
                    [] { return Position{0.0, 0.0}; });
        radio.tune(15);
        sim.run_until(msec(10));  // the retune lands after the switch delay
      },
      "retune: channel 15 is outside 1..14");
  EXPECT_DEATH(
      {
        sim::Simulator sim;
        Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1));
        medium.set_channel_impairment(200, 0.5);
      },
      "set_channel_impairment: channel 200 is outside 1..14");
}

// --- counter guard: empty candidate set ------------------------------
// candidates_examined_ += size - 1 assumed the sender is always a member
// of its own candidate set; an empty cohort would wrap the counter to
// ~2^64. Pin the guard through the test-only cohort backdoor.

TEST(SpatialIndexCounter, EmptyCandidateSetDoesNotUnderflowCounter) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                indexed(NeighborIndex::kBruteForce));
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
  tx.tune(6);
  sim.run_until(msec(10));
  MediumTestPeer::drop_from_cohort(medium, tx);
  tx.send(broadcast_frame());
  sim.run_until(msec(50));
  EXPECT_EQ(medium.candidates_examined(), 0u);
  EXPECT_EQ(medium.frames_sent(), 1u);
}

TEST(SpatialIndexCounter, LoneSenderExaminesNobody) {
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                  indexed(mode));
    Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
    tx.tune(6);
    sim.run_until(msec(10));
    tx.send(broadcast_frame());
    sim.run_until(msec(50));
    EXPECT_EQ(medium.candidates_examined(), 0u)
        << "mode " << static_cast<int>(mode);
  }
}

// --- reentrancy: deliver() that transmits ----------------------------
// A deliver() upcall may itself send (an AP relaying, an ACK, a probe
// response). The inner transmit reuses the medium's shared scratch lanes,
// so it must never run while an outer transmit is still iterating them —
// deliveries are posted events, never synchronous calls from the candidate
// loop, and this test pins that: if an inner transmit ever clobbered the
// outer iteration, the delivered sets would diverge between grid (scratch
// lanes) and brute force (cohort vector, clobber-immune).

TEST(SpatialIndexProperty, ReentrantTransmitFromDeliverIsClobberSafe) {
  std::string logs[2];
  int slot = 0;
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(23),
                  indexed(mode));
    RadioConfig rc;
    rc.mobile = false;
    // A ring of radios all in range of each other: every broadcast fans
    // out to everyone, and every delivery triggers another broadcast
    // (depth-limited), so inner transmits pile onto outer ones.
    constexpr std::size_t kRadios = 6;
    std::vector<std::unique_ptr<Radio>> radios;
    std::string& log = logs[slot];
    int budget = 30;  // echo depth limit so the chain terminates
    for (std::size_t i = 0; i < kRadios; ++i) {
      const Position p{static_cast<double>(i) * 10.0, 0.0};
      radios.push_back(std::make_unique<Radio>(
          medium, wire::MacAddress(i + 1), [p] { return p; }, rc));
    }
    for (std::size_t i = 0; i < kRadios; ++i) {
      radios[i]->set_receiver(
          [&log, &radios, &budget, i, &sim](const wire::Frame& f) {
            log += std::to_string(sim.now().count()) + ":" +
                   std::to_string(i) + ":" + std::to_string(f.src.raw()) + ";";
            if (budget > 0) {
              --budget;
              wire::Frame echo = broadcast_frame(200);
              echo.src = wire::MacAddress(i + 1);
              radios[i]->send(echo);  // reentrant: called under deliver()
            }
          });
      radios[i]->tune(11);
    }
    sim.run_until(msec(10));
    wire::Frame f = broadcast_frame(200);
    f.src = wire::MacAddress(1);
    radios[0]->send(f);
    sim.run_until(sec(2));
    EXPECT_GT(medium.frames_delivered(), 30u)
        << "mode " << static_cast<int>(mode);
    ++slot;
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

// --- property: boundary coverage -------------------------------------
// With cell >= range, a radio at exactly range_m from the transmitter sits
// at most one cell away on each axis, so the 3x3 neighborhood must contain
// every in-range radio — including radios exactly on cell boundaries and
// exactly at range_m (in_range_at uses <=, and with good_radius == range
// the loss there is still base_loss = 0, so "visited" is observable as
// "delivered").

TEST(SpatialIndexProperty, BoundaryRadiosAtExactRangeAreDelivered) {
  const double range = 100.0;
  // Transmitter exactly on a cell corner; receivers on cell boundaries and
  // at exactly range_m in the axis and diagonal directions, plus a ring of
  // interior positions. One receiver sits just outside range as a control.
  const std::vector<Position> receivers = {
      {range, 0.0},           // cell boundary, exactly at range
      {0.0, range},           // cell boundary, exactly at range
      {-range, 0.0},          // negative-coordinate cell, exactly at range
      {0.0, -range},          // negative-coordinate cell, exactly at range
      {range / std::sqrt(2.0), range / std::sqrt(2.0)},  // diagonal at range
      {range, range},         // corner cell, out of range (distance ~141)
      {50.0, 0.0},  {0.0, 50.0},   {-30.0, -30.0}, {99.0, 0.0},
      {100.1, 0.0},           // just out of range
  };
  std::size_t expected = 0;
  for (const Position& p : receivers) {
    if (distance({0.0, 0.0}, p) <= range) ++expected;
  }

  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(range)), Rng(7),
                  indexed(mode));
    RadioConfig rc;
    rc.mobile = false;
    Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; },
             rc);
    std::vector<std::unique_ptr<Radio>> rxs;
    std::size_t received = 0;
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      const Position p = receivers[i];
      rxs.push_back(std::make_unique<Radio>(medium, wire::MacAddress(i + 2),
                                            [p] { return p; }, rc));
      rxs.back()->set_receiver([&received](const wire::Frame&) { ++received; });
      rxs.back()->tune(6);
    }
    tx.tune(6);
    sim.run_until(msec(50));
    tx.send(broadcast_frame());
    sim.run_until(msec(100));
    EXPECT_EQ(received, expected) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_delivered(), expected)
        << "mode " << static_cast<int>(mode);
  }
}

// --- property: rebucketing is delivery-neutral -----------------------
// A mobile receiver crossing a cell boundary while frames are in the air
// must neither lose a frame (its new bucket is found by later transmits;
// in-flight deliveries validate by (slot, generation), not by cell) nor
// receive one twice (it leaves its old bucket in the same sweep).

TEST(SpatialIndexProperty, RebucketingNeverDoublesOrDropsDeliveries) {
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(11),
                  indexed(mode));
    // The receiver attaches 5 m inside cell 0 and leaves its stay box —
    // the cell grown by the slack — at x = exit_x, where the sweep
    // rebuckets it.
    const double cell = medium.grid_cell_edge_m();
    const double exit_x = cell + medium.grid_slack_m();
    constexpr double kSpeed = 50.0;
    const Time crossing = sec((exit_x - (cell - 5.0)) / kSpeed);
    RadioConfig stationary;
    stationary.mobile = false;
    Radio tx(medium, wire::MacAddress(1),
             [exit_x] { return Position{exit_x + 50.0, 50.0}; }, stationary);
    // Stays well inside the transmitter's range around the crossing.
    Radio rx(medium, wire::MacAddress(2), [&sim, cell] {
      return Position{cell - 5.0 + kSpeed * to_seconds(sim.now()), 50.0};
    });
    int received = 0;
    rx.set_receiver([&received](const wire::Frame&) { ++received; });
    tx.tune(6);
    rx.tune(6);
    sim.run_until(crossing - msec(10));
    // 40 frames straddling the crossing, half an airtime apart: several are
    // in flight at the moment the sweep rebuckets the receiver.
    constexpr int kFrames = 40;
    for (int i = 0; i < kFrames; ++i) {
      sim.post(usec(500) * i, [&tx] { tx.send(broadcast_frame(1500)); });
    }
    sim.run_until(crossing + msec(100));
    EXPECT_EQ(received, kFrames) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_dropped_at_rx(), 0u)
        << "mode " << static_cast<int>(mode);
    EXPECT_EQ(medium.frames_delivered(), static_cast<std::uint64_t>(kFrames))
        << "mode " << static_cast<int>(mode);
    if (mode == NeighborIndex::kGrid) {
      EXPECT_GT(medium.grid_rebuckets(), 0u);
    }
  }
}

TEST(SpatialIndexProperty, StationaryWorldNeverRebuckets) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(3),
                indexed(NeighborIndex::kGrid));
  RadioConfig stationary;
  stationary.mobile = false;
  std::vector<std::unique_ptr<Radio>> radios;
  for (int i = 0; i < 10; ++i) {
    const Position p{static_cast<double>(i) * 40.0, 0.0};
    radios.push_back(std::make_unique<Radio>(
        medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
        [p] { return p; }, stationary));
    radios.back()->tune(6);
  }
  sim.run_until(msec(50));
  for (int i = 0; i < 20; ++i) {
    sim.post(msec(10) * i, [&radios, i] {
      radios[static_cast<std::size_t>(i) % radios.size()]->send(
          broadcast_frame());
    });
  }
  sim.run_until(sec(1));
  EXPECT_GT(medium.frames_delivered(), 0u);
  EXPECT_EQ(medium.grid_rebuckets(), 0u);
}

// --- property: edge-aligned routes are sampled per slack, not per frame
// A vehicle driving exactly along a cell edge used to fail the quick
// same-cell box at every sweep, so its motion horizon was zero and its
// position was re-sampled at every transmit on its channel. With bucket
// hysteresis it sits a full slack inside its stay box, so a declared speed
// ceiling buys it about slack / speed of sim time per sample. The
// transmitter sits far from both routes: its transmits run the channel's
// sweep, but neither vehicle ever surfaces as a candidate, so every sample
// counted is the sweep's.

TEST(SpatialIndexProperty, EdgeAlignedRoutesAreSampledPerSlackNotPerFrame) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(13),
                indexed(NeighborIndex::kGrid));
  const double cell = medium.grid_cell_edge_m();
  const double slack = medium.grid_slack_m();
  constexpr double kSpeed = 10.0;
  constexpr double kDurationS = 20.0;
  RadioConfig car;
  car.max_speed_mps = kSpeed;
  Radio north(medium, wire::MacAddress(1), [&sim, cell] {
    return Position{3.0 * cell, kSpeed * to_seconds(sim.now())};
  }, car);
  Radio east(medium, wire::MacAddress(2), [&sim] {
    return Position{kSpeed * to_seconds(sim.now()), 0.0};
  }, car);
  RadioConfig stationary;
  stationary.mobile = false;
  Radio tx(medium, wire::MacAddress(3),
           [] { return Position{10'000.0, 10'000.0}; }, stationary);
  north.tune(6);
  east.tune(6);
  tx.tune(6);
  sim.run_until(msec(50));
  constexpr int kTransmits = 4000;  // one every 5 ms
  for (int i = 0; i < kTransmits; ++i) {
    sim.post(msec(5) * i, [&tx] { tx.send(broadcast_frame()); });
  }
  sim.run_until(sec(kDurationS + 1.0));
  ASSERT_EQ(medium.frames_sent(), static_cast<std::uint64_t>(kTransmits));

  // Per vehicle: one sample per slack of travel, plus a few for each stay
  // box it crosses (the horizons shrink as it nears the far edge).
  const double travel = kSpeed * kDurationS;
  const double per_vehicle = travel / slack + 4.0 * (travel / cell + 2.0);
  EXPECT_LE(static_cast<double>(medium.position_samples()), 2.0 * per_vehicle)
      << "cell " << cell << " slack " << slack;
  EXPECT_LT(medium.position_samples(),
            static_cast<std::uint64_t>(kTransmits / 10));
  EXPECT_GT(medium.grid_rebuckets(), 0u);
}

// --- motion horizon: saturation --------------------------------------
// validate() accepts any positive speed ceiling. At 1e-12 m/s the horizon
// distance / max_speed is ~5e13 s, past the int64 microsecond range: it
// must saturate, never wrap into the past.

TEST(SpatialIndexHorizon, TinyDeclaredSpeedSaturatesInsteadOfOverflowing) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                indexed(NeighborIndex::kGrid));
  RadioConfig crawl;
  crawl.max_speed_mps = 1e-12;
  Radio slow(medium, wire::MacAddress(1), [] { return Position{50.0, 50.0}; },
             crawl);
  Radio peer(medium, wire::MacAddress(2), [] { return Position{60.0, 50.0}; },
             crawl);
  int received = 0;
  peer.set_receiver([&received](const wire::Frame&) { ++received; });
  slow.tune(6);
  peer.tune(6);
  EXPECT_GE(MediumTestPeer::safe_until(medium, slow), sim.now());
  sim.run_until(sec(5));
  slow.send(broadcast_frame());
  sim.run_until(sec(6));
  EXPECT_EQ(received, 1);
  EXPECT_GE(MediumTestPeer::safe_until(medium, slow), sim.now());
  EXPECT_GE(MediumTestPeer::safe_until(medium, peer), sim.now());
}

// --- property: the grid actually prunes ------------------------------
// On a spread-out deployment most of the cohort is out of range; the grid
// must examine strictly fewer candidates while delivering exactly the same
// frames.

TEST(SpatialIndexProperty, GridExaminesFewerCandidatesOnSpreadDeployment) {
  WorldResult results[2];
  int slot = 0;
  for (const NeighborIndex mode :
       {NeighborIndex::kGrid, NeighborIndex::kBruteForce}) {
    sim::Simulator sim;
    Medium medium(sim, Propagation(lossless_config(100.0)), Rng(5),
                  indexed(mode));
    RadioConfig stationary;
    stationary.mobile = false;
    std::vector<std::unique_ptr<Radio>> radios;
    constexpr int kRadios = 60;
    for (int i = 0; i < kRadios; ++i) {
      const Position p{static_cast<double>(i) * 80.0, 0.0};
      radios.push_back(std::make_unique<Radio>(
          medium, wire::MacAddress(static_cast<std::uint64_t>(i) + 1),
          [p] { return p; }, stationary));
      radios.back()->tune(6);
    }
    sim.run_until(msec(50));
    for (int i = 0; i < kRadios; ++i) {
      sim.post(msec(2) * i, [&radios, i] {
        radios[static_cast<std::size_t>(i)]->send(broadcast_frame());
      });
    }
    sim.run_until(sec(1));
    results[slot].delivered = medium.frames_delivered();
    results[slot].candidates = medium.candidates_examined();
    ++slot;
  }
  EXPECT_EQ(results[0].delivered, results[1].delivered);
  EXPECT_GT(results[1].candidates, 4 * results[0].candidates)
      << "grid pruned too little on a 4.7 km line of 112.5 m cells";
}

// --- configuration ---------------------------------------------------

TEST(SpatialIndexConfig, CellSizeClampsUpToPropagationRange) {
  // The cell is range + slack with slack = range / 8: 112.5 m at 100 m.
  sim::Simulator sim;
  Medium derived(sim, Propagation(lossless_config(100.0)), Rng(1));
  EXPECT_DOUBLE_EQ(derived.grid_cell_edge_m(), 112.5);
  EXPECT_DOUBLE_EQ(derived.grid_slack_m(), 12.5);
  EXPECT_EQ(derived.config().neighbor_index, NeighborIndex::kGrid);

  // Degenerate zero range keeps a positive cell and slack.
  Medium zero(sim, Propagation(lossless_config(0.0)), Rng(1));
  EXPECT_GT(zero.grid_cell_edge_m(), 0.0);
  EXPECT_GT(zero.grid_slack_m(), 0.0);
}

TEST(SpatialIndexConfig, BruteForceScansNoCells) {
  sim::Simulator sim;
  Medium medium(sim, Propagation(lossless_config(100.0)), Rng(1),
                indexed(NeighborIndex::kBruteForce));
  Radio tx(medium, wire::MacAddress(1), [] { return Position{0.0, 0.0}; });
  Radio rx(medium, wire::MacAddress(2), [] { return Position{50.0, 0.0}; });
  tx.tune(6);
  rx.tune(6);
  sim.run_until(msec(50));
  tx.send(broadcast_frame());
  sim.run_until(msec(100));
  EXPECT_EQ(medium.frames_delivered(), 1u);
  EXPECT_EQ(medium.grid_cells_scanned(), 0u);
  EXPECT_EQ(medium.grid_rebuckets(), 0u);
}

}  // namespace
}  // namespace spider::phy
