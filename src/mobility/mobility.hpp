#pragma once

#include <memory>
#include <vector>

#include "util/time.hpp"
#include "util/units.hpp"

namespace spider::mob {

/// A deterministic motion plan: position as a pure function of time, so a
/// radio can sample it lazily via its position callback. All models report
/// a nominal speed for use by adaptive scheduling policies.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  virtual Position position_at(Time t) const = 0;
  virtual double speed_mps() const = 0;
};

/// Drives back and forth along the x-axis segment [0, length] at constant
/// speed — "the mobile node following the same route multiple times"
/// (§4.1). The turn-arounds are instantaneous.
class BackAndForthRoad final : public MobilityModel {
 public:
  BackAndForthRoad(double length_m, double speed_mps, double lane_y = 0.0);
  Position position_at(Time t) const override;
  double speed_mps() const override { return speed_; }
  double length() const { return length_; }

 private:
  double length_;
  double speed_;
  double lane_y_;
};

/// Piecewise-linear route through waypoints at constant speed, looping
/// back to the first waypoint — models circulating through a downtown.
class WaypointLoop final : public MobilityModel {
 public:
  WaypointLoop(std::vector<Position> waypoints, double speed_mps);
  Position position_at(Time t) const override;
  double speed_mps() const override { return speed_; }
  double lap_length() const { return total_; }

 private:
  std::vector<Position> points_;
  std::vector<double> cumulative_;  ///< distance up to each segment start
  double total_ = 0.0;
  double speed_;
};

}  // namespace spider::mob
