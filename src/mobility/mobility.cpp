#include "mobility/mobility.hpp"

#include <cassert>
#include <cmath>

namespace spider::mob {

BackAndForthRoad::BackAndForthRoad(double length_m, double speed_mps,
                                   double lane_y)
    : length_(length_m), speed_(speed_mps), lane_y_(lane_y) {
  assert(length_m > 0.0);
}

Position BackAndForthRoad::position_at(Time t) const {
  const double d = std::fmod(speed_ * to_seconds(t), 2.0 * length_);
  const double x = d <= length_ ? d : 2.0 * length_ - d;  // triangle wave
  return Position{x, lane_y_};
}

WaypointLoop::WaypointLoop(std::vector<Position> waypoints, double speed_mps)
    : points_(std::move(waypoints)), speed_(speed_mps) {
  assert(points_.size() >= 2);
  cumulative_.reserve(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    cumulative_.push_back(total_);
    const Position& a = points_[i];
    const Position& b = points_[(i + 1) % points_.size()];
    total_ += distance(a, b);
  }
  assert(total_ > 0.0);
}

Position WaypointLoop::position_at(Time t) const {
  double d = std::fmod(speed_ * to_seconds(t), total_);
  // Find the segment containing distance d.
  std::size_t i = points_.size() - 1;
  for (std::size_t k = 1; k < points_.size(); ++k) {
    if (cumulative_[k] > d) {
      i = k - 1;
      break;
    }
  }
  const Position& a = points_[i];
  const Position& b = points_[(i + 1) % points_.size()];
  const double seg_len = distance(a, b);
  const double frac = seg_len <= 0.0 ? 0.0 : (d - cumulative_[i]) / seg_len;
  return Position{a.x + (b.x - a.x) * frac, a.y + (b.y - a.y) * frac};
}

}  // namespace spider::mob
