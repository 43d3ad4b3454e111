#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

namespace spider {

/// Simulation time. All of the simulator runs on a single monotonic clock
/// with microsecond resolution; a signed 64-bit tick count covers ~292k
/// years, far beyond any experiment horizon.
using Time = std::chrono::duration<std::int64_t, std::micro>;

/// Convenience constructors. The paper quotes constants in seconds and
/// milliseconds; these keep call sites readable (`msec(400)`, `sec(4)`).
constexpr Time usec(std::int64_t v) { return Time{v}; }
constexpr Time msec(std::int64_t v) { return Time{v * 1000}; }
constexpr Time sec(double v) {
  return Time{static_cast<std::int64_t>(v * 1e6)};
}

/// Converts a simulation time to floating-point seconds (for statistics
/// and printed output).
constexpr double to_seconds(Time t) {
  return static_cast<double>(t.count()) / 1e6;
}

/// Converts a simulation time to floating-point milliseconds.
constexpr double to_millis(Time t) {
  return static_cast<double>(t.count()) / 1e3;
}

/// Largest magnitude, in units of `ticks_per_unit` microseconds (1e6 for
/// seconds, 1e3 for milliseconds), that bounded_time accepts: 1e18 us.
constexpr double time_bound(double ticks_per_unit) {
  return 1e18 / ticks_per_unit;
}

/// Checked conversion for a time read from outside the program (a wire
/// request, a command-line flag, a trace file): `v` counts units of
/// `ticks_per_unit` microseconds and converts with `convert`, the caller's
/// own rounding. Converting a double beyond the tick range is undefined
/// behaviour, so a `v` outside +/-time_bound (or NaN) yields nullopt.
std::optional<Time> bounded_time(double v, double ticks_per_unit,
                                 Time (*convert)(double));

/// Formats a time as a short human-readable string ("1.250s", "37ms").
std::string format_time(Time t);

}  // namespace spider
