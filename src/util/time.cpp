#include "util/time.hpp"

#include <cstdio>

namespace spider {

std::optional<Time> bounded_time(double v, double ticks_per_unit,
                                 Time (*convert)(double)) {
  const double bound = time_bound(ticks_per_unit);
  if (!(v >= -bound && v <= bound)) return std::nullopt;
  return convert(v);
}

std::string format_time(Time t) {
  char buf[32];
  const auto us = t.count();
  if (us % 1'000'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(us / 1'000'000));
  } else if (us % 1'000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms", static_cast<long long>(us / 1'000));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(us) / 1e3);
  }
  return buf;
}

}  // namespace spider
