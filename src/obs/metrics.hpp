#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

namespace spider::obs {

/// A small named-metric registry: counters (sum on merge) and gauges (max
/// on merge). Derived per run from the flight recorder's kind counts and
/// pooled across seeded runs by trace::pool_results, so averaged sweeps
/// report fleet-wide totals. Entries iterate in name order — exporters
/// inherit determinism for free.
class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge };

  struct Metric {
    double value = 0.0;
    Kind kind = Kind::kCounter;
  };

  /// Adds `v` to the named counter (creating it at zero).
  void count(std::string_view name, double v = 1.0);
  /// Sets the named gauge; merge keeps the maximum.
  void gauge(std::string_view name, double v);

  /// Value of `name`, or 0 when absent.
  double value(std::string_view name) const;
  bool contains(std::string_view name) const;
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Counters add, gauges take the max; disjoint names are inserted.
  void merge(const MetricsRegistry& other);

  /// Name-ordered view (deterministic iteration for exporters).
  const std::map<std::string, Metric, std::less<>>& entries() const {
    return entries_;
  }

  /// One-line JSON object `{"name":value,...}` in name order, doubles in
  /// exact-round-trip form — the scenario server's live metrics endpoint
  /// streams this inside its response envelope.
  void write_json(std::ostream& os) const;

 private:
  std::map<std::string, Metric, std::less<>> entries_;
};

}  // namespace spider::obs
