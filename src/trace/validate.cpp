#include <cmath>
#include <string>
#include <vector>

#include "trace/error.hpp"
#include "trace/experiment.hpp"

namespace spider::trace {

const char* to_string(RunErrorKind kind) {
  switch (kind) {
    case RunErrorKind::kInvalidConfig: return "invalid-config";
    case RunErrorKind::kDeadlineExceeded: return "deadline-exceeded";
    case RunErrorKind::kCancelled: return "cancelled";
    case RunErrorKind::kInternal: return "internal";
  }
  return "?";
}

std::string join_issues(const std::vector<ConfigIssue>& issues) {
  std::string out;
  for (const ConfigIssue& issue : issues) {
    if (!out.empty()) out += "; ";
    out += issue.field + ": " + issue.message;
  }
  return out;
}

namespace {

/// Flags `channel` against `field` unless it lies in the modelled band; the
/// medium has no table for any other channel.
bool check_band(wire::Channel channel, const std::string& field,
                std::vector<ConfigIssue>& issues) {
  if (wire::in_band(channel)) return true;
  issues.push_back({field, "channel " + std::to_string(channel) +
                               " is outside 1.." +
                               std::to_string(wire::kMaxChannel)});
  return false;
}

/// One issue for the first off-band channel of a list (or for an empty
/// list: every driver needs somewhere to tune).
void check_channel_list(const std::vector<wire::Channel>& channels,
                        const std::string& field,
                        std::vector<ConfigIssue>& issues) {
  if (channels.empty()) {
    issues.push_back({field, "needs at least one channel"});
    return;
  }
  for (const wire::Channel channel : channels) {
    if (!check_band(channel, field, issues)) return;
  }
}

void check_channel_mix(
    const std::vector<std::pair<wire::Channel, double>>& weights,
    const std::string& prefix, std::vector<ConfigIssue>& issues) {
  if (weights.empty()) {
    issues.push_back({prefix + ".channel_weights", "channel mix is empty"});
    return;
  }
  double total = 0.0;
  for (const auto& [channel, weight] : weights) {
    if (!check_band(channel, prefix + ".channel_weights", issues)) return;
    if (weight < 0.0 || !std::isfinite(weight)) {
      issues.push_back({prefix + ".channel_weights",
                        "weight for channel " + std::to_string(channel) +
                            " must be finite and >= 0"});
      return;
    }
    total += weight;
  }
  if (total <= 0.0) {
    issues.push_back(
        {prefix + ".channel_weights", "channel weights sum to zero"});
  }
}

void check_backhaul(BitRate lo, BitRate hi, const std::string& prefix,
                    std::vector<ConfigIssue>& issues) {
  if (lo.bps <= 0.0) {
    issues.push_back({prefix + ".backhaul_min", "backhaul rate must be > 0"});
  }
  if (hi.bps < lo.bps) {
    issues.push_back(
        {prefix + ".backhaul_max", "backhaul_max below backhaul_min"});
  }
}

void check_fraction(double v, const std::string& field,
                    std::vector<ConfigIssue>& issues) {
  if (v < 0.0 || v > 1.0 || !std::isfinite(v)) {
    issues.push_back({field, "must lie in [0, 1]"});
  }
}

/// The Spider scheduler cycles through the mode's slots, so it needs a
/// positive period and at least one channel with positive time on it.
void check_mode(const core::OperationMode& mode,
                std::vector<ConfigIssue>& issues) {
  if (mode.period <= Time{0}) {
    issues.push_back({"spider.mode.period", "must be positive"});
  }
  bool any_positive = false;
  for (const auto& [channel, fraction] : mode.fractions) {
    if (!check_band(channel, "spider.mode.fractions", issues)) return;
    if (fraction < 0.0 || !std::isfinite(fraction)) {
      issues.push_back({"spider.mode.fractions",
                        "fraction for channel " + std::to_string(channel) +
                            " must be finite and >= 0"});
      return;
    }
    any_positive = any_positive || fraction > 0.0;
  }
  if (!any_positive) {
    issues.push_back(
        {"spider.mode.fractions", "no channel has a positive fraction"});
  }
}

}  // namespace

std::vector<ConfigIssue> ScenarioConfig::validate() const {
  std::vector<ConfigIssue> issues;

  if (duration <= Time{0}) {
    issues.push_back({"duration", "must be positive"});
  }
  if (!(speed_mps >= 0.0) || !std::isfinite(speed_mps)) {
    issues.push_back({"speed_mps", "must be finite and >= 0"});
  }
  if (clients <= 0) {
    issues.push_back({"clients", "must be >= 1"});
  }
  if (metrics_bin <= Time{0}) {
    issues.push_back({"metrics_bin", "must be positive"});
  }
  if (backhaul_delay < Time{0}) {
    issues.push_back({"backhaul_delay", "must be >= 0"});
  }

  if (!(propagation.range_m > 0.0)) {
    issues.push_back({"propagation.range_m", "must be > 0"});
  }
  if (propagation.good_radius_m < 0.0 ||
      propagation.good_radius_m > propagation.range_m) {
    issues.push_back(
        {"propagation.good_radius_m", "must lie in [0, range_m]"});
  }
  check_fraction(propagation.base_loss, "propagation.base_loss", issues);

  for (std::size_t i = 0; i < fixed_sites.size(); ++i) {
    if (!check_band(fixed_sites[i].channel,
                    "fixed_sites[" + std::to_string(i) + "].channel",
                    issues)) {
      break;
    }
  }
  if (city) {
    if (!(city->width_m > 0.0) || !(city->height_m > 0.0)) {
      issues.push_back({"city.width_m/height_m", "city area must be > 0"});
    }
    if (!(city->block_m > 0.0)) {
      issues.push_back({"city.block_m", "street spacing must be > 0"});
    } else if (city->block_m > std::max(city->width_m, city->height_m)) {
      issues.push_back(
          {"city.block_m", "exceeds the city extent — no street mesh fits"});
    }
    if (city->aps_per_km2 < 0.0 || !std::isfinite(city->aps_per_km2)) {
      issues.push_back({"city.aps_per_km2", "must be finite and >= 0"});
    }
    if (city->lateral_min_m < 0.0 ||
        city->lateral_max_m < city->lateral_min_m) {
      issues.push_back(
          {"city.lateral_min_m/max_m", "need 0 <= min <= max"});
    }
    check_channel_mix(city->channel_weights, "city", issues);
    check_backhaul(city->backhaul_min, city->backhaul_max, "city", issues);
    check_fraction(city->dead_backhaul_fraction, "city.dead_backhaul_fraction",
                   issues);
  } else if (fixed_sites.empty()) {
    if (!(deployment.road_length_m > 0.0)) {
      issues.push_back({"deployment.road_length_m", "must be > 0"});
    }
    if (deployment.aps_per_km < 0.0 || !std::isfinite(deployment.aps_per_km)) {
      issues.push_back({"deployment.aps_per_km", "must be finite and >= 0"});
    }
    if (deployment.lateral_min_m < 0.0 ||
        deployment.lateral_max_m < deployment.lateral_min_m) {
      issues.push_back(
          {"deployment.lateral_min_m/max_m", "need 0 <= min <= max"});
    }
    if (deployment.clusters_per_km < 0.0 || deployment.cluster_radius_m < 0.0) {
      issues.push_back(
          {"deployment.clusters_per_km/cluster_radius_m", "must be >= 0"});
    }
    check_channel_mix(deployment.channel_weights, "deployment", issues);
    check_backhaul(deployment.backhaul_min, deployment.backhaul_max,
                   "deployment", issues);
    check_fraction(deployment.dead_backhaul_fraction,
                   "deployment.dead_backhaul_fraction", issues);
  }

  if ((driver == DriverKind::kSpider || driver == DriverKind::kFatVap) &&
      spider.num_interfaces < 1) {
    issues.push_back({"spider.num_interfaces", "must be >= 1"});
  }
  switch (driver) {
    case DriverKind::kSpider:
      check_mode(spider.mode, issues);
      break;
    case DriverKind::kStock:
      check_channel_list(stock.scan_channels, "stock.scan_channels", issues);
      if (stock.lock_channel) {
        check_band(*stock.lock_channel, "stock.lock_channel", issues);
      }
      break;
    case DriverKind::kFatVap:
      check_channel_list(fatvap.channels, "fatvap.channels", issues);
      break;
  }

  // The impairment source must resolve before any simulator state is
  // built: trace-backed kinds ingest (and line-number-check) their
  // recordings here, so a typo'd path or a malformed row surfaces as an
  // invalid-config against the source's own field, never as a mid-run
  // failure. Ingest confines a trace's channels to the band; a synthetic
  // schedule's channel faults are checked here.
  if (impairments.kind == ImpairmentSource::Kind::kSynthetic) {
    const auto& specs = impairments.schedule.specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (fault::is_channel_fault(specs[i].kind) &&
          !check_band(specs[i].target,
                      "impairments.schedule[" + std::to_string(i) + "].target",
                      issues)) {
        break;
      }
    }
  } else {
    std::string error;
    if (!impairments.resolve(&error)) {
      issues.push_back({impairments.field_name(), error});
    }
  }

  return issues;
}

}  // namespace spider::trace
