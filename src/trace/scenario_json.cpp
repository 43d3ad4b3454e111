#include "trace/scenario_json.hpp"

#include <cmath>
#include <cstdint>
#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

namespace spider::trace {

using util::Json;
using util::json_escape;
using util::json_number;

namespace {

bool driver_from_string(const std::string& name, DriverKind* out) {
  if (name == "spider") *out = DriverKind::kSpider;
  else if (name == "stock") *out = DriverKind::kStock;
  else if (name == "fatvap") *out = DriverKind::kFatVap;
  else return false;
  return true;
}

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Typed value readers shared by every scenario key. A mistyped value fails
// with the field's name instead of silently running the default, and an
// integer outside its target type is rejected before the cast (converting
// such a double is undefined behaviour).

bool read_number(const Json& value, const std::string& field, double* out,
                 std::string* error) {
  if (!value.is_number()) return set_error(error, field + " must be a number");
  *out = value.number_or(0.0);
  return true;
}

/// Integers a double holds exactly end at 2^53, so the accepted range is
/// clipped there as well as to `Int`: every value in it converts exactly.
template <typename Int>
bool read_integer(const Json& value, const std::string& field, Int* out,
                  std::string* error) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  constexpr double lo =
      std::max<double>(std::numeric_limits<Int>::min(), -kExact);
  constexpr double hi =
      std::min<double>(std::numeric_limits<Int>::max(), kExact);
  double v = 0.0;
  if (!read_number(value, field, &v, error)) return false;
  if (!(v >= lo && v <= hi) || v != std::trunc(v)) {
    return set_error(error, field + " must be an integer in [" +
                                std::to_string(static_cast<std::int64_t>(lo)) +
                                ", " +
                                std::to_string(static_cast<std::int64_t>(hi)) +
                                "]");
  }
  *out = static_cast<Int>(v);
  return true;
}

bool read_bool(const Json& value, const std::string& field, bool* out,
               std::string* error) {
  if (!value.is_bool()) {
    return set_error(error, field + " must be true or false");
  }
  *out = value.bool_or(false);
  return true;
}

/// Rounding second/millisecond parsers for the extension fields: a Time
/// printed as %.17g seconds re-parses to the identical tick, which the
/// ingest -> serialize -> ingest byte-identity contract depends on.
/// (The legacy duration_s/metrics_bin_s keys keep their original
/// truncating semantics untouched.)
Time seconds_exact(double v) {
  return Time{static_cast<std::int64_t>(std::llround(v * 1e6))};
}
Time millis_exact(double v) {
  return Time{static_cast<std::int64_t>(std::llround(v * 1e3))};
}
Time millis_truncated(double v) { return msec(static_cast<std::int64_t>(v)); }

/// Reads a time in units of `ticks_per_unit` microseconds (1e6 for *_s
/// keys, 1e3 for *_ms keys) and converts it with the key's own rounding,
/// through the shared bound of bounded_time. The sign is left to
/// validate().
bool read_time(const Json& value, const std::string& field,
               double ticks_per_unit, Time (*convert)(double), Time* out,
               std::string* error) {
  double v = 0.0;
  if (!read_number(value, field, &v, error)) return false;
  const std::optional<Time> time = bounded_time(v, ticks_per_unit, convert);
  if (!time) {
    const double bound = time_bound(ticks_per_unit);
    return set_error(error, field + " must be a time in [" +
                                json_number(-bound) + ", " +
                                json_number(bound) + "]");
  }
  *out = *time;
  return true;
}

void write_replay(std::ostream& os, const tracein::ReplayOptions& replay) {
  os << "{\"mapping\":\"" << tracein::to_string(replay.mapping) << '"'
     << ",\"loss_scale\":" << json_number(replay.loss_scale)
     << ",\"min_occupancy\":" << json_number(replay.min_occupancy)
     << ",\"tail_window_s\":" << json_number(to_seconds(replay.tail_window))
     << ",\"burst_dwell_ms\":" << json_number(to_millis(replay.burst_dwell))
     << '}';
}

bool parse_replay(const Json& json, tracein::ReplayOptions* replay,
                  std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "impairments.replay must be a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    const std::string field = "impairments.replay." + key;
    bool ok = true;
    if (key == "mapping") {
      if (!value.is_string() ||
          !tracein::replay_mapping_from_string(value.string_value(),
                                               &replay->mapping)) {
        return set_error(error,
                         "impairments.replay.mapping must be "
                         "interference|burst");
      }
    } else if (key == "loss_scale") {
      ok = read_number(value, field, &replay->loss_scale, error);
    } else if (key == "min_occupancy") {
      ok = read_number(value, field, &replay->min_occupancy, error);
    } else if (key == "tail_window_s") {
      ok = read_time(value, field, 1e6, seconds_exact, &replay->tail_window,
                     error);
    } else if (key == "burst_dwell_ms") {
      ok = read_time(value, field, 1e3, millis_exact, &replay->burst_dwell,
                     error);
    } else {
      return set_error(error,
                       "unknown impairments.replay key '" + key + "'");
    }
    if (!ok) return false;
  }
  return true;
}

bool parse_fault_spec(const Json& json, std::size_t index,
                      fault::FaultSpec* spec, std::string* error) {
  const std::string prefix =
      "impairments.schedule[" + std::to_string(index) + "]";
  if (!json.is_object()) {
    return set_error(error, prefix + " must be a JSON object");
  }
  for (const auto& [key, value] : json.members()) {
    const std::string field = prefix + "." + key;
    bool ok = true;
    if (key == "kind") {
      if (!value.is_string() ||
          !fault::fault_kind_from_string(value.string_value(), &spec->kind)) {
        return set_error(error, prefix + ".kind is not a known fault kind");
      }
    } else if (key == "at_s") {
      ok = read_time(value, field, 1e6, seconds_exact, &spec->at, error);
    } else if (key == "duration_s") {
      ok = read_time(value, field, 1e6, seconds_exact, &spec->duration, error);
    } else if (key == "target") {
      ok = read_integer(value, field, &spec->target, error);
    } else if (key == "intensity") {
      ok = read_number(value, field, &spec->intensity, error);
    } else if (key == "burst_ms") {
      ok = read_time(value, field, 1e3, millis_exact, &spec->burst_mean, error);
    } else if (key == "gap_ms") {
      ok = read_time(value, field, 1e3, millis_exact, &spec->gap_mean, error);
    } else {
      return set_error(error, "unknown " + prefix + " key '" + key + "'");
    }
    if (!ok) return false;
  }
  return true;
}

bool parse_impairments(const Json& json, ImpairmentSource* out,
                       std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "impairments must be a JSON object");
  }
  ImpairmentSource src;
  const Json* kind = json.find("kind");
  if (kind == nullptr || !kind->is_string() ||
      !impairment_kind_from_string(kind->string_value(), &src.kind)) {
    return set_error(error,
                     "impairments.kind must be "
                     "synthetic|trace-file|inline-timeline");
  }
  for (const auto& [key, value] : json.members()) {
    if (key == "kind") {
      continue;
    } else if (key == "schedule") {
      if (src.kind != ImpairmentSource::Kind::kSynthetic) {
        return set_error(
            error, "impairments.schedule only applies to kind 'synthetic'");
      }
      if (!value.is_array()) {
        return set_error(error, "impairments.schedule must be an array");
      }
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        fault::FaultSpec spec;
        if (!parse_fault_spec(value.elements()[i], i, &spec, error)) {
          return false;
        }
        src.schedule.add(spec);
      }
    } else if (key == "path") {
      if (src.kind != ImpairmentSource::Kind::kTraceFile) {
        return set_error(error,
                         "impairments.path only applies to kind 'trace-file'");
      }
      if (!value.is_string()) {
        return set_error(error, "impairments.path must be a string");
      }
      src.trace_path = value.string_value();
    } else if (key == "samples") {
      if (src.kind != ImpairmentSource::Kind::kInlineTimeline) {
        return set_error(
            error,
            "impairments.samples only applies to kind 'inline-timeline'");
      }
      if (!value.is_array()) {
        return set_error(error, "impairments.samples must be an array");
      }
      for (std::size_t i = 0; i < value.elements().size(); ++i) {
        const Json& row = value.elements()[i];
        const std::string prefix =
            "impairments.samples[" + std::to_string(i) + "]";
        if (!row.is_array() || row.elements().size() != 3 ||
            !row.elements()[0].is_number() || !row.elements()[1].is_number() ||
            !row.elements()[2].is_number()) {
          return set_error(
              error, prefix + " must be [t_s, channel, occupancy] numbers");
        }
        tracein::OccupancySample sample;
        if (!read_time(row.elements()[0], prefix + "[0]", 1e6, seconds_exact,
                       &sample.at, error) ||
            !read_integer(row.elements()[1], prefix + "[1]", &sample.channel,
                          error)) {
          return false;
        }
        sample.occupancy = row.elements()[2].number_or(0.0);
        src.timeline.samples.push_back(sample);
      }
    } else if (key == "replay") {
      if (src.kind == ImpairmentSource::Kind::kSynthetic) {
        return set_error(
            error, "impairments.replay only applies to trace-backed kinds");
      }
      if (!parse_replay(value, &src.replay, error)) return false;
    } else {
      return set_error(error, "unknown impairments key '" + key + "'");
    }
  }
  *out = std::move(src);
  return true;
}

}  // namespace

void write_scenario_json(std::ostream& os, const ScenarioConfig& config) {
  os << "{\"seed\":" << config.seed
     << ",\"duration_s\":" << json_number(to_seconds(config.duration))
     << ",\"speed_mps\":" << json_number(config.speed_mps)
     << ",\"clients\":" << config.clients
     << ",\"metrics_bin_s\":" << json_number(to_seconds(config.metrics_bin))
     << ",\"driver\":\"" << to_string(config.driver) << '"'
     << ",\"adaptive\":" << (config.adaptive ? "true" : "false")
     << ",\"num_interfaces\":" << config.spider.num_interfaces
     << ",\"mode\":{\"period_ms\":"
     << json_number(to_millis(config.spider.mode.period)) << ",\"fractions\":[";
  bool first = true;
  for (const auto& [channel, fraction] : config.spider.mode.fractions) {
    if (!first) os << ',';
    first = false;
    os << '[' << channel << ',' << json_number(fraction) << ']';
  }
  os << "]}"
     << ",\"neighbor_index\":\""
     << (config.neighbor_index == phy::NeighborIndex::kGrid ? "grid"
                                                            : "brute")
     << '"';
  if (config.city) {
    os << ",\"city\":{\"width_m\":" << json_number(config.city->width_m)
       << ",\"height_m\":" << json_number(config.city->height_m)
       << ",\"block_m\":" << json_number(config.city->block_m)
       << ",\"aps_per_km2\":" << json_number(config.city->aps_per_km2) << '}';
  } else {
    os << ",\"road_length_m\":" << json_number(config.deployment.road_length_m)
       << ",\"aps_per_km\":" << json_number(config.deployment.aps_per_km);
  }
  // The impairments extension travels only when non-default, so an
  // impairment-free config serializes to the exact pre-extension bytes.
  const ImpairmentSource& imp = config.impairments;
  const bool default_impairments =
      imp.kind == ImpairmentSource::Kind::kSynthetic && imp.schedule.empty();
  if (!default_impairments) {
    os << ",\"impairments\":{\"kind\":\"" << imp.kind_name() << '"';
    switch (imp.kind) {
      case ImpairmentSource::Kind::kSynthetic: {
        os << ",\"schedule\":[";
        bool first_spec = true;
        for (const fault::FaultSpec& spec : imp.schedule.specs()) {
          if (!first_spec) os << ',';
          first_spec = false;
          os << "{\"kind\":\"" << fault::to_string(spec.kind)
             << "\",\"at_s\":" << json_number(to_seconds(spec.at))
             << ",\"duration_s\":" << json_number(to_seconds(spec.duration))
             << ",\"target\":" << spec.target
             << ",\"intensity\":" << json_number(spec.intensity)
             << ",\"burst_ms\":" << json_number(to_millis(spec.burst_mean))
             << ",\"gap_ms\":" << json_number(to_millis(spec.gap_mean))
             << '}';
        }
        os << ']';
        break;
      }
      case ImpairmentSource::Kind::kTraceFile: {
        os << ",\"path\":\"" << json_escape(imp.trace_path)
           << "\",\"replay\":";
        write_replay(os, imp.replay);
        break;
      }
      case ImpairmentSource::Kind::kInlineTimeline: {
        os << ",\"samples\":[";
        bool first_sample = true;
        for (const tracein::OccupancySample& s : imp.timeline.samples) {
          if (!first_sample) os << ',';
          first_sample = false;
          os << '[' << json_number(to_seconds(s.at)) << ','
             << static_cast<int>(s.channel) << ','
             << json_number(s.occupancy) << ']';
        }
        os << "],\"replay\":";
        write_replay(os, imp.replay);
        break;
      }
    }
    os << '}';
  }
  os << '}';
}

std::string scenario_to_json(const ScenarioConfig& config) {
  std::ostringstream os;
  write_scenario_json(os, config);
  return os.str();
}

bool parse_scenario_json(const Json& json, ScenarioConfig* config,
                         std::string* error) {
  if (!json.is_object()) {
    return set_error(error, "scenario must be a JSON object");
  }
  ScenarioConfig out;  // protocol defaults = library defaults
  for (const auto& [key, value] : json.members()) {
    bool ok = true;
    if (key == "seed") {
      ok = read_integer(value, key, &out.seed, error);
    } else if (key == "duration_s") {
      ok = read_time(value, key, 1e6, sec, &out.duration, error);
    } else if (key == "speed_mps") {
      ok = read_number(value, key, &out.speed_mps, error);
    } else if (key == "clients") {
      ok = read_integer(value, key, &out.clients, error);
    } else if (key == "metrics_bin_s") {
      ok = read_time(value, key, 1e6, sec, &out.metrics_bin, error);
    } else if (key == "driver") {
      if (!value.is_string() ||
          !driver_from_string(value.string_value(), &out.driver)) {
        return set_error(error, "driver must be spider|stock|fatvap");
      }
    } else if (key == "adaptive") {
      ok = read_bool(value, key, &out.adaptive, error);
    } else if (key == "num_interfaces") {
      ok = read_integer(value, key, &out.spider.num_interfaces, error);
    } else if (key == "mode") {
      const Json* period = value.find("period_ms");
      const Json* fractions = value.find("fractions");
      if (!value.is_object() || period == nullptr || fractions == nullptr ||
          !fractions->is_array()) {
        return set_error(error, "mode needs period_ms and fractions");
      }
      core::OperationMode mode;
      if (!read_time(*period, "mode.period_ms", 1e3, millis_truncated,
                     &mode.period, error)) {
        return false;
      }
      for (std::size_t i = 0; i < fractions->elements().size(); ++i) {
        const Json& pair = fractions->elements()[i];
        if (!pair.is_array() || pair.elements().size() != 2) {
          return set_error(error, "mode fraction entries are [channel,frac]");
        }
        const std::string prefix = "mode.fractions[" + std::to_string(i) + "]";
        std::pair<wire::Channel, double> entry;
        if (!read_integer(pair.elements()[0], prefix + "[0]", &entry.first,
                          error) ||
            !read_number(pair.elements()[1], prefix + "[1]", &entry.second,
                         error)) {
          return false;
        }
        mode.fractions.push_back(entry);
      }
      out.spider.mode = mode;
    } else if (key == "neighbor_index") {
      const std::string name = value.string_or("");
      if (name == "grid") {
        out.neighbor_index = phy::NeighborIndex::kGrid;
      } else if (name == "brute") {
        out.neighbor_index = phy::NeighborIndex::kBruteForce;
      } else {
        return set_error(error, "neighbor_index must be grid|brute");
      }
    } else if (key == "road_length_m") {
      ok = read_number(value, key, &out.deployment.road_length_m, error);
    } else if (key == "aps_per_km") {
      ok = read_number(value, key, &out.deployment.aps_per_km, error);
    } else if (key == "city") {
      mob::CityGridConfig city;
      if (!value.is_object()) {
        return set_error(error, "city must be a JSON object");
      }
      for (const auto& [ckey, cvalue] : value.members()) {
        double* field = ckey == "width_m"       ? &city.width_m
                        : ckey == "height_m"    ? &city.height_m
                        : ckey == "block_m"     ? &city.block_m
                        : ckey == "aps_per_km2" ? &city.aps_per_km2
                                                : nullptr;
        if (field == nullptr) {
          return set_error(error, "unknown city key '" + ckey + "'");
        }
        if (!read_number(cvalue, "city." + ckey, field, error)) return false;
      }
      out.city = city;
    } else if (key == "impairments") {
      ok = parse_impairments(value, &out.impairments, error);
    } else {
      // Strict: a dropped key would silently run a different experiment
      // than the client intended.
      return set_error(error, "unknown scenario key '" + key + "'");
    }
    if (!ok) return false;
  }
  *config = std::move(out);
  return true;
}

bool parse_scenario_json(const std::string& text, ScenarioConfig* config,
                         std::string* error) {
  std::string parse_error;
  const std::optional<Json> json = Json::parse(text, &parse_error);
  if (!json) {
    return set_error(error, "scenario JSON: " + parse_error);
  }
  return parse_scenario_json(*json, config, error);
}

}  // namespace spider::trace
