#include "tracein/occupancy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace spider::tracein {

namespace {

/// Timestamp parse that survives the print round trip exactly: seconds are
/// printed with %.17g (17 significant digits reproduce the binary64 bit
/// pattern) and converted to microsecond ticks by rounding to nearest —
/// truncation here would walk a tick off every re-ingest.
Time seconds_to_time(double v) { return Time{std::llround(v * 1e6)}; }

std::string num17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw std::runtime_error("occupancy trace line " + std::to_string(line_no) +
                           ": " + message);
}

/// Full-string double parse; rejects trailing garbage ("1.5x") that
/// std::stod would silently accept.
bool parse_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

struct RowChecker {
  /// Last timestamp seen per channel; rows must strictly increase within
  /// their channel (a recorder emits one row per window per channel).
  std::unordered_map<wire::Channel, Time> last_at;

  void admit(std::size_t line_no, double t_s, double channel_raw,
             double occupancy, OccupancyTimeline& out) {
    if (!std::isfinite(t_s) || t_s < 0.0) {
      fail(line_no, "bad timestamp " + num17(t_s) +
                        " (must be finite seconds >= 0)");
    }
    if (!std::isfinite(channel_raw) || std::floor(channel_raw) != channel_raw) {
      fail(line_no, "channel must be an integer");
    }
    // Band-checked as a double: casting one outside the Channel range is
    // undefined behaviour.
    if (!(channel_raw >= 1.0 && channel_raw <= wire::kMaxChannel)) {
      fail(line_no, "unknown channel " + num17(channel_raw) +
                        " (2.4 GHz band is 1..14)");
    }
    const auto channel = static_cast<wire::Channel>(channel_raw);
    if (!std::isfinite(occupancy) || occupancy < 0.0 || occupancy > 1.0) {
      fail(line_no, "occupancy " + num17(occupancy) + " outside [0, 1]");
    }
    const std::optional<Time> bounded =
        bounded_time(t_s, 1e6, seconds_to_time);
    if (!bounded) {
      fail(line_no, "bad timestamp " + num17(t_s) + " (must be at most " +
                        num17(time_bound(1e6)) + " s)");
    }
    const Time at = *bounded;
    const auto it = last_at.find(channel);
    if (it != last_at.end()) {
      if (at < it->second) {
        fail(line_no, "out-of-order sample for channel " +
                          std::to_string(channel) + " (t went backwards)");
      }
      if (at == it->second) {
        fail(line_no, "duplicate timestamp for channel " +
                          std::to_string(channel));
      }
      it->second = at;
    } else {
      last_at.emplace(channel, at);
    }
    out.samples.push_back({at, channel, occupancy});
  }
};

void parse_csv_row(std::size_t line_no, const std::string& line,
                   RowChecker& checker, OccupancyTimeline& out) {
  std::istringstream row(line);
  std::string cell;
  std::vector<std::string> cells;
  while (std::getline(row, cell, ',')) cells.push_back(cell);
  if (cells.size() != 3) {
    fail(line_no, "expected 3 columns (t_s,channel,occupancy), got " +
                      std::to_string(cells.size()));
  }
  double t_s = 0.0, channel = 0.0, occupancy = 0.0;
  if (!parse_double(cells[0], &t_s)) {
    fail(line_no, "bad timestamp '" + cells[0] + "'");
  }
  if (!parse_double(cells[1], &channel)) {
    fail(line_no, "bad channel '" + cells[1] + "'");
  }
  if (!parse_double(cells[2], &occupancy)) {
    fail(line_no, "bad occupancy '" + cells[2] + "'");
  }
  checker.admit(line_no, t_s, channel, occupancy, out);
}

void parse_jsonl_row(std::size_t line_no, const std::string& line,
                     RowChecker& checker, OccupancyTimeline& out) {
  std::string error;
  const std::optional<util::Json> json = util::Json::parse(line, &error);
  if (!json || !json->is_object()) {
    fail(line_no, "bad JSON object" + (error.empty() ? "" : " (" + error + ")"));
  }
  const util::Json* t = json->find("t_s");
  const util::Json* channel = json->find("channel");
  const util::Json* occupancy = json->find("occupancy");
  if (t == nullptr || !t->is_number()) {
    fail(line_no, "missing numeric field 't_s'");
  }
  if (channel == nullptr || !channel->is_number()) {
    fail(line_no, "missing numeric field 'channel'");
  }
  if (occupancy == nullptr || !occupancy->is_number()) {
    fail(line_no, "missing numeric field 'occupancy'");
  }
  for (const auto& [key, value] : json->members()) {
    (void)value;
    if (key != "t_s" && key != "channel" && key != "occupancy") {
      fail(line_no, "unknown field '" + key + "'");
    }
  }
  checker.admit(line_no, t->number_or(0.0), channel->number_or(0.0),
                occupancy->number_or(0.0), out);
}

bool skippable(const std::string& line) {
  return line.empty() || line[0] == '#';
}

bool is_csv_header(const std::string& line) {
  return line.rfind("t_s,", 0) == 0;
}

}  // namespace

Time OccupancyTimeline::span() const {
  Time end{0};
  for (const OccupancySample& s : samples) end = std::max(end, s.at);
  return end;
}

std::vector<wire::Channel> OccupancyTimeline::channels() const {
  std::vector<wire::Channel> out;
  for (const OccupancySample& s : samples) {
    if (std::find(out.begin(), out.end(), s.channel) == out.end()) {
      out.push_back(s.channel);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<std::string> OccupancyTimeline::check() const {
  std::unordered_map<wire::Channel, Time> last_at;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const OccupancySample& s = samples[i];
    const std::string where = "sample " + std::to_string(i);
    if (s.at < Time{0}) return where + ": negative timestamp";
    if (!wire::in_band(s.channel)) {
      return where + ": unknown channel " + std::to_string(s.channel);
    }
    if (!std::isfinite(s.occupancy) || s.occupancy < 0.0 ||
        s.occupancy > 1.0) {
      return where + ": occupancy outside [0, 1]";
    }
    const auto it = last_at.find(s.channel);
    if (it != last_at.end() && s.at <= it->second) {
      return where + ": timestamps not strictly increasing on channel " +
             std::to_string(s.channel);
    }
    last_at[s.channel] = s.at;
  }
  return std::nullopt;
}

OccupancyTimeline read_occupancy(std::istream& is) {
  OccupancyTimeline out;
  RowChecker checker;
  std::string line;
  std::size_t line_no = 0;
  // kUnknown until the first data line picks the format for the file.
  enum class Format { kUnknown, kCsv, kJsonl } format = Format::kUnknown;
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (skippable(line)) continue;
    if (format == Format::kUnknown) {
      format = line[0] == '{' ? Format::kJsonl : Format::kCsv;
      if (format == Format::kCsv && is_csv_header(line)) continue;
    }
    if (format == Format::kCsv) {
      parse_csv_row(line_no, line, checker, out);
    } else {
      parse_jsonl_row(line_no, line, checker, out);
    }
  }
  return out;
}

OccupancyTimeline read_occupancy_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    throw std::runtime_error("cannot open occupancy trace: " + path);
  }
  return read_occupancy(f);
}

std::optional<OccupancyTimeline> ingest_file(const std::string& path,
                                             std::string* error) {
  try {
    return read_occupancy_file(path);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

void write_occupancy_csv(std::ostream& os, const OccupancyTimeline& timeline) {
  os << "t_s,channel,occupancy\n";
  for (const OccupancySample& s : timeline.samples) {
    os << num17(to_seconds(s.at)) << ',' << s.channel << ','
       << num17(s.occupancy) << '\n';
  }
}

bool write_occupancy_csv(const std::string& path,
                         const OccupancyTimeline& timeline) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return false;
  write_occupancy_csv(f, timeline);
  return static_cast<bool>(f);
}

std::string occupancy_to_csv(const OccupancyTimeline& timeline) {
  std::ostringstream os;
  write_occupancy_csv(os, timeline);
  return os.str();
}

}  // namespace spider::tracein
