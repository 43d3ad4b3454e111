#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "util/time.hpp"
#include "wire/frame.hpp"

namespace spider::tracein {

/// One row of a channel-occupancy recording: over the sampling window that
/// starts at `at`, `occupancy` is the fraction of air time channel
/// `channel` was observed busy (carrier sensed / energy above threshold).
/// This is the unit real monitors emit — a per-window duty cycle, not
/// per-frame events — which is what makes recordings replayable: the
/// window boundary is the finest granularity the replay can honour
/// (DESIGN.md §12 discusses the sampling-granularity pitfall).
struct OccupancySample {
  Time at{0};
  wire::Channel channel = 0;
  double occupancy = 0.0;  ///< busy fraction in [0, 1]

  bool operator==(const OccupancySample& o) const {
    return at == o.at && channel == o.channel && occupancy == o.occupancy;
  }
};

/// A parsed recording: samples in file order (ingest enforces per-channel
/// monotone timestamps, so file order is also a valid replay order). The
/// timeline is plain data — compiling it into an executable impairment
/// schedule is replay.hpp's job, so the same recording can be replayed
/// under different loss mappings without re-ingesting.
struct OccupancyTimeline {
  std::vector<OccupancySample> samples;

  bool empty() const { return samples.empty(); }
  std::size_t size() const { return samples.size(); }

  /// End of the last sample's timestamp (zero when empty). The window of
  /// the final sample extends past this; see replay.hpp.
  Time span() const;

  /// Distinct channels present, ascending.
  std::vector<wire::Channel> channels() const;

  /// Structural re-validation for timelines built in code rather than
  /// ingested (ingest already enforces all of this with line numbers):
  /// non-negative timestamps, per-channel strictly increasing times,
  /// occupancy in [0, 1], channels in the 2.4 GHz band. Returns the first
  /// problem, or nullopt when the timeline is replayable.
  std::optional<std::string> check() const;

  bool operator==(const OccupancyTimeline& o) const {
    return samples == o.samples;
  }
};

/// Ingests one occupancy recording. Two formats, detected per file from
/// the first data line:
///
///   CSV    header `t_s,channel,occupancy` (optional), then one
///          `<seconds>,<channel>,<busy fraction>` row per sample.
///   JSONL  one `{"t_s":X,"channel":N,"occupancy":F}` object per line
///          (detected by a leading '{').
///
/// Blank lines and `#` comment lines are skipped in both formats. Rows
/// must carry finite non-negative timestamps, strictly increasing per
/// channel (equal timestamps for one channel are duplicates, earlier ones
/// are out of order — both rejected), occupancy in [0, 1], and a known
/// channel. Malformed input throws std::runtime_error whose message names
/// the 1-based line: "occupancy trace line N: ...".
OccupancyTimeline read_occupancy(std::istream& is);
OccupancyTimeline read_occupancy_file(const std::string& path);

/// Non-throwing ingest for validation paths: returns nullopt and fills
/// `error` (same line-numbered message) instead of throwing.
std::optional<OccupancyTimeline> ingest_file(const std::string& path,
                                             std::string* error);

/// Serializes a timeline as the canonical CSV form: full-precision
/// timestamps so ingest -> serialize -> ingest is byte-identical (the
/// determinism contract ext_trace_replay and test_tracein pin).
void write_occupancy_csv(std::ostream& os, const OccupancyTimeline& timeline);
bool write_occupancy_csv(const std::string& path,
                         const OccupancyTimeline& timeline);
std::string occupancy_to_csv(const OccupancyTimeline& timeline);

}  // namespace spider::tracein
