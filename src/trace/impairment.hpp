#pragma once

#include <optional>
#include <string>
#include <utility>

#include "fault/fault.hpp"
#include "tracein/occupancy.hpp"
#include "tracein/replay.hpp"

namespace spider::trace {

/// The one declarative answer to "what impairs this run?". Before this
/// existed the fault schedule, the (planned) trace path, and their knobs
/// were scattered ad-hoc fields; every consumer (validate, the engine,
/// the serve protocol, spider_campaign, benches) now reads this single
/// source, so a recorded occupancy trace is a first-class scenario input
/// everywhere a synthetic schedule is.
///
/// Three kinds:
///   kSynthetic       a hand-built fault::FaultSchedule (the historical
///                    path; an empty schedule means "no impairments")
///   kTraceFile       a CSV/JSONL channel-occupancy recording on disk,
///                    ingested and compiled at run start
///   kInlineTimeline  an in-memory tracein::OccupancyTimeline (tests,
///                    wire-transported recordings)
///
/// Trace-backed kinds compile through tracein::compile_schedule under
/// `replay`, so replayed runs reuse the fault injector and resilience
/// metrics unchanged, and the determinism contract is inherited: the same
/// trace file + seed is byte-identical across --jobs and across
/// re-ingests of the same file.
struct ImpairmentSource {
  enum class Kind { kSynthetic, kTraceFile, kInlineTimeline };

  Kind kind = Kind::kSynthetic;
  /// kSynthetic's timeline. Default-constructed sources are synthetic and
  /// empty, so `config.impairments.schedule.ap_blackout(...)` keeps the
  /// old builder ergonomics.
  fault::FaultSchedule schedule;
  std::string trace_path;                ///< kTraceFile
  tracein::OccupancyTimeline timeline;   ///< kInlineTimeline
  /// Occupancy -> impairment compilation knobs (trace-backed kinds only).
  tracein::ReplayOptions replay;

  static ImpairmentSource synthetic(fault::FaultSchedule s) {
    ImpairmentSource out;
    out.kind = Kind::kSynthetic;
    out.schedule = std::move(s);
    return out;
  }
  static ImpairmentSource trace_file(std::string path,
                                     tracein::ReplayOptions options = {}) {
    ImpairmentSource out;
    out.kind = Kind::kTraceFile;
    out.trace_path = std::move(path);
    out.replay = options;
    return out;
  }
  static ImpairmentSource inline_timeline(tracein::OccupancyTimeline t,
                                          tracein::ReplayOptions options = {}) {
    ImpairmentSource out;
    out.kind = Kind::kInlineTimeline;
    out.timeline = std::move(t);
    out.replay = options;
    return out;
  }

  /// True when this source can impair nothing: a synthetic empty schedule
  /// or an inline empty timeline. A trace file is never "none" without
  /// ingesting it, so it always counts as impairing (armed through the
  /// injector).
  bool none() const {
    switch (kind) {
      case Kind::kSynthetic: return schedule.empty();
      case Kind::kTraceFile: return false;
      case Kind::kInlineTimeline: return timeline.empty();
    }
    return true;
  }

  /// The validate()/protocol field this source's problems are reported
  /// against: "impairments.schedule", "impairments.trace_path", or
  /// "impairments.timeline".
  const char* field_name() const;
  /// Wire name: "synthetic" | "trace-file" | "inline-timeline".
  const char* kind_name() const;

  /// Resolves to the schedule the injector arms. kSynthetic returns the
  /// schedule verbatim; trace-backed kinds ingest (kTraceFile) and
  /// compile. Failure (unreadable file, malformed rows with their line
  /// numbers, bad inline timeline) lands in `error`; callers that ran
  /// validate() first never see one.
  std::optional<fault::FaultSchedule> resolve(std::string* error) const;
};

bool impairment_kind_from_string(const std::string& name,
                                 ImpairmentSource::Kind* out);

}  // namespace spider::trace
