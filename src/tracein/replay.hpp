#pragma once

#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "tracein/occupancy.hpp"
#include "util/time.hpp"

namespace spider::tracein {

/// How a recorded busy fraction becomes a medium impairment. Replay reuses
/// the fault injector unchanged (a compiled schedule is just FaultSpecs),
/// so trace-driven runs inherit the injector's determinism contract and
/// the resilience metrics for free.
enum class ReplayMapping {
  /// Each sample window becomes one kChannelInterference fault: constant
  /// extra loss = occupancy * loss_scale over the window. Faithful to the
  /// recording's granularity — sub-window burstiness is averaged away
  /// (the sampling-granularity pitfall, DESIGN.md §12).
  kInterference,
  /// Each sample window becomes one kChannelBurstLoss fault whose
  /// Gilbert-Elliott dwells are sized so the expected busy fraction equals
  /// the recorded occupancy (burst_mean = occupancy * burst_dwell,
  /// gap_mean = (1 - occupancy) * burst_dwell). Re-introduces sub-window
  /// burstiness statistically; the dwell draws come from the injector's
  /// forked stream, so runs stay deterministic per (trace, seed).
  kBurst,
};

const char* to_string(ReplayMapping mapping);
bool replay_mapping_from_string(const std::string& name, ReplayMapping* out);

/// Knobs of the occupancy -> impairment compilation.
struct ReplayOptions {
  ReplayMapping mapping = ReplayMapping::kInterference;
  /// Extra-loss probability per unit occupancy (capped at 1.0). 1.0 says
  /// "a fully busy channel loses everything"; lower values model capture
  /// effect / rate adaptation riding over the interferer.
  double loss_scale = 1.0;
  /// Windows below this busy fraction compile to nothing — recorded noise
  /// floors would otherwise bury the schedule in microscopic faults.
  double min_occupancy = 0.05;
  /// Window length of a channel's final sample (and of single-sample
  /// channels): there is no next row to close it, so this does. Interior
  /// windows always run to the channel's next sample.
  Time tail_window = sec(1);
  /// Mean good+bad cycle length for ReplayMapping::kBurst.
  Time burst_dwell = msec(200);

  /// Structural check used by ScenarioConfig::validate(); returns the
  /// first problem as "field: message" (fields are relative, e.g.
  /// "loss_scale"), or nullopt when compilable.
  std::optional<std::string> check() const;
};

/// Compiles a recording into a deterministic fault schedule: one channel
/// fault per qualifying sample window, emitted in file order. A pure
/// function of (timeline, options) — byte-identical schedules across
/// re-ingests of the same file is the replay determinism contract.
fault::FaultSchedule compile_schedule(const OccupancyTimeline& timeline,
                                      const ReplayOptions& options = {});

}  // namespace spider::tracein
