#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"
#include "util/time.hpp"

namespace spider::trace {

/// Time-binned goodput collector computing the paper's four §4.3 metrics:
///
///  1. average throughput  — bytes delivered / experiment duration;
///  2. average connectivity — fraction of bins with non-zero delivery;
///  3. disruption lengths   — maximal runs of zero bins;
///  4. instantaneous bandwidth — per-bin rate over non-zero bins.
///
/// Bins are 1 s by default, matching the paper's definition of
/// connectivity as "the percentage of time that a non-zero amount of data
/// was transferred".
class ThroughputRecorder {
 public:
  explicit ThroughputRecorder(Time bin = sec(1)) : bin_(bin) {}

  void record(Time now, std::size_t bytes);

  /// Extends the timeline with trailing zero bins up to `end`.
  void finalize(Time end);

  std::uint64_t total_bytes() const { return total_; }
  std::size_t bins() const { return bins_.size(); }
  Time bin_width() const { return bin_; }

  double average_throughput_kBps() const;
  double connectivity_fraction() const;

  /// Maximal runs of consecutive non-zero bins, in seconds (Fig. 11).
  std::vector<double> connection_durations() const;
  /// Maximal runs of consecutive zero bins, in seconds (Fig. 12).
  std::vector<double> disruption_durations() const;
  /// KB/s of each non-zero bin (Fig. 13).
  std::vector<double> instantaneous_kBps() const;

  const std::vector<std::uint64_t>& raw_bins() const { return bins_; }

 private:
  Time bin_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
};

/// Resilience bookkeeping for fault-injection experiments: counts faults
/// as they fire and watches each client's live-link population. An outage
/// is a window in which a client that previously had connectivity has no
/// link at all; the time from outage start to that client's next link-up
/// is one time-to-recover sample. The initial join (never had a link yet)
/// is not an outage, and an outage still open at experiment end counts as
/// unrecovered.
///
/// Link events carry the client's identity (the engine passes the MAC
/// block), so outage detection is per client: one client losing its last
/// link is an outage even while another client stays connected.
class ResilienceRecorder {
 public:
  void note_fault(Time now);
  void note_link_up(Time now, std::uint64_t client = 0);
  void note_link_down(Time now, std::uint64_t client = 0);

  std::uint64_t faults_injected() const { return faults_; }
  std::uint64_t outages() const { return outages_; }
  std::uint64_t recoveries() const { return recoveries_; }
  /// Seconds from losing the last link to the next link-up, ordered by
  /// (recovery time, client): a total order, so simultaneous recoveries
  /// sample in client order whatever order their events ran in.
  Cdf time_to_recover() const;
  Time last_fault_at() const { return last_fault_; }

 private:
  struct ClientLinks {
    std::size_t links = 0;
    bool had_link = false;
    bool in_outage = false;
    Time outage_start{0};
  };
  struct TtrSample {
    Time at{0};
    std::uint64_t client = 0;
    double seconds = 0.0;
  };

  std::uint64_t faults_ = 0;
  std::uint64_t outages_ = 0;
  std::uint64_t recoveries_ = 0;
  Time last_fault_{0};
  std::unordered_map<std::uint64_t, ClientLinks> clients_;
  std::vector<TtrSample> ttr_;
};

}  // namespace spider::trace
