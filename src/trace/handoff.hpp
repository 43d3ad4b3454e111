#pragma once

#include <vector>

#include "baseline/stock_wifi.hpp"
#include "core/link_manager.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace spider::trace {

/// Hand-off quality tracker. §5 argues Spider is "the only practical soft
/// hand-off solution using client side modifications": because several
/// interfaces hold APs concurrently, a dying link often overlaps the next
/// one (make-before-break). This harness records link up/down events and
/// computes, for every link teardown, the gap until connectivity resumed —
/// negative gaps mean another link was already up (a soft hand-off).
class HandoffTracker {
 public:
  explicit HandoffTracker(sim::Simulator& simulator) : sim_(simulator) {}

  void attach(core::LinkManager& manager);
  void attach(base::StockWifiDriver& stock);

  /// Direct event feed for custom drivers (attach() routes through these).
  void record_link_up();
  void record_link_down();

  struct Summary {
    std::size_t handoffs = 0;       ///< teardown followed by another link
    std::size_t soft = 0;           ///< overlap existed (gap <= 0)
    double soft_fraction = 0.0;
    Cdf gap_seconds;                ///< hard hand-offs only (gap > 0)
  };

  /// Computes the summary from the recorded event stream.
  Summary summarize() const;

 private:
  struct Event {
    Time at;
    bool up;
  };

  sim::Simulator& sim_;
  std::vector<Event> events_;
};

}  // namespace spider::trace
