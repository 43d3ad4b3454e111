#include "trace/handoff.hpp"

namespace spider::trace {

void HandoffTracker::attach(core::LinkManager& manager) {
  manager.set_callbacks({
      .on_link_up = [this](core::VirtualInterface&) { record_link_up(); },
      .on_link_down = [this](core::VirtualInterface&) { record_link_down(); },
  });
}

void HandoffTracker::attach(base::StockWifiDriver& stock) {
  stock.set_callbacks({
      .on_link_up = [this](core::VirtualInterface&) { record_link_up(); },
      .on_link_down = [this](core::VirtualInterface&) { record_link_down(); },
  });
}

void HandoffTracker::record_link_up() {
  events_.push_back({sim_.now(), true});
}

void HandoffTracker::record_link_down() {
  events_.push_back({sim_.now(), false});
}

HandoffTracker::Summary HandoffTracker::summarize() const {
  Summary s;
  std::vector<double> gaps;
  int live = 0;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (e.up) {
      ++live;
      continue;
    }
    --live;
    if (live > 0) {
      // Another link was already carrying traffic: seamless hand-off.
      ++s.handoffs;
      ++s.soft;
      continue;
    }
    // Hard hand-off: measure the outage until the next link-up (a trailing
    // teardown with no later link is an outage, not a hand-off).
    for (std::size_t j = i + 1; j < events_.size(); ++j) {
      if (events_[j].up) {
        ++s.handoffs;
        gaps.push_back(to_seconds(events_[j].at - e.at));
        break;
      }
    }
  }
  s.gap_seconds = Cdf(std::move(gaps));
  s.soft_fraction =
      s.handoffs == 0 ? 0.0 : static_cast<double>(s.soft) / s.handoffs;
  return s;
}

}  // namespace spider::trace
