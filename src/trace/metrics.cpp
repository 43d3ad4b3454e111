#include "trace/metrics.hpp"

#include <algorithm>

namespace spider::trace {

void ThroughputRecorder::record(Time now, std::size_t bytes) {
  const auto index = static_cast<std::size_t>(now.count() / bin_.count());
  if (bins_.size() <= index) bins_.resize(index + 1, 0);
  bins_[index] += bytes;
  total_ += bytes;
}

void ThroughputRecorder::finalize(Time end) {
  const auto bins_needed = static_cast<std::size_t>(
      (end.count() + bin_.count() - 1) / bin_.count());
  if (bins_.size() < bins_needed) bins_.resize(bins_needed, 0);
}

double ThroughputRecorder::average_throughput_kBps() const {
  if (bins_.empty()) return 0.0;
  const double seconds = static_cast<double>(bins_.size()) * to_seconds(bin_);
  return static_cast<double>(total_) / seconds / 1e3;
}

double ThroughputRecorder::connectivity_fraction() const {
  if (bins_.empty()) return 0.0;
  std::size_t nonzero = 0;
  for (auto b : bins_) nonzero += b > 0 ? 1 : 0;
  return static_cast<double>(nonzero) / static_cast<double>(bins_.size());
}

std::vector<double> ThroughputRecorder::connection_durations() const {
  std::vector<double> out;
  std::size_t run = 0;
  for (auto b : bins_) {
    if (b > 0) {
      ++run;
    } else if (run > 0) {
      out.push_back(static_cast<double>(run) * to_seconds(bin_));
      run = 0;
    }
  }
  if (run > 0) out.push_back(static_cast<double>(run) * to_seconds(bin_));
  return out;
}

std::vector<double> ThroughputRecorder::disruption_durations() const {
  std::vector<double> out;
  std::size_t run = 0;
  for (auto b : bins_) {
    if (b == 0) {
      ++run;
    } else if (run > 0) {
      out.push_back(static_cast<double>(run) * to_seconds(bin_));
      run = 0;
    }
  }
  if (run > 0) out.push_back(static_cast<double>(run) * to_seconds(bin_));
  return out;
}

std::vector<double> ThroughputRecorder::instantaneous_kBps() const {
  std::vector<double> out;
  for (auto b : bins_) {
    if (b > 0) {
      out.push_back(static_cast<double>(b) / to_seconds(bin_) / 1e3);
    }
  }
  return out;
}

void ResilienceRecorder::note_fault(Time now) {
  ++faults_;
  last_fault_ = now;
}

void ResilienceRecorder::note_link_up(Time now, std::uint64_t client) {
  ClientLinks& c = clients_[client];
  ++c.links;
  c.had_link = true;
  if (c.in_outage) {
    c.in_outage = false;
    ++recoveries_;
    ttr_.push_back({now, client, to_seconds(now - c.outage_start)});
  }
}

void ResilienceRecorder::note_link_down(Time now, std::uint64_t client) {
  ClientLinks& c = clients_[client];
  if (c.links > 0) --c.links;
  if (c.links == 0 && c.had_link && !c.in_outage) {
    c.in_outage = true;
    c.outage_start = now;
    ++outages_;
  }
}

Cdf ResilienceRecorder::time_to_recover() const {
  // (time, client) is a total order over recoveries, so the sample vector
  // (which the resilience digests hash verbatim) never depends on the order
  // simultaneous link-up events happened to run in.
  std::vector<TtrSample> sorted = ttr_;
  std::sort(sorted.begin(), sorted.end(),
            [](const TtrSample& a, const TtrSample& b) {
              return a.at != b.at ? a.at < b.at : a.client < b.client;
            });
  Cdf out;
  for (const TtrSample& s : sorted) out.add(s.seconds);
  return out;
}

}  // namespace spider::trace
