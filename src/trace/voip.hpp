#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/link_manager.hpp"
#include "sim/simulator.hpp"
#include "transport/cbr.hpp"
#include "util/stats.hpp"

namespace spider::trace {

/// Drives a VoIP-like workload over Spider's links: whenever a link comes
/// up, the harness subscribes to a downlink CBR stream through it and
/// measures what a real-time application would experience. §4.3 asks
/// whether Spider's disruption profile "can support interactive
/// applications such as VoIP"; this answers it behaviourally rather than
/// by comparing distributions.
///
/// Each link carries its own call leg (its own flow id); the summary pools
/// the per-leg measurements and the wall-clock voice availability.
class VoipHarness {
 public:
  struct CallRecord {
    Time started{0};
    Time ended{0};
    std::uint64_t packets = 0;
    double delivery_ratio = 0.0;
    double mean_delay_s = 0.0;
    double jitter_s = 0.0;
    Time longest_gap{0};
  };

  struct Summary {
    std::size_t calls = 0;
    std::uint64_t packets_received = 0;
    double mean_delivery_ratio = 0.0;  ///< weighted by packets expected
    double mean_delay_s = 0.0;
    double mean_jitter_s = 0.0;
    /// Fraction of 1-second bins (over `duration`) with at least
    /// `voice_ok_fraction` of the nominal packet rate arriving.
    double voice_availability = 0.0;
    Time longest_gap{0};
  };

  VoipHarness(sim::Simulator& simulator, wire::Ipv4 server_ip,
              tcp::CbrConfig config = {});

  void attach(core::LinkManager& manager);

  /// Finalises per-second accounting and aggregates.
  Summary summarize(Time duration, double voice_ok_fraction = 0.8);

 private:
  struct ActiveCall {
    std::unique_ptr<tcp::CbrSink> sink;
    std::unique_ptr<sim::PeriodicTimer> subscribe_timer;
    Time started{0};
  };

  void link_up(core::VirtualInterface& vif);
  void link_down(core::VirtualInterface& vif);
  void finish_call(core::VirtualInterface& vif, ActiveCall& call);

  sim::Simulator& sim_;
  wire::Ipv4 server_ip_;
  tcp::CbrConfig config_;
  std::unordered_map<const core::VirtualInterface*, ActiveCall> active_;
  std::vector<CallRecord> finished_;
  std::vector<std::uint32_t> per_second_packets_;
};

}  // namespace spider::trace
