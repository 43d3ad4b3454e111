#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/link_manager.hpp"
#include "sim/simulator.hpp"
#include "transport/download.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace spider::trace {

/// Web-browsing workload: a user fetches objects of heavy-tailed sizes,
/// one at a time, with think-time between fetches. A fetch runs over
/// whichever Spider link is up; if the link dies mid-transfer the fetch is
/// aborted (and retried as the next fetch, as a browser reload would).
///
/// This turns the paper's §4.7 distribution comparison into a behavioural
/// experiment: what fraction of typical user transfers actually complete
/// under each Spider configuration?
struct WebFlowConfig {
  /// Object size ~ lognormal(median, sigma), clamped. Median ~30 KB with a
  /// long tail matches late-2000s web measurement studies.
  double size_median_bytes = 30e3;
  double size_sigma = 1.6;
  double size_cap_bytes = 5e6;
  /// Think time between fetches ~ exponential(mean).
  Time think_mean = sec(2);
};

class WebFlowHarness {
 public:
  struct FlowRecord {
    std::size_t size_bytes = 0;
    Time started{0};
    Time finished{0};   ///< zero when aborted
    bool completed = false;
  };

  struct Summary {
    std::size_t attempted = 0;
    std::size_t completed = 0;
    std::size_t aborted = 0;
    double completion_rate = 0.0;
    Cdf completion_times_s;       ///< completed fetches only
    double median_completion_s = 0.0;
  };

  WebFlowHarness(sim::Simulator& simulator, wire::Ipv4 server_ip,
                 WebFlowConfig config, Rng rng);

  void attach(core::LinkManager& manager);

  Summary summarize();

 private:
  void link_up(core::VirtualInterface& vif);
  void link_down(core::VirtualInterface& vif);
  void maybe_start_flow();
  void start_flow(core::VirtualInterface& vif);
  void flow_completed();
  std::size_t draw_size();

  sim::Simulator& sim_;
  wire::Ipv4 server_ip_;
  WebFlowConfig config_;
  Rng rng_;

  std::vector<core::VirtualInterface*> up_;
  core::VirtualInterface* current_vif_ = nullptr;
  std::unique_ptr<tcp::DownloadClient> current_;
  std::optional<std::size_t> pending_size_;  ///< retry payload after abort
  std::vector<FlowRecord> log_;
  sim::EventHandle think_timer_;
  bool thinking_ = false;
};

}  // namespace spider::trace
