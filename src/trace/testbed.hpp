#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/stock_wifi.hpp"
#include "core/link_manager.hpp"
#include "mac/ap.hpp"
#include "net/ap_network.hpp"
#include "net/wired.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "trace/metrics.hpp"
#include "transport/download.hpp"
#include "util/random.hpp"

namespace spider::trace {

/// Assembles the common fixture of every experiment: simulator, medium,
/// wired core with one download/ping server, and any number of APs (MAC +
/// DHCP + gateway + rate-limited backhaul). Tests and benches build their
/// topologies on top of this instead of hand-wiring eight objects each.
struct TestbedConfig {
  std::uint64_t seed = 1;
  phy::PropagationConfig propagation;
  wire::Ipv4 server_ip = wire::Ipv4(1, 1, 1, 1);
  tcp::TcpConfig tcp;
  /// Medium knobs (neighbor index, grid cell size, ARQ retry budget),
  /// forwarded verbatim. Defaults keep the spatial grid on; experiments
  /// flip `medium.neighbor_index` to brute force for differential runs.
  phy::MediumConfig medium;
};

class Testbed {
 public:
  struct ApSpec {
    std::string ssid = "open-ap";
    wire::Channel channel = 6;
    Position position{0.0, 0.0};
    BitRate backhaul = mbps(1.5);
    Time backhaul_delay = msec(10);
    bool internet_connected = true;
    net::DhcpServerConfig dhcp;
    mac::ApConfig mac;
  };

  struct ApBundle {
    std::unique_ptr<mac::AccessPoint> ap;
    std::unique_ptr<net::ApNetwork> network;
  };

  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Adds and starts an AP; subnets 10.0.x.0/24 are assigned in order.
  /// The returned reference stays valid for the Testbed's lifetime
  /// (bundles live in a deque).
  ApBundle& add_ap(const ApSpec& spec);

  /// Fresh MAC-address block for a client (radio + interfaces). Client
  /// blocks start at 0xC00000, above every AP BSSID (0xA00000+).
  std::uint64_t next_client_mac_block();

  wire::Ipv4 server_ip() const { return config_.server_ip; }
  std::deque<ApBundle>& aps() { return aps_; }
  Rng fork_rng() { return rng_.fork(); }

  sim::Simulator sim;
  phy::Medium medium;
  net::WiredNetwork wired;
  net::Host server;
  tcp::DownloadServer downloads;

 private:
  TestbedConfig config_;
  Rng rng_;
  std::deque<ApBundle> aps_;
  std::uint64_t next_subnet_ = 0;
  std::uint64_t next_client_block_ = 0;
};

/// Binds bulk-download applications to a driver's links: on every link-up
/// a fresh TCP download starts through that interface; delivered bytes
/// feed the ThroughputRecorder. Works for Spider/FatVAP (via LinkManager)
/// and the stock driver alike.
class DownloadHarness {
 public:
  DownloadHarness(sim::Simulator& simulator, wire::Ipv4 server_ip,
                  ThroughputRecorder& recorder);

  void attach(core::LinkManager& manager);
  void attach(base::StockWifiDriver& stock);

  /// Optional additional callbacks, invoked after the harness's own
  /// handling (install before or after attach; the harness owns the
  /// driver-side slot and forwards).
  void set_extra_callbacks(core::LinkManager::Callbacks extra) {
    extra_ = std::move(extra);
  }

 private:
  void link_up(core::VirtualInterface& vif);
  void link_down(core::VirtualInterface& vif);

  sim::Simulator& sim_;
  wire::Ipv4 server_ip_;
  ThroughputRecorder& recorder_;
  core::LinkManager::Callbacks extra_;
  // Keyed by interface identity (not index): a harness may be attached to
  // several drivers whose interfaces share index values.
  std::unordered_map<const core::VirtualInterface*,
                     std::unique_ptr<tcp::DownloadClient>> clients_;
};

}  // namespace spider::trace
