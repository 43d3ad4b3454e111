#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mac/ap.hpp"
#include "net/ap_network.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace spider::fault {

/// The fault taxonomy, one entry per misbehaviour the paper's testbed ran
/// into (Table 3's DHCP failures, lost handshakes, dead backhauls) plus the
/// channel impairments trace-driven Wi-Fi emulation work singles out.
///
/// Layers: kChannel* target the PHY medium, kAp*/kBeacon*/kPsm* the AP MAC,
/// kDhcp*/kGateway* the network behind the AP's Ethernet port.
enum class FaultKind {
  /// Gilbert-Elliott burst loss on one channel: the injector alternates
  /// good/bad episodes (exponential dwells) for the fault's duration; in a
  /// bad episode every frame on the channel suffers `intensity` extra loss.
  kChannelBurstLoss,
  /// Constant extra loss on one channel for the whole window (e.g. a
  /// microwave oven or a co-channel neighbour saturating the band).
  kChannelInterference,
  /// AP loses power: beacons stop, the association table and PSM buffers
  /// are wiped, every frame is ignored until power returns.
  kApBlackout,
  /// Power cycle: like kApBlackout, but the DHCP server also forgets all
  /// leases (consumer gateways keep the pool in RAM), so clients holding
  /// cached leases come back to a server that no longer knows them.
  kApReboot,
  /// The AP stops beaconing but still answers probes/auth/assoc/data —
  /// passive scanners go blind while existing links keep working.
  kBeaconSilence,
  /// Instantaneous: all PSM-buffered downlink frames are discarded
  /// (firmware buffer reclaim); TCP sees a burst of loss after the switch.
  kPsmFlush,
  /// DHCP daemon stops responding entirely (overloaded gateway).
  kDhcpStall,
  /// Server OFFERs normally but NAKs every REQUEST (allocation races /
  /// upstream address checks), the classic NAK-after-OFFER failure.
  kDhcpNakStorm,
  /// Instantaneous: all leases forgotten mid-lease without a reboot.
  kDhcpPoolReset,
  /// The WAN side drops: gateway pings go unanswered and nothing is
  /// forwarded in either direction, killing the end-to-end path while
  /// association and DHCP stay healthy.
  kGatewayFlap,
};

const char* to_string(FaultKind kind);
/// Inverse of to_string (exact wire names, e.g. "ap-blackout"); false on an
/// unknown name. Used by scenario serde to carry schedules across the wire.
bool fault_kind_from_string(const std::string& name, FaultKind* out);

/// Channel faults target an 802.11 channel number; every other kind
/// targets an AP.
inline bool is_channel_fault(FaultKind kind) {
  return kind == FaultKind::kChannelBurstLoss ||
         kind == FaultKind::kChannelInterference;
}

/// Sentinel target for entity-kind faults: the fault applies to every
/// registered AP at once (a shared backhaul dying takes every gateway with
/// it). Any negative target means "all"; this name is the canonical one.
inline constexpr int kAllAps = -1;

/// One scheduled fault: at `at`, start `kind` on `target` for `duration`.
/// Instantaneous kinds (kPsmFlush, kDhcpPoolReset) ignore `duration`.
struct FaultSpec {
  FaultKind kind = FaultKind::kApBlackout;
  Time at{0};
  Time duration{0};
  /// AP faults: index into the injector's AP list, taken modulo the list
  /// size so sweeps can be written without knowing the deployment, or
  /// kAllAps for a deployment-wide fault. Channel faults: the 802.11
  /// channel number itself.
  int target = 0;
  /// Extra loss probability for channel faults (bad-state loss for bursts).
  double intensity = 0.9;
  /// Gilbert-Elliott mean dwell times (kChannelBurstLoss only).
  Time burst_mean = msec(250);
  Time gap_mean = msec(750);
};

/// A scriptable fault timeline. Build it once, hand it to a FaultInjector;
/// the same schedule + the same seed reproduces the identical run.
class FaultSchedule {
 public:
  FaultSchedule& add(const FaultSpec& spec) {
    specs_.push_back(spec);
    return *this;
  }

  FaultSchedule& ap_blackout(Time at, Time outage, int ap) {
    return add({.kind = FaultKind::kApBlackout, .at = at, .duration = outage,
                .target = ap});
  }
  FaultSchedule& ap_reboot(Time at, Time outage, int ap) {
    return add({.kind = FaultKind::kApReboot, .at = at, .duration = outage,
                .target = ap});
  }
  FaultSchedule& beacon_silence(Time at, Time duration, int ap) {
    return add({.kind = FaultKind::kBeaconSilence, .at = at,
                .duration = duration, .target = ap});
  }
  FaultSchedule& psm_flush(Time at, int ap) {
    return add({.kind = FaultKind::kPsmFlush, .at = at, .target = ap});
  }
  FaultSchedule& dhcp_stall(Time at, Time duration, int ap) {
    return add({.kind = FaultKind::kDhcpStall, .at = at, .duration = duration,
                .target = ap});
  }
  FaultSchedule& dhcp_nak_storm(Time at, Time duration, int ap) {
    return add({.kind = FaultKind::kDhcpNakStorm, .at = at,
                .duration = duration, .target = ap});
  }
  FaultSchedule& dhcp_pool_reset(Time at, int ap) {
    return add({.kind = FaultKind::kDhcpPoolReset, .at = at, .target = ap});
  }
  FaultSchedule& gateway_flap(Time at, Time outage, int ap) {
    return add({.kind = FaultKind::kGatewayFlap, .at = at, .duration = outage,
                .target = ap});
  }
  FaultSchedule& channel_interference(Time at, Time duration,
                                      wire::Channel channel, double extra) {
    return add({.kind = FaultKind::kChannelInterference, .at = at,
                .duration = duration, .target = channel, .intensity = extra});
  }
  FaultSchedule& burst_loss(Time at, Time duration, wire::Channel channel,
                            double bad_loss, Time burst_mean = msec(250),
                            Time gap_mean = msec(750)) {
    return add({.kind = FaultKind::kChannelBurstLoss, .at = at,
                .duration = duration, .target = channel,
                .intensity = bad_loss, .burst_mean = burst_mean,
                .gap_mean = gap_mean});
  }

  bool empty() const { return specs_.empty(); }
  std::size_t size() const { return specs_.size(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

 private:
  std::vector<FaultSpec> specs_;
};

/// One fault as actually injected (the log entry for metrics/export).
struct InjectedFault {
  FaultSpec spec;
  Time started{0};
  Time cleared{0};
  bool active = false;
};

/// The fault subsystem's RNG root for a scenario: a splitmix scramble of
/// the scenario seed under a fixed salt. The injector master derives from
/// this — never from assembly-order forks — so a spec's dwell stream is a
/// pure function of (scenario seed, position in the schedule), whatever
/// else the testbed forks while it is assembled.
std::uint64_t fault_stream_seed(std::uint64_t scenario_seed);

/// Drives a FaultSchedule against live simulation objects.
///
/// Targets are registered up front (the medium, then each AP with its
/// network); arm() schedules every start/stop transition on the simulator.
/// All randomness (burst dwells) comes from per-spec streams forked off the
/// injector's own Rng in schedule order, so adding faults never perturbs
/// the stochastic streams of the stack under test and skipped specs never
/// shift a later spec's dwells.
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, Rng rng);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void attach_medium(phy::Medium& medium) { medium_ = &medium; }
  /// Registers an AP target; `network` may be null when only MAC-layer
  /// faults will address this AP. Returns the target's index.
  std::size_t add_ap(mac::AccessPoint& ap, net::ApNetwork* network);

  /// Invoked at each fault onset (metrics hook).
  void set_fault_observer(std::function<void(const FaultSpec&)> observer) {
    observer_ = std::move(observer);
  }

  /// Schedules the whole timeline. May be called once per injector.
  void arm(const FaultSchedule& schedule);

  const std::vector<InjectedFault>& log() const { return log_; }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t active_faults() const { return active_; }

 private:
  struct ApTarget {
    mac::AccessPoint* ap;
    net::ApNetwork* network;
  };

  ApTarget* resolve_ap(int target);
  bool any_applicable(const FaultSpec& spec) const;
  /// Applies `f` to the spec's AP target, or to every applicable AP for a
  /// global (target < 0) spec.
  template <typename F>
  void for_targets(const FaultSpec& spec, F&& f);
  void arm_one(const FaultSpec& spec, Rng rng);
  void begin(std::size_t log_index);
  void end(std::size_t log_index);
  /// One Gilbert-Elliott state transition; re-arms itself until the
  /// fault's end time passes.
  void burst_tick(std::size_t log_index, bool bad);

  sim::Simulator& sim_;
  Rng rng_;
  phy::Medium* medium_ = nullptr;
  std::vector<ApTarget> aps_;
  std::function<void(const FaultSpec&)> observer_;
  std::vector<InjectedFault> log_;
  /// Each armed spec's own dwell stream, parallel to log_.
  std::vector<Rng> spec_rngs_;
  std::uint64_t injected_ = 0;
  std::uint64_t active_ = 0;
};

}  // namespace spider::fault
