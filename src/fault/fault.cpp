#include "fault/fault.hpp"

#include <algorithm>

#include "obs/tracer.hpp"

namespace spider::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannelBurstLoss: return "channel-burst-loss";
    case FaultKind::kChannelInterference: return "channel-interference";
    case FaultKind::kApBlackout: return "ap-blackout";
    case FaultKind::kApReboot: return "ap-reboot";
    case FaultKind::kBeaconSilence: return "beacon-silence";
    case FaultKind::kPsmFlush: return "psm-flush";
    case FaultKind::kDhcpStall: return "dhcp-stall";
    case FaultKind::kDhcpNakStorm: return "dhcp-nak-storm";
    case FaultKind::kDhcpPoolReset: return "dhcp-pool-reset";
    case FaultKind::kGatewayFlap: return "gateway-flap";
  }
  return "?";
}

bool fault_kind_from_string(const std::string& name, FaultKind* out) {
  static constexpr FaultKind kAll[] = {
      FaultKind::kChannelBurstLoss, FaultKind::kChannelInterference,
      FaultKind::kApBlackout,       FaultKind::kApReboot,
      FaultKind::kBeaconSilence,    FaultKind::kPsmFlush,
      FaultKind::kDhcpStall,        FaultKind::kDhcpNakStorm,
      FaultKind::kDhcpPoolReset,    FaultKind::kGatewayFlap,
  };
  for (FaultKind kind : kAll) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

namespace {

bool instantaneous(FaultKind kind) {
  return kind == FaultKind::kPsmFlush || kind == FaultKind::kDhcpPoolReset;
}

bool needs_network(FaultKind kind) {
  switch (kind) {
    case FaultKind::kApReboot:
    case FaultKind::kDhcpStall:
    case FaultKind::kDhcpNakStorm:
    case FaultKind::kDhcpPoolReset:
    case FaultKind::kGatewayFlap:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::uint64_t fault_stream_seed(std::uint64_t scenario_seed) {
  // Splitmix finalizer under a fixed salt: decoupled from every
  // assembly-order fork chain.
  std::uint64_t z = scenario_seed + 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

FaultInjector::FaultInjector(sim::Simulator& simulator, Rng rng)
    : sim_(simulator), rng_(rng) {}

std::size_t FaultInjector::add_ap(mac::AccessPoint& ap,
                                  net::ApNetwork* network) {
  aps_.push_back({&ap, network});
  return aps_.size() - 1;
}

FaultInjector::ApTarget* FaultInjector::resolve_ap(int target) {
  if (aps_.empty() || target < 0) return nullptr;
  return &aps_[static_cast<std::size_t>(target) % aps_.size()];
}

bool FaultInjector::any_applicable(const FaultSpec& spec) const {
  for (const ApTarget& t : aps_) {
    if (!needs_network(spec.kind) || t.network != nullptr) return true;
  }
  return false;
}

template <typename F>
void FaultInjector::for_targets(const FaultSpec& spec, F&& f) {
  if (spec.target < 0) {
    // Global: every registered AP, skipping network-less registrations for
    // network-layer kinds (a MAC-only target has no DHCP/gateway to fail).
    for (ApTarget& t : aps_) {
      if (needs_network(spec.kind) && t.network == nullptr) continue;
      f(t);
    }
  } else {
    f(*resolve_ap(spec.target));
  }
}

void FaultInjector::arm(const FaultSchedule& schedule) {
  for (const FaultSpec& spec : schedule.specs()) {
    // One fork per spec in schedule order, before the skip decisions, so a
    // skipped spec never shifts a later spec's dwell stream.
    arm_one(spec, rng_.fork());
  }
}

void FaultInjector::arm_one(const FaultSpec& spec, Rng rng) {
  // Skip specs whose target layer was never registered: a schedule can be
  // reused across topologies (e.g. a medium-only test ignores AP faults).
  if (is_channel_fault(spec.kind)) {
    if (!medium_) return;
  } else if (spec.target < 0) {
    if (!any_applicable(spec)) return;
  } else {
    if (!resolve_ap(spec.target)) return;
    if (needs_network(spec.kind) && !resolve_ap(spec.target)->network) return;
  }

  const std::size_t index = log_.size();
  log_.push_back(InjectedFault{spec});
  spec_rngs_.push_back(std::move(rng));
  sim_.post_at(spec.at, [this, index] { begin(index); });
}

void FaultInjector::begin(std::size_t log_index) {
  InjectedFault& entry = log_[log_index];
  const FaultSpec& spec = entry.spec;
  entry.started = sim_.now();
  entry.active = true;
  ++injected_;
  ++active_;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kFaultBegin,
               .aux = static_cast<std::uint8_t>(spec.kind),
               .channel = static_cast<std::int16_t>(
                   is_channel_fault(spec.kind) ? spec.target : 0),
               .track = obs::track::fault(),
               .id = static_cast<std::uint64_t>(spec.target),
               .value = to_seconds(spec.duration));
  if (observer_) observer_(spec);

  switch (spec.kind) {
    case FaultKind::kChannelBurstLoss:
      burst_tick(log_index, /*bad=*/true);
      return;  // burst_tick owns the end transition
    case FaultKind::kChannelInterference:
      medium_->set_channel_impairment(static_cast<wire::Channel>(spec.target),
                                      spec.intensity);
      break;
    case FaultKind::kApBlackout:
      for_targets(spec, [](ApTarget& t) { t.ap->power_off(); });
      break;
    case FaultKind::kApReboot:
      for_targets(spec, [](ApTarget& t) {
        t.ap->power_off();
        t.network->dhcp().reset_pool();
      });
      break;
    case FaultKind::kBeaconSilence:
      for_targets(spec, [](ApTarget& t) { t.ap->set_beacon_silence(true); });
      break;
    case FaultKind::kPsmFlush:
      for_targets(spec, [](ApTarget& t) { t.ap->purge_psm_buffers(); });
      break;
    case FaultKind::kDhcpStall:
      for_targets(spec, [](ApTarget& t) { t.network->dhcp().set_stalled(true); });
      break;
    case FaultKind::kDhcpNakStorm:
      for_targets(spec,
                  [](ApTarget& t) { t.network->dhcp().set_nak_requests(true); });
      break;
    case FaultKind::kDhcpPoolReset:
      for_targets(spec, [](ApTarget& t) { t.network->dhcp().reset_pool(); });
      break;
    case FaultKind::kGatewayFlap:
      for_targets(spec, [](ApTarget& t) { t.network->set_gateway_up(false); });
      break;
  }

  if (instantaneous(spec.kind)) {
    end(log_index);
  } else {
    sim_.post(spec.duration, [this, log_index] { end(log_index); });
  }
}

void FaultInjector::end(std::size_t log_index) {
  InjectedFault& entry = log_[log_index];
  if (!entry.active) return;
  const FaultSpec& spec = entry.spec;
  entry.cleared = sim_.now();
  entry.active = false;
  --active_;
  SPIDER_TRACE(sim_, .kind = obs::TraceKind::kFaultEnd,
               .aux = static_cast<std::uint8_t>(spec.kind),
               .channel = static_cast<std::int16_t>(
                   is_channel_fault(spec.kind) ? spec.target : 0),
               .track = obs::track::fault(),
               .id = static_cast<std::uint64_t>(spec.target),
               .value = to_seconds(entry.cleared - entry.started));

  switch (spec.kind) {
    case FaultKind::kChannelBurstLoss:
    case FaultKind::kChannelInterference:
      medium_->clear_channel_impairment(static_cast<wire::Channel>(spec.target));
      break;
    case FaultKind::kApBlackout:
    case FaultKind::kApReboot:
      for_targets(spec, [](ApTarget& t) { t.ap->power_on(); });
      break;
    case FaultKind::kBeaconSilence:
      for_targets(spec, [](ApTarget& t) { t.ap->set_beacon_silence(false); });
      break;
    case FaultKind::kPsmFlush:
    case FaultKind::kDhcpPoolReset:
      break;  // instantaneous: nothing to undo
    case FaultKind::kDhcpStall:
      for_targets(spec,
                  [](ApTarget& t) { t.network->dhcp().set_stalled(false); });
      break;
    case FaultKind::kDhcpNakStorm:
      for_targets(spec,
                  [](ApTarget& t) { t.network->dhcp().set_nak_requests(false); });
      break;
    case FaultKind::kGatewayFlap:
      for_targets(spec, [](ApTarget& t) { t.network->set_gateway_up(true); });
      break;
  }
}

void FaultInjector::burst_tick(std::size_t log_index, bool bad) {
  InjectedFault& entry = log_[log_index];
  const FaultSpec& spec = entry.spec;
  const wire::Channel channel = static_cast<wire::Channel>(spec.target);
  const Time fault_end = entry.started + spec.duration;

  if (sim_.now() >= fault_end) {
    end(log_index);
    return;
  }

  if (bad) {
    medium_->set_channel_impairment(channel, spec.intensity);
  } else {
    medium_->clear_channel_impairment(channel);
  }

  const Time mean = bad ? spec.burst_mean : spec.gap_mean;
  Rng& rng = spec_rngs_[log_index];
  const Time dwell = sec(rng.exponential(to_seconds(std::max(mean, usec(1)))));
  const Time next = std::min(sim_.now() + std::max(dwell, usec(1)), fault_end);
  sim_.post_at(next, [this, log_index, bad] { burst_tick(log_index, !bad); });
}

}  // namespace spider::fault
