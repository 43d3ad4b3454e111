#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

#include "sim/cancel.hpp"
#include "sim/event_queue.hpp"
#include "util/time.hpp"

namespace spider::obs {
class Tracer;
}  // namespace spider::obs

namespace spider::sim {

/// The simulation kernel: a clock plus an event queue.
///
/// Every protocol entity in the repository (radios, MAC state machines,
/// DHCP clients, TCP connections, schedulers, mobility models) is driven
/// exclusively by callbacks scheduled here, so a whole experiment is a
/// single-threaded deterministic replay of one seed.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedules `cb` to run `delay` after the current time (>= 0).
  EventHandle schedule(Time delay, EventQueue::Callback&& cb);

  /// Schedules `cb` at an absolute timestamp (>= now()).
  EventHandle schedule_at(Time when, EventQueue::Callback&& cb);

  /// Handle-free fast path: like schedule()/schedule_at() but the event can
  /// never be cancelled, so no EventHandle control block is allocated. Use
  /// for fire-and-forget work (frame deliveries, packet hops, deferred
  /// responses); keep schedule() for anything a state machine may cancel.
  /// Ordering is identical to schedule() — both share one sequence counter.
  void post(Time delay, EventQueue::Callback&& cb) {
    assert(delay >= Time{0});
    queue_.push_nocancel(now_ + delay, std::move(cb));
  }
  void post_at(Time when, EventQueue::Callback&& cb) {
    assert(when >= now_);
    queue_.push_nocancel(when, std::move(cb));
  }

  /// Runs events until the queue drains or `deadline` passes. The clock is
  /// left at the later of its current value and the deadline (when given),
  /// so back-to-back run_until calls see a monotonic clock.
  void run_until(Time deadline);

  /// Runs until the queue is empty (use only for bounded workloads).
  void run_all();

  /// Requests that the current run_* call return after the active event.
  void stop() { stopped_ = true; }

  /// Installs a cooperative cancellation/deadline token, polled every
  /// kCancelCheckInterval events by the run_* loops (and once on entry).
  /// Polling reads the token and the wall clock only — it never perturbs
  /// the event stream, so a run that completes is byte-identical with or
  /// without a token installed. Not owned; pass nullptr to detach.
  void set_cancel_token(CancelToken* token) { cancel_ = token; }
  CancelToken* cancel_token() const { return cancel_; }

  /// True when the last run_* call returned early because the cancel token
  /// tripped (the token's reason() says why). Cleared on the next run_*.
  bool interrupted() const { return interrupted_; }

  std::uint64_t events_executed() const { return executed_; }
  bool pending() const { return !queue_.empty(); }

  /// Fresh process-independent identifier (TCP connection ids, CBR flow
  /// ids, ...). Scoped to this simulation so concurrent runs on different
  /// threads stay raceless and every replay of a seed allocates the exact
  /// same ids regardless of what else the process has run.
  std::uint64_t allocate_id() { return ++next_id_; }

  /// Engine counters so far: event-queue totals plus the simulated horizon.
  /// Wall-clock fields are zero; the caller timing the run fills them.
  PerfCounters perf() const {
    PerfCounters p = queue_.perf();
    p.sim_seconds = to_seconds(now_);
    return p;
  }

  /// Optional flight recorder (see obs/tracer.hpp). Null by default so the
  /// SPIDER_TRACE emit sites scattered through the stack cost one pointer
  /// load + branch unless a run opts in. Not owned; the installer keeps the
  /// tracer alive for the simulator's lifetime.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  /// Cancel-token poll cadence, in events. Coarse enough that the clock
  /// read vanishes against event dispatch cost, fine enough that a wedged
  /// scenario is reaped within milliseconds of its deadline.
  static constexpr std::uint64_t kCancelCheckInterval = 1024;

  Time now_{0};
  EventQueue queue_;
  bool stopped_ = false;
  bool interrupted_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t next_id_ = 0;
  obs::Tracer* tracer_ = nullptr;
  CancelToken* cancel_ = nullptr;
};

/// A restartable periodic timer built on the simulator; used for beacons,
/// schedule slots, ping probes, etc. Destroying the timer cancels it.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, Time period, std::function<void()> tick)
      : sim_(simulator), period_(period), tick_(std::move(tick)) {}
  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start();
  void stop() { handle_.cancel(); running_ = false; }
  bool running() const { return running_; }
  void set_period(Time period) { period_ = period; }
  Time period() const { return period_; }

 private:
  void arm();

  Simulator& sim_;
  Time period_;
  std::function<void()> tick_;
  EventHandle handle_;
  bool running_ = false;
};

}  // namespace spider::sim
