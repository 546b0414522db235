// Deterministic discrete-event simulator.
//
// Time is integral and in the same units as the protocol constants tmin
// and tmax. Pending events live on sim::TimerWheel, the same scheduler
// hb::ScaleCluster runs on: events at the same instant fire by
// priority (0 before 1), then in FIFO order of scheduling, which keeps
// runs reproducible for a fixed seed and lets hosts encode
// delivery-vs-timeout priorities.
//
// An event is a Call — a plain function pointer, a context pointer and
// one integer argument — stored by value in the wheel's node pool, so
// hot-path hosts (transport deliveries, node timers) schedule without
// allocating. std::function closures are also accepted; they wait in a
// pooled slot that is released when the event fires or is cancelled.
// Event ids are generation-checked wheel handles, so cancel() is O(1)
// and a fired, cancelled or unknown id is a no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/timer_wheel.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ahb::sim {

using Time = std::int64_t;

/// One allocation-free event: runs `fn(ctx, arg)`. `ctx` must outlive
/// the event (or the event must be cancelled first).
struct Call {
  void (*fn)(void* ctx, std::uint64_t arg) = nullptr;
  void* ctx = nullptr;
  std::uint64_t arg = 0;
};

class Simulator {
 public:
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  explicit Simulator(std::uint64_t seed = 1) : rng_(seed) {}
  // Pooled closures are scheduled with `this` as their context.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return wheel_.now(); }
  Rng& rng() { return rng_; }

  /// Schedules `call` at absolute time `when` (>= now). Returns an id
  /// that can be passed to cancel(). Among events at the same instant,
  /// lower `priority` (0 or 1) fires first; ties fall back to FIFO
  /// scheduling order. This is how hosts implement the "receives
  /// precede timeouts" rule of the protocol analysis: message
  /// deliveries at priority 0, timers at priority 1.
  EventId at(Time when, Call call, int priority = 0);

  /// Same, for an arbitrary closure (held in a pooled slot).
  EventId at(Time when, std::function<void()> fn, int priority = 0);

  /// Schedules `call` or `fn` after `delay` time units.
  EventId after(Time delay, Call call, int priority = 0) {
    return at(now() + delay, call, priority);
  }
  EventId after(Time delay, std::function<void()> fn, int priority = 0) {
    return at(now() + delay, std::move(fn), priority);
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled or unknown id is a no-op.
  void cancel(EventId id);

  /// Runs events until none is pending within `horizon`, then moves
  /// now() to `horizon` (if later). Returns the number of events run.
  std::size_t run_until(Time horizon);

  /// Runs exactly one event if one is pending within the horizon. When
  /// none is, now() may still move forward, never past `horizon`.
  bool step(Time horizon);

  std::size_t pending() const { return wheel_.pending(); }
  std::size_t executed() const { return executed_; }

 private:
  using Wheel = TimerWheel<Call>;

  static void run_closure(void* self, std::uint64_t slot);
  void release_closure(std::uint64_t slot);

  Wheel wheel_;
  std::vector<std::function<void()>> closures_;
  std::vector<std::uint64_t> free_closures_;
  std::size_t executed_ = 0;
  Rng rng_;
};

}  // namespace ahb::sim
