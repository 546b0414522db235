#include "sim/simulator.hpp"

namespace ahb::sim {

namespace {

// An EventId is a wheel handle: generation in the high half, index + 1
// in the low half, so no handle packs to kInvalidEvent.
Simulator::EventId pack(TimerWheel<Call>::Handle h) {
  return (static_cast<std::uint64_t>(h.generation) << 32) |
         (static_cast<std::uint64_t>(h.index) + 1);
}

TimerWheel<Call>::Handle unpack(Simulator::EventId id) {
  return {static_cast<std::uint32_t>((id & 0xffffffffu) - 1),
          static_cast<std::uint32_t>(id >> 32)};
}

}  // namespace

Simulator::EventId Simulator::at(Time when, Call call, int priority) {
  AHB_EXPECTS(call.fn != nullptr);
  return pack(wheel_.arm(when, priority, call));
}

Simulator::EventId Simulator::at(Time when, std::function<void()> fn,
                                 int priority) {
  AHB_EXPECTS(fn != nullptr);
  std::uint64_t slot;
  if (free_closures_.empty()) {
    slot = closures_.size();
    closures_.push_back(std::move(fn));
  } else {
    slot = free_closures_.back();
    free_closures_.pop_back();
    closures_[slot] = std::move(fn);
  }
  return at(when, Call{&run_closure, this, slot}, priority);
}

void Simulator::run_closure(void* self, std::uint64_t slot) {
  auto& sim = *static_cast<Simulator*>(self);
  // Free the slot before running: the closure may schedule more.
  std::function<void()> fn = std::move(sim.closures_[slot]);
  sim.release_closure(slot);
  fn();
}

void Simulator::release_closure(std::uint64_t slot) {
  closures_[slot] = nullptr;
  free_closures_.push_back(slot);
}

void Simulator::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  Call call;
  if (wheel_.cancel(unpack(id), &call) && call.fn == &run_closure) {
    release_closure(call.arg);
  }
}

std::size_t Simulator::run_until(Time horizon) {
  std::size_t count = 0;
  while (step(horizon)) ++count;
  wheel_.advance_to(horizon);
  return count;
}

bool Simulator::step(Time horizon) {
  Wheel::Expired event;
  if (!wheel_.pop(horizon, event)) return false;
  ++executed_;
  event.payload.fn(event.payload.ctx, event.payload.arg);
  return true;
}

}  // namespace ahb::sim
