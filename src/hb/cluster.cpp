#include "hb/cluster.hpp"

#include "util/contracts.hpp"

namespace ahb::hb {

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      sim_(config.seed),
      net_(sim_, sim::LinkParams{
                     .loss_probability = config.loss_probability,
                     .min_delay = config.min_delay,
                     .max_delay = config.max_delay >= 0
                                      ? config.max_delay
                                      : std::max<sim::Time>(
                                            config.protocol.tmin / 2, 0),
                     .corrupt_probability = config.corrupt_probability,
                 }) {
  AHB_EXPECTS(config.protocol.valid());
  AHB_EXPECTS(config.participants >= 1);

  // The channel assumption bounds the round trip by tmin, so a one-way
  // delay beyond tmin/2 is out of spec (NetworkStats::out_of_spec_delay
  // counts such samples when the chaos layer injects them).
  net_.set_spec_max_delay(config.protocol.tmin / 2);

  std::vector<int> initial_members;
  if (!variant_joins(config.protocol.variant)) {
    for (int i = 1; i <= config.participants; ++i) {
      initial_members.push_back(i);
    }
  }
  coordinator_ =
      std::make_unique<Coordinator>(config.protocol, initial_members);
  for (int i = 1; i <= config.participants; ++i) {
    parts_.push_back(std::make_unique<Participant>(
        config.protocol, i, !variant_joins(config.protocol.variant)));
  }
  timers_.assign(static_cast<std::size_t>(config.participants) + 1,
                 sim::Simulator::kInvalidEvent);
  node_stats_.assign(static_cast<std::size_t>(config.participants) + 1,
                     NodeStats{});
  clocks_.assign(static_cast<std::size_t>(config.participants) + 1,
                 NodeClock{});

  // The legacy lambda observers ride the sink chain as its first entry;
  // with no callbacks installed its masks are zero and the emit path
  // skips event construction, exactly like the old `if (event_cb_)`.
  sinks_.add(&legacy_);
  // Claim the network's observer slot to feed channel events to the
  // sinks (the reason Cluster::network() documents the slot as taken).
  net_.on_channel_event([this](const sim::ChannelEvent& event) {
    if (sinks_.wants(event.kind)) sinks_.emit(event);
  });

  net_.attach(0, [this](int from, const WireMessage& wire, std::uint64_t id) {
    ++node_stats_[0].received;
    // Boundary validation before the engine sees anything: a corrupted
    // image is rejected and counted, never acted on (fail-safe).
    const std::optional<Message> msg = decode_wire(from, wire);
    if (!msg) {
      reject_wire(from, 0, id);
      return;
    }
    // A delivery to a crashed/inactive coordinator is absorbed silently
    // (the model aborts the channel wait instead of delivering).
    if (coordinator_->status() == Status::Active) {
      emit(msg->flag ? ProtocolEvent::Kind::CoordinatorReceivedBeat
                     : ProtocolEvent::Kind::CoordinatorReceivedLeave,
           from, id);
    }
    dispatch(0, coordinator_->on_message(local_now(0), *msg));
    arm_timer(0);
  });
  for (int i = 1; i <= config.participants; ++i) {
    net_.attach(i, [this, i](int from, const WireMessage& wire,
                             std::uint64_t id) {
      ++node_stats_[static_cast<std::size_t>(i)].received;
      const std::optional<Message> msg = decode_wire(from, wire);
      if (!msg) {
        reject_wire(from, i, id);
        return;
      }
      if (msg->flag &&
          parts_[static_cast<std::size_t>(i) - 1]->status() ==
              Status::Active) {
        emit(ProtocolEvent::Kind::ParticipantReceivedBeat, i, id);
      }
      dispatch(i, parts_[static_cast<std::size_t>(i) - 1]->on_message(
                      local_now(i), *msg));
      arm_timer(i);
    });
  }
}

std::optional<Message> Cluster::decode_wire(int from,
                                            const WireMessage& wire) const {
  if (!config_.wire_validation) return wire_decode_unchecked(wire);
  std::optional<Message> msg = wire_decode(wire);
  // The checksum cannot catch a flip that lands a *different* valid
  // image; the transport-level origin does: the sender field must match
  // the link the image arrived on.
  if (msg && msg->sender != from) return std::nullopt;
  return msg;
}

void Cluster::reject_wire(int from, int to, std::uint64_t id) {
  net_.count_rejection();
  if (sinks_.wants(sim::ChannelEvent::Kind::Rejected)) {
    sinks_.emit(sim::ChannelEvent{sim::ChannelEvent::Kind::Rejected, from, to,
                                  id, sim_.now(), 0});
  }
}

void Cluster::start() {
  AHB_EXPECTS(!started_);
  started_ = true;
  dispatch(0, coordinator_->start(local_now(0)));
  arm_timer(0);
  for (int i = 1; i <= participant_count(); ++i) {
    dispatch(i, parts_[static_cast<std::size_t>(i) - 1]->start(local_now(i)));
    arm_timer(i);
  }
}

void Cluster::run_until(sim::Time horizon) { sim_.run_until(horizon); }

void Cluster::crash_coordinator_at(sim::Time when) {
  sim_.at(when, [this] {
    const bool was_active = coordinator_->status() == Status::Active;
    coordinator_->crash(local_now(0));
    if (was_active) emit(ProtocolEvent::Kind::CoordinatorCrashed, 0);
  });
}

void Cluster::crash_participant_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  sim_.at(when, [this, id] {
    const bool was_active = participant(id).status() == Status::Active;
    participant(id).crash(local_now(id));
    if (was_active) emit(ProtocolEvent::Kind::ParticipantCrashed, id);
  });
}

void Cluster::leave_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  sim_.at(when, [this, id] {
    if (!proto::variant_leaves(config_.protocol.variant)) return;
    if (participant(id).status() != Status::Active) return;
    participant(id).request_leave();
  });
}

void Cluster::rejoin_at(int id, sim::Time when) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  sim_.at(when, [this, id] {
    if (participant(id).status() != Status::Left) return;
    // The reincarnation hazard: rejoining before the leave beat's delay
    // bound has drained risks a stale leave de-registering the new
    // incarnation. Scheduled rejoins that arrive too early (the leave
    // happens at the reply to the next beat, so its instant is not
    // known when the rejoin is scheduled) are dropped rather than
    // asserted on — chaos schedules hit this race by design.
    if (local_now(id) < proto::earliest_rejoin(participant(id).left_at(),
                                               config_.protocol.timing())) {
      return;
    }
    emit(ProtocolEvent::Kind::ParticipantRejoined, id);
    dispatch(id, participant(id).rejoin(local_now(id)));
    arm_timer(id);
  });
}

Participant& Cluster::participant(int id) {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  return *parts_[static_cast<std::size_t>(id) - 1];
}

const Participant& Cluster::participant(int id) const {
  AHB_EXPECTS(id >= 1 && id <= participant_count());
  return *parts_[static_cast<std::size_t>(id) - 1];
}

const NodeStats& Cluster::node_stats(int id) const {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  return node_stats_[static_cast<std::size_t>(id)];
}

void Cluster::set_drift(int id, std::int64_t num, std::int64_t den) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  AHB_EXPECTS(num > 0 && den > 0);
  auto& clock = clocks_[static_cast<std::size_t>(id)];
  const sim::Time now = sim_.now();
  // Close the old affine segment (register and engine anchor stay
  // continuous across the rate change).
  clock.hw_base = clock.hw(now);
  clock.base_engine =
      clock.base_engine + (now - clock.base_global) * clock.num / clock.den;
  clock.base_global = now;
  clock.num = num;
  clock.den = den;
  // Timers were armed under the old rate; re-arm at the new one.
  if (started_) arm_timer(id);
}

sim::Time Cluster::advance_clock(int node_id) {
  auto& clock = clocks_[static_cast<std::size_t>(node_id)];
  const std::uint64_t hw_now = clock.hw(sim_.now());
  if (hw_now == clock.hw_last) return clock.engine_local;
  if (config_.clock_guard) {
    // Modular-time idiom: only the age between two reads is meaningful,
    // and only when it fits the half range. An invalid age is never
    // acted on — the fault latches and the caller fences the node.
    const std::uint64_t age = hw_now - clock.hw_last;
    clock.hw_last = hw_now;
    if (age < (1ULL << 63)) {
      clock.engine_local += static_cast<sim::Time>(age);
    } else {
      clock.fault = true;
    }
    return clock.engine_local;
  }
  // Guard off (the historical bug): absolute register values compared
  // raw, so a wrap or backward jump makes local time leap backwards.
  // Saturating arithmetic keeps the leap itself well-defined.
  static constexpr sim::Time kClamp = kNever / 4;
  const auto clamped = [](__int128 value) {
    if (value > kClamp) return kClamp;
    if (value < -kClamp) return -kClamp;
    return static_cast<sim::Time>(value);
  };
  if (hw_now >= clock.hw_last) {
    clock.engine_local = clamped(static_cast<__int128>(clock.engine_local) +
                                 (hw_now - clock.hw_last));
  } else {
    clock.engine_local = clamped(static_cast<__int128>(clock.engine_local) -
                                 (clock.hw_last - hw_now));
    // The reconstruction left the affine track timers were mapped on;
    // re-anchor so future deadlines translate from the leaped clock.
    clock.hw_base = hw_now;
    clock.base_global = sim_.now();
    clock.base_engine = clock.engine_local;
  }
  clock.hw_last = hw_now;
  return clock.engine_local;
}

void Cluster::fence_node(int node_id, sim::Time local) {
  dispatch(node_id,
           node_id == 0
               ? coordinator_->fence(local)
               : parts_[static_cast<std::size_t>(node_id) - 1]->fence(local));
  arm_timer(node_id);  // engine is inactive: cancels any pending timer
}

void Cluster::corrupt_clock_at(int id, sim::Time when, std::int64_t delta) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  sim_.at(when, [this, id, delta] {
    auto& clock = clocks_[static_cast<std::size_t>(id)];
    const sim::Time now = sim_.now();
    // Jump the register (rebasing the rate segment at the injection
    // instant) and force a clock read right away, so the node's
    // reaction — fail-safe fence on a backward jump, conservative
    // timeout on a forward one — is deterministic.
    clock.hw_base = clock.hw(now) + static_cast<std::uint64_t>(delta);
    clock.base_global = now;
    const sim::Time local = advance_clock(id);
    clock.base_engine = local;  // re-anchor the timer mapping
    clock.base_global = now;
    if (clock.fault) {
      fence_node(id, local);
      return;
    }
    // A forward jump may have blown straight past engine deadlines.
    dispatch(id, node_elapsed(id, local));
    arm_timer(id);
  });
}

void Cluster::wrap_clock_at(int id, sim::Time when, std::uint64_t margin) {
  AHB_EXPECTS(id >= 0 && id <= participant_count());
  sim_.at(when, [this, id, margin] {
    auto& clock = clocks_[static_cast<std::size_t>(id)];
    const sim::Time now = sim_.now();
    const std::uint64_t hw_now = clock.hw(now);
    // Reposition the register `margin` ticks before the 2^64 boundary,
    // translating the read history by the same shift: no age changes,
    // only the absolute position — which the modular idiom never looks
    // at, and the raw comparison fatally does once the wrap crosses.
    // The engine<->global affine segment closes here like on a rate
    // change: the reposition must not move any armed deadline.
    const std::uint64_t shift = (0 - margin) - hw_now;
    clock.hw_base = hw_now + shift;
    clock.base_engine =
        clock.base_engine + (now - clock.base_global) * clock.num / clock.den;
    clock.base_global = now;
    clock.hw_last += shift;
  });
}

bool Cluster::all_inactive() const {
  if (coordinator_->status() == Status::Active) return false;
  for (const auto& p : parts_) {
    if (p->status() == Status::Active) return false;
  }
  return true;
}

void Cluster::dispatch(int node_id, const Actions& actions) {
  // The coordinator's beats fan out as one message per member but form
  // one protocol event per round (the model's single broadcast edge) —
  // including member-less rounds, where the broadcast has no receivers.
  bool coordinator_beat = node_id == 0 && actions.round_completed;
  std::uint64_t beat_id = 0;
  std::uint32_t beat_fanout = 0;
  for (const auto& out : actions.messages) {
    ++node_stats_[static_cast<std::size_t>(node_id)].sent;
    const std::uint64_t id =
        net_.send(node_id, out.to, wire_encode(out.message));
    if (node_id == 0) {
      coordinator_beat = coordinator_beat || out.message.flag;
      if (out.message.flag) {
        if (beat_id == 0) beat_id = id;
        ++beat_fanout;
      }
    } else if (!out.message.flag) {
      emit(ProtocolEvent::Kind::ParticipantLeft, node_id, id, 1);
    } else if (parts_[static_cast<std::size_t>(node_id) - 1]->joined()) {
      emit(ProtocolEvent::Kind::ParticipantReplied, node_id, id, 1);
    } else {
      emit(ProtocolEvent::Kind::ParticipantJoinBeat, node_id, id, 1);
    }
  }
  if (coordinator_beat) {
    emit(ProtocolEvent::Kind::CoordinatorBeat, 0, beat_id, beat_fanout);
  }
  if (actions.inactivated) {
    emit(node_id == 0 ? ProtocolEvent::Kind::CoordinatorInactivated
                      : ProtocolEvent::Kind::ParticipantInactivated,
         node_id);
  }
}

void Cluster::emit(ProtocolEvent::Kind kind, int node, std::uint64_t msg_id,
                   std::uint32_t fanout) {
  if (sinks_.wants(kind)) {
    sinks_.emit(ProtocolEvent{kind, sim_.now(), node, msg_id, fanout});
  }
}

sim::Time Cluster::node_next_event(int node_id) const {
  return node_id == 0
             ? coordinator_->next_event_time()
             : parts_[static_cast<std::size_t>(node_id) - 1]
                   ->next_event_time();
}

Actions Cluster::node_elapsed(int node_id, sim::Time now) {
  return node_id == 0
             ? coordinator_->on_elapsed(now)
             : parts_[static_cast<std::size_t>(node_id) - 1]->on_elapsed(now);
}

void Cluster::arm_timer(int node_id) {
  auto& timer = timers_[static_cast<std::size_t>(node_id)];
  sim_.cancel(timer);
  timer = sim::Simulator::kInvalidEvent;
  // Engine deadlines live on the node's (possibly drifting) local
  // clock; the host timer fires at the global instant that reaches
  // them.
  const sim::Time when =
      clocks_[static_cast<std::size_t>(node_id)].global_for(
          node_next_event(node_id));
  if (when == kNever) return;
  // Timers run at lower priority than deliveries when receive_priority
  // is on, so a beat arriving exactly at a deadline is processed first.
  timer = sim_.at(std::max(when, sim_.now()),
                  sim::Call{&Cluster::fire_timer, this,
                            static_cast<std::uint64_t>(node_id)},
                  config_.receive_priority ? 1 : 0);
}

void Cluster::fire_timer(void* self, std::uint64_t node) {
  auto& cluster = *static_cast<Cluster*>(self);
  const int node_id = static_cast<int>(node);
  cluster.timers_[node] = sim::Simulator::kInvalidEvent;
  cluster.dispatch(node_id,
                   cluster.node_elapsed(node_id, cluster.local_now(node_id)));
  cluster.arm_timer(node_id);
}

}  // namespace ahb::hb
