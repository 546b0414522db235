#include "chaos/runner.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "rv/suspicion.hpp"
#include "util/contracts.hpp"

namespace ahb::chaos {

namespace {

const char* kind_name(hb::ProtocolEvent::Kind kind) {
  using Kind = hb::ProtocolEvent::Kind;
  switch (kind) {
    case Kind::CoordinatorBeat: return "beat";
    case Kind::CoordinatorReceivedBeat: return "c-recv-beat";
    case Kind::CoordinatorReceivedLeave: return "c-recv-leave";
    case Kind::CoordinatorInactivated: return "c-inactive";
    case Kind::CoordinatorCrashed: return "c-crash";
    case Kind::ParticipantReceivedBeat: return "p-recv-beat";
    case Kind::ParticipantReplied: return "reply";
    case Kind::ParticipantJoinBeat: return "join-beat";
    case Kind::ParticipantLeft: return "leave";
    case Kind::ParticipantInactivated: return "p-inactive";
    case Kind::ParticipantCrashed: return "p-crash";
    case Kind::ParticipantRejoined: return "rejoin";
  }
  return "?";
}

bool valid_node(const RunSpec& spec, int id) {
  return id >= 0 && id <= spec.participants;
}

bool valid_participant(const RunSpec& spec, int id) {
  return id >= 1 && id <= spec.participants;
}

void apply_link_change(hb::Cluster& cluster, const FaultAction& action) {
  auto& net = cluster.network();
  auto params = net.link_params(action.a, action.b);
  switch (action.kind) {
    case FaultKind::SetLoss:
      params.loss_probability = std::clamp(action.p, 0.0, 1.0);
      break;
    case FaultKind::SetBurst:
      params.burst.p_enter = std::clamp(action.p, 0.0, 1.0);
      params.burst.p_exit = std::clamp(action.q, 0.0, 1.0);
      params.burst.loss = std::clamp(action.r, 0.0, 1.0);
      break;
    case FaultKind::SetDelay:
      params.min_delay = std::max<Time>(action.d1, 0);
      params.max_delay = std::max(params.min_delay, action.d2);
      break;
    case FaultKind::SetDuplication:
      params.duplicate_probability = std::clamp(action.p, 0.0, 1.0);
      break;
    case FaultKind::CorruptPayload:
      params.corrupt_probability = std::clamp(action.p, 0.0, 1.0);
      break;
    default:
      return;
  }
  net.set_link(action.a, action.b, params);
}

/// One directed half of an asymmetric storm: burst (p,q,r) on the
/// uplink (member -> coordinator, d2 == 0) or downlink of every member
/// in [lo, hi], reverting to burst-off when the storm ends.
void apply_storm(hb::Cluster& cluster, const FaultAction& action, int lo,
                 int hi, bool start) {
  auto& net = cluster.network();
  for (int i = lo; i <= hi; ++i) {
    const int from = action.d2 == 0 ? i : 0;
    const int to = action.d2 == 0 ? 0 : i;
    auto params = net.link_params(from, to);
    params.burst.p_enter = start ? std::clamp(action.p, 0.0, 1.0) : 0.0;
    params.burst.p_exit = start ? std::clamp(action.q, 0.0, 1.0) : 1.0;
    params.burst.loss = start ? std::clamp(action.r, 0.0, 1.0) : 0.0;
    net.set_link(from, to, params);
  }
}

/// Schedules one action. Malformed operands (node ids outside the
/// cluster, non-positive drift rates) make the action a no-op rather
/// than an abort: shrunk and hand-edited schedules must stay safe to
/// replay.
void schedule_action(hb::Cluster& cluster, const RunSpec& spec,
                     const FaultAction& action) {
  auto& sim = cluster.simulator();
  switch (action.kind) {
    case FaultKind::SetLoss:
    case FaultKind::SetBurst:
    case FaultKind::SetDelay:
    case FaultKind::SetDuplication:
    case FaultKind::CorruptPayload:
      if (!valid_node(spec, action.a) || !valid_node(spec, action.b)) return;
      sim.at(action.at,
             [&cluster, action] { apply_link_change(cluster, action); });
      break;
    case FaultKind::LinkDown:
    case FaultKind::LinkUp:
      if (!valid_node(spec, action.a) || !valid_node(spec, action.b)) return;
      sim.at(action.at, [&cluster, action] {
        cluster.network().set_link_up(action.a, action.b,
                                      action.kind == FaultKind::LinkUp);
      });
      break;
    case FaultKind::Partition:
    case FaultKind::Heal: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      if (lo > hi) return;
      sim.at(action.at, [&cluster, action, lo, hi] {
        const bool up = action.kind == FaultKind::Heal;
        for (int i = lo; i <= hi; ++i) {
          cluster.network().set_link_up(0, i, up);
          cluster.network().set_link_up(i, 0, up);
        }
      });
      break;
    }
    case FaultKind::CrashParticipant:
      if (!valid_participant(spec, action.a)) return;
      cluster.crash_participant_at(action.a, action.at);
      break;
    case FaultKind::CrashCoordinator:
      cluster.crash_coordinator_at(action.at);
      break;
    case FaultKind::Leave:
      if (!valid_participant(spec, action.a)) return;
      cluster.leave_at(action.a, action.at);
      break;
    case FaultKind::Rejoin:
      if (!valid_participant(spec, action.a)) return;
      cluster.rejoin_at(action.a, action.at);
      break;
    case FaultKind::SetDrift:
      if (!valid_node(spec, action.a) || action.d1 <= 0 || action.d2 <= 0) {
        return;
      }
      sim.at(action.at, [&cluster, action] {
        cluster.set_drift(action.a, action.d1, action.d2);
      });
      break;
    case FaultKind::SetClockOffset:
      if (!valid_node(spec, action.a) || action.d1 == 0) return;
      cluster.corrupt_clock_at(action.a, action.at, action.d1);
      break;
    case FaultKind::WrapClock:
      if (!valid_node(spec, action.a) || action.d1 < 0) return;
      cluster.wrap_clock_at(action.a, action.at,
                            static_cast<std::uint64_t>(action.d1));
      break;
    case FaultKind::AsymmetricStorm: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      if (lo > hi || action.d1 <= 0) return;
      sim.at(action.at, [&cluster, action, lo, hi] {
        apply_storm(cluster, action, lo, hi, true);
      });
      sim.at(action.at + action.d1, [&cluster, action, lo, hi] {
        apply_storm(cluster, action, lo, hi, false);
      });
      break;
    }
    case FaultKind::ChurnStorm: {
      const int lo = std::max(action.a, 1);
      const int hi = std::min(action.b, spec.participants);
      if (lo > hi || action.d1 < 0 || action.d2 < 0) return;
      for (int i = lo; i <= hi; ++i) {
        const Time leave = action.at + static_cast<Time>(i - lo) * action.d1;
        cluster.leave_at(i, leave);
        if (action.d2 > 0) cluster.rejoin_at(i, leave + action.d2);
      }
      break;
    }
  }
}

}  // namespace

void schedule_actions(hb::Cluster& cluster, const RunSpec& spec) {
  for (const auto& action : spec.schedule.actions) {
    schedule_action(cluster, spec, action);
  }
}

hb::ClusterConfig cluster_config_for(const RunSpec& spec) {
  hb::ClusterConfig config;
  config.protocol = hb::Config{spec.tmin, spec.tmax, spec.variant,
                               spec.fixed_bounds};
  config.participants = spec.participants;
  config.seed = spec.seed;
  config.receive_priority = spec.receive_priority;
  config.wire_validation = spec.wire_validation;
  config.clock_guard = spec.clock_guard;
  return config;
}

RunResult run_chaos(const RunSpec& spec, const rv::MonitorBounds* bounds,
                    bool record_trace, bool record_events,
                    const std::vector<rv::pltl::FormulaSpec>* formulas) {
  AHB_EXPECTS(spec.participants >= 1);
  AHB_EXPECTS(spec.timing().valid());
  AHB_EXPECTS(spec.horizon > 0);

  hb::Cluster cluster(cluster_config_for(spec));

  const rv::MonitorBounds monitor_bounds =
      bounds != nullptr ? *bounds
                        : rv::MonitorBounds::defaults(
                              spec.timing(), spec.variant, spec.fixed_bounds);
  rv::RequirementMonitor::Config monitor_config{
      spec.variant, spec.timing(), spec.fixed_bounds, spec.participants};
  rv::RequirementMonitor monitor(monitor_config, monitor_bounds);
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = spec.variant;
  suspicion_config.timing = spec.timing();
  suspicion_config.participants = spec.participants;
  rv::SuspicionMonitor suspicion(suspicion_config, monitor_bounds);
  rv::AvailabilityStats availability(spec.participants);
  rv::IntegrityMonitor integrity;

  // The whole monitor stack rides the sink chain; the trace/event
  // recorder is the legacy callback adapter, which the cluster
  // registered first.
  monitor.attach(cluster);
  suspicion.attach(cluster);
  cluster.add_sink(&availability);
  integrity.attach(cluster);

  // The compiled formulas ride the same chain in one bank; they read the
  // event stream without touching it, so traces (and campaign
  // fingerprints) are identical with or without them.
  rv::pltl::FormulaBank formula_bank(rv::pltl::BindParams{
      spec.variant, spec.timing(), spec.fixed_bounds, spec.participants, 2});
  if (formulas != nullptr) {
    for (const auto& formula_spec : *formulas) {
      const std::string error = formula_bank.add(formula_spec);
      if (!error.empty()) {
        std::fprintf(stderr, "run_chaos: %s\n", error.c_str());
      }
      AHB_EXPECTS(error.empty());
    }
    cluster.add_sink(&formula_bank);
  }

  RunResult result;
  result.out_of_spec = spec.out_of_spec();

  if (record_trace || record_events) {
    cluster.on_protocol_event([&](const hb::ProtocolEvent& event) {
      if (record_events) result.events.push_back(event);
      if (record_trace) {
        char line[96];
        std::snprintf(line, sizeof line, "%" PRId64 " %s %d %" PRIu64 "\n",
                      event.at, kind_name(event.kind), event.node,
                      event.msg_id);
        result.trace += line;
      }
    });
  }

  schedule_actions(cluster, spec);

  cluster.start();
  cluster.run_until(spec.horizon);
  cluster.sinks().finish(spec.horizon);

  result.violations = monitor.violations();
  result.violations.insert(result.violations.end(),
                           suspicion.violations().begin(),
                           suspicion.violations().end());
  result.violations.insert(result.violations.end(),
                           integrity.violations().begin(),
                           integrity.violations().end());
  for (const auto& formula : formula_bank.formulas()) {
    result.formula_violations.insert(result.formula_violations.end(),
                                     formula.violations().begin(),
                                     formula.violations().end());
  }
  result.availability = availability.summary();
  result.integrity = integrity.summary();
  result.net_stats = cluster.network_stats();
  result.all_inactive = cluster.all_inactive();
  return result;
}

}  // namespace ahb::chaos
