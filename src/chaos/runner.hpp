// Executes one chaos run: builds a Cluster from a RunSpec, applies the
// fault schedule at its prescribed instants, monitors R1–R3, and
// returns the verdicts plus the observables that make runs comparable
// (the serialized protocol-event trace and the network counters).
// Everything is derived from the spec alone, so two executions of the
// same spec are byte-identical — the property the campaign determinism
// tests and the shrinker's replay check both rest on.
#pragma once

#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "hb/cluster.hpp"
#include "rv/availability.hpp"
#include "rv/integrity.hpp"
#include "rv/monitor.hpp"
#include "rv/pltl/eval.hpp"

namespace ahb::chaos {

struct RunResult {
  /// R1–R3 violations first (in detection order), then suspicion-
  /// ladder (requirement 4) and payload-integrity (requirement 5)
  /// violations.
  std::vector<rv::Violation> violations;
  /// Availability score of the run (rv::AvailabilityStats).
  rv::AvailabilitySummary availability;
  /// Payload-integrity counters (rv::IntegrityMonitor).
  rv::IntegritySummary integrity;
  sim::NetworkStats net_stats;
  /// The schedule stepped outside the channel/clock assumptions, so
  /// violations are expected rather than bugs.
  bool out_of_spec = false;
  bool all_inactive = false;
  /// One line per protocol event ("at kind node msg_id"), recorded only
  /// when requested — the byte-comparable execution fingerprint.
  std::string trace;
  /// The raw protocol-event trace (recorded only when requested) — the
  /// input replay_cluster_trace needs to feed a chaos run through the
  /// conformance layer.
  std::vector<hb::ProtocolEvent> events;
  /// Violations reported by attached pLTL formula monitors, kept apart
  /// from `violations` so formulas ride along without perturbing the
  /// campaign's violating-run bookkeeping or the shrinker.
  std::vector<rv::Violation> formula_violations;
};

/// Runs `spec` to its horizon with the full rv monitor stack attached
/// (requirement + suspicion + availability). `bounds` overrides the
/// monitor deadlines (nullptr = the proto/timing.hpp defaults — the
/// only sound setting; overriding exists for the mutation-canary
/// tests and applies to the suspicion bounds carried in MonitorBounds
/// too). `record_trace` fills RunResult::trace, `record_events` fills
/// RunResult::events.
/// `formulas` (optional) compiles each pLTL spec against this run's
/// timing/variant and attaches them, as one rv::pltl::FormulaBank, next
/// to the hand-written stack; their verdicts land in
/// RunResult::formula_violations. Every spec must compile (contract).
RunResult run_chaos(const RunSpec& spec,
                    const rv::MonitorBounds* bounds = nullptr,
                    bool record_trace = false, bool record_events = false,
                    const std::vector<rv::pltl::FormulaSpec>* formulas = nullptr);

/// The cluster configuration a chaos run executes under (exposed so the
/// conformance layer can replay a recorded chaos trace through the model
/// built for exactly this configuration).
hb::ClusterConfig cluster_config_for(const RunSpec& spec);

/// Schedules every action of `spec.schedule` on `cluster` (before
/// start(), in schedule order — same-instant actions fire FIFO exactly
/// as listed). Exposed so the mission runner applies schedules to its
/// own long-lived clusters through the one shared interpreter.
void schedule_actions(hb::Cluster& cluster, const RunSpec& spec);

}  // namespace ahb::chaos
