// Cluster: wires a Coordinator and its Participants onto the
// discrete-event simulator and the lossy network. This is the
// whole-system harness used by the examples, the integration tests and
// the simulation benchmarks: configure timing/loss/seed, inject crashes
// and leaves, run, and inspect statuses and inactivation times.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hb/coordinator.hpp"
#include "hb/participant.hpp"
#include "hb/protocol_event.hpp"
#include "hb/wire.hpp"
#include "rv/sink_chain.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ahb::hb {

struct ClusterConfig {
  Config protocol;
  int participants = 1;
  double loss_probability = 0.0;
  /// One-way delay range; defaults keep the round trip within tmin as
  /// the protocol assumes (set from `protocol.tmin` when max_delay < 0).
  sim::Time min_delay = 0;
  sim::Time max_delay = -1;
  std::uint64_t seed = 1;
  /// Process message deliveries before timer expirations at the same
  /// instant (the Section 6.1 correction). Without it, a beat arriving
  /// exactly at a deadline can lose the race against the timeout — the
  /// very anomaly (Figs. 11/12 of the analysis) the fix removes; it is
  /// essential when the tight `fixed_bounds` deadlines are used.
  bool receive_priority = true;
  /// Per-send payload bit-flip probability on every link (the chaos
  /// layer can also arm it per link via network().set_link).
  double corrupt_probability = 0.0;
  /// Receivers parse-or-drop the wire image (hb/wire.hpp). Disabling
  /// this is the mutation canary: corrupted payloads reach the engines.
  bool wire_validation = true;
  /// Half-range rule on node clock reads: an age >= 2^63 between two
  /// reads of the modular hardware clock is invalid and fences the node
  /// (fail-safe non-voluntary inactivation) instead of being acted on.
  /// Disabling it models the historical bug — raw ordered comparison of
  /// absolute register values, which a wrap or backward jump breaks.
  bool clock_guard = true;
};

/// Per-node message counters (the overhead metric of the benchmarks).
struct NodeStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  /// Starts all processes at the current simulation time.
  void start();

  void run_until(sim::Time horizon);

  // Fault/behaviour injection (scheduled at absolute times).
  void crash_coordinator_at(sim::Time when);
  void crash_participant_at(int id, sim::Time when);
  void leave_at(int id, sim::Time when);
  /// Dynamic variant: re-enter the join phase at `when` (no-op unless
  /// the participant has left by then).
  void rejoin_at(int id, sim::Time when);

  /// Network faults: take a directed link down (messages silently
  /// dropped) or bring it back up. Node 0 is the coordinator.
  void fail_link(int from, int to) { net_.set_link_up(from, to, false); }
  void restore_link(int from, int to) { net_.set_link_up(from, to, true); }

  /// Clock drift: node `id`'s local clock advances `num/den` local time
  /// units per global (simulation) unit from now on. The engines see
  /// local time in every on_message/on_elapsed call and their timers
  /// are armed at the global instant whose local image reaches the
  /// engine deadline — so a slow clock stretches real waiting times and
  /// a fast one shrinks them, exactly like a drifting hardware timer.
  /// Identity (1/1) is the default and leaves behaviour untouched.
  void set_drift(int id, std::int64_t num, std::int64_t den);

  /// Clock corruption: at global time `when`, node `id`'s hardware
  /// clock register jumps by `delta` ticks (negative = backwards). The
  /// node observes the jump immediately. Under the half-range rule a
  /// backward jump is an invalid age and fences the node; a forward
  /// jump is indistinguishable from elapsed time, so the node
  /// conservatively times out whatever deadlines the jump crossed.
  void corrupt_clock_at(int id, sim::Time when, std::int64_t delta);

  /// Clock wrap: at global time `when`, node `id`'s hardware clock
  /// register is repositioned `margin` ticks before the 2^64 wrap
  /// point, preserving all pending ages (only the absolute position
  /// moves). With the modular-time idiom (clock_guard on) the
  /// subsequent wrap is unobservable; with the guard off the raw
  /// comparison sees time leap backwards at the crossing.
  void wrap_clock_at(int id, sim::Time when, std::uint64_t margin);

  /// The transport carries validated 8-byte wire images (hb/wire.hpp).
  using Transport = sim::Network<WireMessage>;

  /// Direct access to the transport, for fault injection beyond the
  /// convenience wrappers above (loss/burst/duplication/corruption/
  /// delay changes). Node 0 is the coordinator. The network's single
  /// channel-event observer slot is claimed by the cluster itself to
  /// feed the sink chain — observe channel events via on_channel_event
  /// or add_sink, not Network::on_channel_event.
  Transport& network() { return net_; }

  const ClusterConfig& config() const { return config_; }

  /// Registers a runtime-verification sink (not owned; must outlive the
  /// cluster). Install before start() to capture the complete trace;
  /// run_until does not call finish on the sinks — drive
  /// `sinks().finish(horizon)` when the run ends.
  void add_sink(rv::EventSink* sink) { sinks_.add(sink); }
  /// Deregisters a sink mid-run (between run_until calls), so it can be
  /// destroyed before the cluster without leaving a dangling pointer in
  /// the chain.
  void remove_sink(rv::EventSink* sink) { sinks_.remove(sink); }
  rv::SinkChain& sinks() { return sinks_; }

  // Legacy lambda observers, kept as a thin adapter over the sink chain
  // (one rv::CallbackSink registered at construction).

  /// Observer called on every non-voluntary inactivation, with the node
  /// id (0 = coordinator) and the time.
  void on_inactivation(std::function<void(int, sim::Time)> cb) {
    legacy_.set_inactivation(std::move(cb));
    sinks_.refresh();
  }

  /// Observer called on every protocol-level event (see ProtocolEvent).
  /// Install before start() to capture the complete trace.
  void on_protocol_event(std::function<void(const ProtocolEvent&)> cb) {
    legacy_.set_protocol(std::move(cb));
    sinks_.refresh();
  }

  /// Observer called on every channel event of the transport.
  void on_channel_event(std::function<void(const sim::ChannelEvent&)> cb) {
    legacy_.set_channel(std::move(cb));
    sinks_.refresh();
  }

  Coordinator& coordinator() { return *coordinator_; }
  const Coordinator& coordinator() const { return *coordinator_; }
  Participant& participant(int id);
  const Participant& participant(int id) const;
  int participant_count() const { return static_cast<int>(parts_.size()); }

  sim::Simulator& simulator() { return sim_; }
  const sim::NetworkStats& network_stats() const { return net_.stats(); }
  const NodeStats& node_stats(int id) const;

  /// True iff every process has stopped participating (crashed, left,
  /// or inactivated).
  bool all_inactive() const;

 private:
  /// Node clock, pulse-style: the *hardware* register is a free-running
  /// modular uint64 advancing at rate num/den per global unit, and the
  /// *engine* clock the protocol code sees is reconstructed from it one
  /// age at a time — age(a, b) = (a - b) mod 2^64, valid iff < 2^63
  /// (the half-range rule). Ages telescope, so in normal operation the
  /// reconstruction is exactly the old piecewise-affine local clock;
  /// the difference only shows when chaos jumps or wraps the register.
  /// `base_engine`/`base_global` anchor the affine segment timers are
  /// mapped through; they are rebased on rate changes, clock jumps, and
  /// raw-mode divergence so engine deadlines stay translatable.
  struct NodeClock {
    std::int64_t num = 1;
    std::int64_t den = 1;
    sim::Time base_global = 0;
    std::uint64_t hw_base = 0;    ///< register value at base_global
    std::uint64_t hw_last = 0;    ///< register value at the last read
    sim::Time base_engine = 0;    ///< engine clock at base_global
    sim::Time engine_local = 0;   ///< reconstructed engine clock
    bool fault = false;           ///< latched half-range violation

    std::uint64_t hw(sim::Time global) const {
      return hw_base +
             static_cast<std::uint64_t>((global - base_global) * num / den);
    }
    /// Earliest global instant whose engine-clock image reaches
    /// `local_when` (clamped to kNever when the affine segment cannot
    /// reach it within the representable range).
    sim::Time global_for(sim::Time local_when) const {
      if (local_when == kNever) return kNever;
      const __int128 span =
          static_cast<__int128>(local_when) - base_engine;
      if (span <= 0) return base_global;
      const __int128 global = base_global + (span * den + num - 1) / num;
      return global >= kNever ? kNever : static_cast<sim::Time>(global);
    }
  };

  void dispatch(int node_id, const Actions& actions);
  void emit(ProtocolEvent::Kind kind, int node, std::uint64_t msg_id = 0,
            std::uint32_t fanout = 0);
  void arm_timer(int node_id);
  /// Timer event of node `node` (a sim::Call on the cluster).
  static void fire_timer(void* self, std::uint64_t node);
  Actions node_elapsed(int node_id, sim::Time now);
  sim::Time node_next_event(int node_id) const;
  /// Reads node `node_id`'s clock: advances the reconstruction by the
  /// age since the previous read (latching `fault` on a half-range
  /// violation when the guard is on) and returns the engine clock.
  sim::Time advance_clock(int node_id);
  sim::Time local_now(int node_id) { return advance_clock(node_id); }
  /// Parse-or-drop boundary validation of a delivered wire image.
  std::optional<Message> decode_wire(int from, const WireMessage& wire) const;
  /// Counts and reports a boundary rejection of message `id`.
  void reject_wire(int from, int to, std::uint64_t id);
  /// Fail-safe reaction to a latched clock fault: fence the engine.
  void fence_node(int node_id, sim::Time local);

  ClusterConfig config_;
  sim::Simulator sim_;
  Transport net_;
  std::unique_ptr<Coordinator> coordinator_;
  std::vector<std::unique_ptr<Participant>> parts_;
  std::vector<sim::Simulator::EventId> timers_;  // index: node id
  std::vector<NodeStats> node_stats_;
  std::vector<NodeClock> clocks_;  // index: node id
  rv::CallbackSink legacy_;  ///< adapter behind the lambda observer API
  rv::SinkChain sinks_;
  bool started_ = false;
};

}  // namespace ahb::hb
