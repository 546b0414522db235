// ScaleCluster: the massive-cluster heartbeat engine.
//
// Same protocol, different mechanics. hb::Cluster simulates a handful
// of nodes with one heap-allocated Coordinator/Participant object per
// process, a std::function handler per node and an Actions vector per
// protocol step — fine for conformance work, hopeless for a
// coordinator watching 100k members. ScaleCluster keeps
// the protocol state in struct-of-arrays form (status, deadline,
// next-join, waiting-time ladders as parallel flat vectors indexed by
// dense node id; joined/received/leave-requested as word-packed
// bitsets), arms every deadline on a hierarchical timer wheel
// (sim/timer_wheel.hpp, O(1) arm/cancel/rearm), and runs beats through
// an inlined flat transport with no per-message heap allocation: a
// round boundary is one pass over the member table that fans out every
// beat of the round.
//
// Equivalence contract: for the same ClusterConfig and the same
// injected fault schedule, ScaleCluster consumes the seeded RNG stream
// in exactly the legacy order (loss draw, then delay draw, per send)
// and schedules work in exactly the legacy (time, priority,
// schedule-order) sequence (both engines schedule on the same timer
// wheel, hb::Cluster through sim::Simulator), so its ProtocolEvent
// stream — kinds, times, node ids, message ids, fan-outs — is
// bit-for-bit identical to hb::Cluster's. tests/hb_scale_equivalence_test.cpp pins this on all
// six variants; the conformance replayer accepts its traces unchanged,
// which is what makes the fast engine provably the same protocol.
//
// Deliberately unsupported (use hb::Cluster, which stays the chaos and
// small-n harness): clock drift, per-link parameter overrides, link
// up/down faults, burst loss, duplication. Channel events (Sent, Lost,
// Delivered, Corrupted, Rejected) are tapped inline in the flat
// transport and fanned out through the sink chain when some sink
// subscribes; Delivered events report delay 0 because the flat
// transport does not carry the sampled delay to the delivery
// (Blocked/Duplicated never occur here).
//
// Like the legacy engine the flat transport carries validated 8-byte
// wire images (hb/wire.hpp): ClusterConfig::corrupt_probability arms
// uniform payload corruption with the same per-send draw order as
// sim::Network (loss, corruption chance + bit index, delay), so the
// equivalence contract extends to corrupted runs. Clock faults
// (corrupt_clock_at / wrap_clock_at) are emulated on the SoA deadline
// table with the same externally observable reactions as hb::Cluster's
// modular-clock reconstruction — fail-safe fence on an invalid age,
// conservative timeout on a forward jump, silent stall in the
// guard-off wrap control — but event streams under *clock* faults are
// behaviourally, not bit-for-bit, matched across engines.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hb/cluster.hpp"
#include "sim/network.hpp"
#include "sim/timer_wheel.hpp"
#include "util/dense_bitset.hpp"
#include "util/rng.hpp"

namespace ahb::hb {

/// Aggregate throughput counters of one ScaleCluster run.
struct ScaleStats {
  std::uint64_t rounds = 0;  ///< coordinator rounds closed (incl. empty ones)
  std::uint64_t beats = 0;   ///< coordinator -> member beat messages sent
  std::uint64_t replies = 0; ///< participant -> coordinator beats (echo/join/leave)
};

class ScaleCluster {
 public:
  explicit ScaleCluster(const ClusterConfig& config);

  /// Starts all processes at the current simulation time.
  void start();

  void run_until(sim::Time horizon);

  // Fault/behaviour injection (scheduled at absolute times), mirroring
  // hb::Cluster's API and semantics.
  void crash_coordinator_at(sim::Time when);
  void crash_participant_at(int id, sim::Time when);
  void leave_at(int id, sim::Time when);
  void rejoin_at(int id, sim::Time when);
  /// Clock corruption/wrap, mirroring hb::Cluster's semantics (see its
  /// declarations); emulated on the flat deadline table.
  void corrupt_clock_at(int id, sim::Time when, std::int64_t delta);
  void wrap_clock_at(int id, sim::Time when, std::uint64_t margin);

  /// Registers a runtime-verification sink (not owned; must outlive the
  /// cluster). Install before start(). Event construction is gated on
  /// the chain's cached interest masks, so the 100k-node hot path never
  /// pays for observability nothing subscribed to. run_until does not
  /// call finish on the sinks — drive `sinks().finish(horizon)` when
  /// the run ends.
  void add_sink(rv::EventSink* sink) { sinks_.add(sink); }
  /// Deregisters a sink mid-run (between run_until calls), so it can be
  /// destroyed before the cluster without leaving a dangling pointer in
  /// the chain.
  void remove_sink(rv::EventSink* sink) { sinks_.remove(sink); }
  rv::SinkChain& sinks() { return sinks_; }

  // Legacy lambda observers, the same thin adapter over the sink chain
  // as hb::Cluster's (the duplicated per-engine callback bookkeeping
  // lives once in rv::CallbackSink now).

  /// Observer over every protocol-level event. Install before start().
  void on_protocol_event(std::function<void(const ProtocolEvent&)> cb) {
    legacy_.set_protocol(std::move(cb));
    sinks_.refresh();
  }

  /// Observer over every non-voluntary inactivation (node id, time).
  void on_inactivation(std::function<void(int, sim::Time)> cb) {
    legacy_.set_inactivation(std::move(cb));
    sinks_.refresh();
  }

  /// Observer over the flat transport's channel events (see the header
  /// comment for the tap's semantics).
  void on_channel_event(std::function<void(const sim::ChannelEvent&)> cb) {
    legacy_.set_channel(std::move(cb));
    sinks_.refresh();
  }

  const ClusterConfig& config() const { return config_; }
  int participant_count() const { return participants_; }
  sim::Time now() const { return now_; }

  Status coordinator_status() const { return coord_status_; }
  sim::Time coordinator_inactivated_at() const { return coord_inactivated_at_; }
  /// Current round length t of the coordinator.
  sim::Time coordinator_wait() const { return t_; }
  /// Number of currently joined members.
  int member_count() const { return static_cast<int>(joined_.count()); }
  bool is_member(int id) const;

  Status participant_status(int id) const;
  sim::Time participant_inactivated_at(int id) const;
  bool participant_joined(int id) const;

  /// True iff every process has stopped participating.
  bool all_inactive() const;

  const sim::NetworkStats& network_stats() const { return net_stats_; }
  const ScaleStats& stats() const { return scale_stats_; }

 private:
  /// Wheel payload: one pending simulation event, by value (pooled in
  /// the wheel's node arena — no per-message allocation).
  struct Ev {
    enum class Kind : std::uint8_t {
      Deliver,           ///< message delivery: from -> node
      NodeTimer,         ///< node's deadline timer (0 = coordinator)
      CrashCoordinator,
      CrashParticipant,
      Leave,
      Rejoin,
      ClockOffset,       ///< node's register jumps by (int64)wire
      ClockWrap,         ///< node's register repositioned `wire` before 2^64
      ClockWrapCross,    ///< guard-off wrap crossing (internal)
    };
    Kind kind{};
    bool flag = true;
    std::int32_t from = 0;
    std::int32_t node = 0;
    std::uint64_t msg_id = 0;
    std::uint64_t wire = 0;  ///< Deliver: wire image; Clock*: operand
  };
  using Wheel = sim::TimerWheel<Ev>;

  void handle(const Ev& ev);
  void deliver_to_coordinator(int from, std::uint64_t wire, std::uint64_t id);
  void deliver_to_participant(int id, int from, std::uint64_t wire,
                              std::uint64_t id_);
  void coordinator_elapsed();
  void participant_elapsed(int id);
  void close_round();
  /// Parse-or-drop boundary validation of a delivered wire image.
  std::optional<Message> decode_wire(int from, const WireMessage& wire) const;
  void apply_clock_offset(int node, std::int64_t delta);
  void apply_wrap_cross(int node);
  /// Fail-safe reaction to an invalid clock age: fence the node.
  void fence_node(int node);

  /// Sends one beat: assigns the next message id, applies the loss and
  /// delay draws in exactly the legacy per-send order, and arms the
  /// delivery on the wheel. Returns the assigned id.
  std::uint64_t send(int from, int to, bool flag);

  /// Cancels and re-arms node `id`'s deadline timer at its next event
  /// time — called wherever the legacy harness calls arm_timer so timer
  /// sequence numbers (the same-instant tiebreaker) allocate in the
  /// same order.
  void arm_node_timer(int id);
  sim::Time node_next_event(int id) const;
  void emit(ProtocolEvent::Kind kind, int node, std::uint64_t msg_id = 0,
            std::uint32_t fanout = 0);
  void track_delivery(std::vector<std::uint64_t>& newest, int index,
                      std::uint64_t id);

  ClusterConfig config_;
  int participants_;
  proto::Timing timing_;
  int timer_priority_;

  Wheel wheel_;
  Rng rng_;
  sim::Time now_ = 0;
  bool started_ = false;

  // Flat transport (homogeneous links).
  double loss_probability_;
  double corrupt_probability_;
  sim::Time min_delay_;
  sim::Time delay_span_;  ///< max_delay - min_delay
  sim::Time spec_max_delay_;
  std::uint64_t next_msg_id_ = 1;
  sim::NetworkStats net_stats_;
  ScaleStats scale_stats_;
  /// Per-link newest-delivered ids for the reordering counter: the
  /// topology is a star, so one entry per participant per direction.
  std::vector<std::uint64_t> newest_to_coord_;
  std::vector<std::uint64_t> newest_from_coord_;

  // Coordinator: struct-of-arrays member table indexed by node id.
  Status coord_status_ = Status::Active;
  sim::Time t_;               ///< current round length
  sim::Time round_deadline_ = 0;
  sim::Time coord_inactivated_at_ = kNever;
  DenseBitset joined_;      ///< member currently registered and joined
  DenseBitset rcvd_;        ///< beat received in the current round
  DenseBitset registered_;  ///< ever registered (the legacy map's key set)
  std::vector<sim::Time> tm_;  ///< per-member waiting-time ladder
  Wheel::Handle coord_timer_;

  // Participants: parallel flat vectors indexed by node id (slot 0 unused).
  std::vector<Status> p_status_;
  DenseBitset p_joined_;
  DenseBitset p_leave_requested_;
  std::vector<sim::Time> p_deadline_;
  std::vector<sim::Time> p_next_join_;
  std::vector<sim::Time> p_inactivated_at_;
  std::vector<sim::Time> p_left_at_;
  std::vector<Wheel::Handle> p_timer_;

  rv::CallbackSink legacy_;  ///< adapter behind the lambda observer API
  rv::SinkChain sinks_;
};

}  // namespace ahb::hb
