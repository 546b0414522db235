// Lossy, bounded-delay message transport for simulation experiments.
//
// Matches the channel assumptions of the protocol: a message is either
// lost or delivered within a bounded delay; delivery order between
// distinct messages is not guaranteed. Per-link loss probability and
// delay range are configurable, and faults (link down, node crash) can
// be injected at runtime.
//
// Beyond the baseline i.i.d. loss model the network supports the richer
// fault models the chaos layer (src/chaos) drives: Gilbert–Elliott
// bursty loss (a two-state Markov chain per directed link), message
// duplication, and out-of-spec delay injection. Every send is stamped
// with a monotonically increasing message id which is handed to the
// receiver, so sends and deliveries are separately identifiable events;
// an optional channel-event observer sees every send/delivery/loss with
// that id (the raw material for runtime requirement monitors).
//
// Determinism: features draw from the simulator RNG only when enabled
// (burst state only advances when p_enter > 0, duplication and payload
// corruption only roll when their probabilities are > 0), so
// default-configured runs consume the exact same random stream as
// before these models existed.
//
// Hot-path state is dense: handlers and per-link newest-delivered ids
// live in vectors indexed by node id, node isolation is a bitset behind
// an any-isolated flag, and the rarely-touched fault state (links down,
// burst chains, per-link overrides) hides behind empty-checks — a
// healthy send touches no associative container at all. A message in
// flight waits in a pooled record and its delivery is one typed
// Simulator::Call, so a warm transport sends without allocating.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <type_traits>
#include <vector>

#include "sim/simulator.hpp"
#include "util/dense_bitset.hpp"

namespace ahb::sim {

struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;      ///< dropped by random loss (incl. burst loss)
  std::uint64_t blocked = 0;   ///< dropped because the link was down
  std::uint64_t duplicated = 0;         ///< extra copies created
  std::uint64_t reordered = 0;          ///< deliveries that overtook a later id
  std::uint64_t out_of_spec_delay = 0;  ///< sampled delays above the spec bound
  std::uint64_t corrupted = 0;  ///< payloads bit-flipped in flight
  std::uint64_t rejected = 0;   ///< deliveries the receiver refused to parse
};

/// Gilbert–Elliott two-state loss model of a directed link: each send
/// first advances the good/bad Markov state, then applies the bad-state
/// loss probability while in a burst (the i.i.d. `loss_probability`
/// still applies in the good state). Disabled while p_enter == 0.
struct BurstParams {
  double p_enter = 0.0;        ///< good -> bad transition probability per send
  double p_exit = 1.0;         ///< bad -> good transition probability per send
  double loss = 1.0;           ///< loss probability while in the bad state
};

/// One observable channel-level event, stamped with the message id its
/// send was assigned. `delay` is meaningful for Delivered only.
/// Corrupted fires at send time when the link flips a payload bit (the
/// message still travels); Rejected fires at delivery time when the
/// receiver's wire-image validation refuses the payload.
struct ChannelEvent {
  enum class Kind { Sent, Delivered, Lost, Blocked, Duplicated, Corrupted,
                    Rejected };
  Kind kind{};
  int from = 0;
  int to = 0;
  std::uint64_t id = 0;
  Time at = 0;
  Time delay = 0;
};

/// Flips bit `bit` of the object representation of `value`. Addressed
/// byte-first so both heartbeat engines corrupt identically regardless
/// of the payload's integer layout.
template <typename T>
void corrupt_bit(T& value, std::uint64_t bit) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto* bytes = reinterpret_cast<unsigned char*>(&value);
  bytes[bit >> 3] ^= static_cast<unsigned char>(1u << (bit & 7));
}

/// Parameters of a directed link. Shared across Network instantiations
/// (it is payload-independent), so hosts can configure a
/// Network<WireMessage> and a Network<Message> with the same struct.
struct LinkParams {
  double loss_probability = 0.0;
  Time min_delay = 0;
  Time max_delay = 1;  ///< inclusive; one-way delay bound
  BurstParams burst;
  double duplicate_probability = 0.0;
  double corrupt_probability = 0.0;  ///< per-send payload bit-flip chance
};

template <typename MessageT>
class Network {
 public:
  /// Message handler with the sender and the send-assigned message id
  /// (a duplicated delivery repeats the original id).
  using Handler = std::function<void(int from, const MessageT&, std::uint64_t id)>;
  /// Id-less handler kept for hosts that do not track message identity.
  using SimpleHandler = std::function<void(int from, const MessageT&)>;
  using Observer = std::function<void(const ChannelEvent&)>;

  using LinkParams = sim::LinkParams;

  explicit Network(Simulator& sim, LinkParams defaults = {})
      : sim_(&sim), defaults_(defaults) {}
  // Pending deliveries are scheduled with `this` as their context.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers the message handler of node `id`.
  void attach(int id, Handler handler) {
    AHB_EXPECTS(handler != nullptr);
    AHB_EXPECTS(id >= 0);
    if (static_cast<std::size_t>(id) >= handlers_.size()) {
      handlers_.resize(static_cast<std::size_t>(id) + 1);
    }
    handlers_[static_cast<std::size_t>(id)] = std::move(handler);
  }
  void attach(int id, SimpleHandler handler) {
    AHB_EXPECTS(handler != nullptr);
    attach(id, Handler{[h = std::move(handler)](
                           int from, const MessageT& m, std::uint64_t) {
      h(from, m);
    }});
  }

  /// Overrides parameters for the directed link from -> to.
  void set_link(int from, int to, LinkParams params) {
    links_[{from, to}] = params;
  }

  /// Parameters a send on from -> to would use right now.
  LinkParams link_params(int from, int to) const { return link(from, to); }

  /// Default parameters of links without an override; mutable at
  /// runtime (affects messages sent from now on, never in-flight ones).
  LinkParams& default_params() { return defaults_; }

  /// Takes the directed link down (messages silently dropped) or up.
  void set_link_up(int from, int to, bool up) {
    const std::uint64_t key = link_key(from, to);
    const auto it = std::lower_bound(down_.begin(), down_.end(), key);
    if (up) {
      if (it != down_.end() && *it == key) down_.erase(it);
    } else if (it == down_.end() || *it != key) {
      down_.insert(it, key);
    }
  }

  /// Disconnects a node entirely (crash): all its incident messages are
  /// dropped from now on.
  void isolate(int id) {
    AHB_EXPECTS(id >= 0);
    if (static_cast<std::size_t>(id) >= isolated_.size()) {
      isolated_.resize(static_cast<std::size_t>(id) + 1);
    }
    isolated_.set(static_cast<std::size_t>(id));
    any_isolated_ = true;
  }

  /// One-way delay bound of the channel specification; sampled delays
  /// above it count into NetworkStats::out_of_spec_delay (chaos runs
  /// use the counter to prove a run exercised out-of-spec injection).
  /// Negative disables the classification.
  void set_spec_max_delay(Time bound) { spec_max_delay_ = bound; }

  /// Observer over every channel-level event (see ChannelEvent).
  void on_channel_event(Observer observer) { observer_ = std::move(observer); }

  /// Sends and returns the message id assigned to this send.
  std::uint64_t send(int from, int to, MessageT message) {
    const std::uint64_t id = next_id_++;
    ++stats_.sent;
    notify(ChannelEvent::Kind::Sent, from, to, id, 0);
    if (is_isolated(from) || is_isolated(to) || link_down(from, to)) {
      ++stats_.blocked;
      notify(ChannelEvent::Kind::Blocked, from, to, id, 0);
      return id;
    }
    const LinkParams& params = link(from, to);
    double loss_probability = params.loss_probability;
    if (params.burst.p_enter > 0) {
      bool& bursting = burst_state(from, to);
      bursting = bursting ? !sim_->rng().chance(params.burst.p_exit)
                          : sim_->rng().chance(params.burst.p_enter);
      if (bursting) loss_probability = std::max(loss_probability, params.burst.loss);
    }
    if (sim_->rng().chance(loss_probability)) {
      ++stats_.lost;
      notify(ChannelEvent::Kind::Lost, from, to, id, 0);
      return id;
    }
    if (params.corrupt_probability > 0 &&
        sim_->rng().chance(params.corrupt_probability)) {
      corrupt_bit(message,
                  sim_->rng().below(sizeof(MessageT) * 8));
      ++stats_.corrupted;
      notify(ChannelEvent::Kind::Corrupted, from, to, id, 0);
    }
    schedule_delivery(from, to, id, message, sample_delay(params));
    if (params.duplicate_probability > 0 &&
        sim_->rng().chance(params.duplicate_probability)) {
      ++stats_.duplicated;
      notify(ChannelEvent::Kind::Duplicated, from, to, id, 0);
      schedule_delivery(from, to, id, message, sample_delay(params));
    }
    return id;
  }

  /// The receiver refused to parse a delivered payload (wire-image
  /// validation); hosts report it here so the rejection shows up next
  /// to the corruption counter it answers.
  void count_rejection() { ++stats_.rejected; }

  const NetworkStats& stats() const { return stats_; }

 private:
  struct LinkKey {
    int from;
    int to;
    friend auto operator<=>(const LinkKey&, const LinkKey&) = default;
  };

  Time sample_delay(const LinkParams& params) {
    const Time delay =
        params.min_delay +
        static_cast<Time>(sim_->rng().below(
            static_cast<std::uint64_t>(params.max_delay - params.min_delay) +
            1));
    if (spec_max_delay_ >= 0 && delay > spec_max_delay_) {
      ++stats_.out_of_spec_delay;
    }
    return delay;
  }

  /// A message in flight, parked in a pooled slot until its delivery
  /// event (one allocation-free Call carrying the slot index) fires.
  struct InFlight {
    int from;
    int to;
    std::uint64_t id;
    Time delay;
    MessageT msg;
  };

  void schedule_delivery(int from, int to, std::uint64_t id,
                         const MessageT& message, Time delay) {
    std::uint64_t slot;
    if (free_in_flight_.empty()) {
      slot = in_flight_.size();
      in_flight_.push_back({from, to, id, delay, message});
    } else {
      slot = free_in_flight_.back();
      free_in_flight_.pop_back();
      in_flight_[slot] = {from, to, id, delay, message};
    }
    sim_->after(delay, Call{&deliver_thunk, this, slot});
  }

  static void deliver_thunk(void* self, std::uint64_t slot) {
    auto& net = *static_cast<Network*>(self);
    const InFlight m = net.in_flight_[slot];
    net.free_in_flight_.push_back(slot);
    net.deliver(m);
  }

  void deliver(const InFlight& m) {
    if (is_isolated(m.to)) {
      ++stats_.blocked;
      notify(ChannelEvent::Kind::Blocked, m.from, m.to, m.id, m.delay);
      return;
    }
    if (static_cast<std::size_t>(m.to) >= handlers_.size() ||
        !handlers_[static_cast<std::size_t>(m.to)]) {
      return;  // crashed nodes receive silently
    }
    ++stats_.delivered;
    std::uint64_t& newest = newest_delivered(m.from, m.to);
    if (m.id < newest) {
      ++stats_.reordered;
    } else {
      newest = m.id;
    }
    notify(ChannelEvent::Kind::Delivered, m.from, m.to, m.id, m.delay);
    handlers_[static_cast<std::size_t>(m.to)](m.from, m.msg, m.id);
  }

  void notify(ChannelEvent::Kind kind, int from, int to, std::uint64_t id,
              Time delay) {
    if (observer_) {
      observer_(ChannelEvent{kind, from, to, id, sim_->now(), delay});
    }
  }

  const LinkParams& link(int from, int to) const {
    if (links_.empty()) return defaults_;  // hot path: no overrides
    const auto it = links_.find({from, to});
    return it == links_.end() ? defaults_ : it->second;
  }

  bool is_isolated(int id) const {
    return any_isolated_ && id >= 0 &&
           static_cast<std::size_t>(id) < isolated_.size() &&
           isolated_.test(static_cast<std::size_t>(id));
  }

  /// Directed link as one sortable key (nodes are ids >= 0 in practice;
  /// the cast keeps negatives distinct too).
  static std::uint64_t link_key(int from, int to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  }

  bool link_down(int from, int to) const {
    if (down_.empty()) return false;  // hot path: no injected faults
    return std::binary_search(down_.begin(), down_.end(),
                              link_key(from, to));
  }

  /// Burst chains exist only on links the chaos layer configured, so a
  /// small find-or-insert vector beats a map without making the
  /// default path pay for it (the caller already checked p_enter > 0).
  bool& burst_state(int from, int to) {
    const std::uint64_t key = link_key(from, to);
    const auto it = std::lower_bound(
        burst_state_.begin(), burst_state_.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    if (it != burst_state_.end() && it->first == key) return it->second;
    return burst_state_.insert(it, {key, false})->second;
  }

  /// Newest-delivered id per directed link, dense by [to][from]: the
  /// reordering counter's state is touched on every delivery.
  std::uint64_t& newest_delivered(int from, int to) {
    if (static_cast<std::size_t>(to) >= newest_delivered_.size()) {
      newest_delivered_.resize(static_cast<std::size_t>(to) + 1);
    }
    auto& by_from = newest_delivered_[static_cast<std::size_t>(to)];
    if (static_cast<std::size_t>(from) >= by_from.size()) {
      by_from.resize(static_cast<std::size_t>(from) + 1, 0);
    }
    return by_from[static_cast<std::size_t>(from)];
  }

  Simulator* sim_;
  LinkParams defaults_;
  std::map<LinkKey, LinkParams> links_;
  std::vector<std::uint64_t> down_;  ///< sorted link_key()s
  std::vector<Handler> handlers_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint64_t> free_in_flight_;
  DenseBitset isolated_;
  bool any_isolated_ = false;
  std::vector<std::pair<std::uint64_t, bool>> burst_state_;
  std::vector<std::vector<std::uint64_t>> newest_delivered_;
  std::uint64_t next_id_ = 1;
  Time spec_max_delay_ = -1;
  Observer observer_;
  NetworkStats stats_;
};

}  // namespace ahb::sim
