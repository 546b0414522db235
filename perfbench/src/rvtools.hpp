// Event recording and isolated replay for the monitor probes: a stream
// recorded once from an engine run is replayed into one sink at a time
// through its own SinkChain, so each monitor's cost per event is
// measured alone.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "rv/event_sink.hpp"
#include "rv/sink_chain.hpp"

namespace perfbench {

struct RecordedEvent {
  bool channel = false;
  ahb::hb::ProtocolEvent protocol;
  ahb::sim::ChannelEvent chan;
};

/// Subscribes to every event kind; keeps the first `cap` events and
/// counts all protocol events. With cap 0 it is the trivial "one sink"
/// of the chain-emit probe.
class Recorder final : public ahb::rv::EventSink {
 public:
  explicit Recorder(std::size_t cap) : cap_(cap) {}

  std::uint32_t channel_interest() const override {
    return ahb::rv::kAllChannelEvents;
  }
  void on_protocol_event(const ahb::hb::ProtocolEvent& event) override {
    ++protocol_events_;
    if (events_.size() < cap_) events_.push_back({false, event, {}});
  }
  void on_channel_event(const ahb::sim::ChannelEvent& event) override {
    if (events_.size() < cap_) events_.push_back({true, {}, event});
  }

  const std::vector<RecordedEvent>& events() const { return events_; }
  std::uint64_t protocol_events() const { return protocol_events_; }
  /// Time of the last kept event: the horizon a replay finishes at.
  ahb::sim::Time last_time() const {
    if (events_.empty()) return 0;
    const auto& last = events_.back();
    return last.channel ? last.chan.at : last.protocol.at;
  }

 private:
  std::size_t cap_;
  std::vector<RecordedEvent> events_;
  std::uint64_t protocol_events_ = 0;
};

/// Replays `stream` through a chain holding only `sink` (or no sink),
/// then finishes the chain at `horizon`. Returns the seconds taken. A
/// monitor's cost is quoted per event of the stream, chain dispatch
/// included: a sink pays nothing for the kinds its masks exclude.
inline double replay(const std::vector<RecordedEvent>& stream,
                     ahb::rv::EventSink* sink, ahb::sim::Time horizon) {
  ahb::rv::SinkChain chain;
  if (sink != nullptr) chain.add(sink);
  const auto start = Clock::now();
  for (const RecordedEvent& event : stream) {
    if (event.channel) {
      chain.emit(event.chan);
    } else {
      chain.emit(event.protocol);
    }
  }
  chain.finish(horizon);
  return seconds_since(start);
}

}  // namespace perfbench
