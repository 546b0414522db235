#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "hb/types.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ahb::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, FifoAtEqualTimes) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(7, [&order, i] { order.push_back(i); });
  }
  sim.run_until(7);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, HorizonStopsExecution) {
  Simulator sim;
  int fired = 0;
  sim.at(5, [&] { ++fired; });
  sim.at(15, [&] { ++fired; });
  sim.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(20);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  const auto id = sim.at(5, [&] { ++fired; });
  sim.at(6, [&] { ++fired; });
  sim.cancel(id);
  sim.run_until(10);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelInvalidIsNoop) {
  Simulator sim;
  sim.cancel(Simulator::kInvalidEvent);
  sim.cancel(12345);  // never scheduled: lazily ignored
  sim.at(1, [] {});
  EXPECT_EQ(sim.run_until(5), 1u);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<Time> times;
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.after(10, tick);
  };
  sim.at(0, tick);
  sim.run_until(1000);
  EXPECT_EQ(times, (std::vector<Time>{0, 10, 20, 30}));
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step(10));
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step(10));
  EXPECT_FALSE(sim.step(10));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, CancelOfFiredOrUnknownIdIsANoop) {
  {  // an id no at() returned
    Simulator sim;
    sim.cancel(12345);
    sim.at(1, [] {});
    EXPECT_EQ(sim.pending(), 1u);
  }
  {  // a fired id, before and after its wheel slot is reused
    Simulator sim;
    const auto fired = sim.at(1, [] {});
    sim.run_until(1);
    sim.cancel(fired);
    EXPECT_EQ(sim.pending(), 0u);
    int ran = 0;
    sim.at(2, [&] { ++ran; });
    sim.cancel(fired);
    EXPECT_EQ(sim.pending(), 1u);
    sim.run_until(2);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(sim.pending(), 0u);
  }
  {  // a self-re-arming timer that cancels its own, already fired, id
    Simulator sim;
    Simulator::EventId timer = Simulator::kInvalidEvent;
    std::function<void()> arm = [&] {
      sim.cancel(timer);
      timer = sim.at(sim.now() + 1, [&] { arm(); }, 1);
    };
    arm();
    sim.run_until(200'000);
    EXPECT_EQ(sim.executed(), 200'000u);
    EXPECT_EQ(sim.pending(), 1u);
  }
}

TEST(Simulator, PooledClosuresAreReleasedOnFireAndOnCancel) {
  Simulator sim;
  const auto token = std::make_shared<int>(0);
  const auto doomed = sim.at(5, [token] {});
  sim.at(6, [token] {});
  EXPECT_EQ(token.use_count(), 3);
  sim.cancel(doomed);
  EXPECT_EQ(token.use_count(), 2);
  sim.run_until(6);
  EXPECT_EQ(token.use_count(), 1);
}

// Seeded random mix of at() (both priorities, typed Call and closure,
// near and far-future), cancel() of any id ever returned (pending,
// fired or cancelled) and run_until(), replayed against an ordered set
// keyed by (when, priority, seq). Events whose seq is a multiple of 5
// arm a child when they fire, some at the same instant, so same-tick
// arms during a drain are covered too.
class OracleReplay {
 public:
  struct Key {
    Time when;
    int priority;
    std::uint64_t seq;
    bool operator<(const Key& other) const {
      return std::tie(when, priority, seq) <
             std::tie(other.when, other.priority, other.seq);
    }
  };

  /// Arms one event on both sides; returns its seq.
  std::uint64_t arm(Time when, int priority, bool typed) {
    const std::uint64_t seq = ids_.size();
    ids_.push_back(typed ? sim_.at(when, Call{&fire, this, seq}, priority)
                         : sim_.at(when, [this, seq] { on_fire(seq); },
                                   priority));
    arm_oracle(when, priority);
    return seq;
  }

  void cancel(std::uint64_t seq) {
    sim_.cancel(ids_[seq]);
    oracle_.erase(keys_[seq]);
  }

  void run_until(Time horizon) {
    sim_.run_until(horizon);
    while (!oracle_.empty() && oracle_.begin()->when <= horizon) {
      const Key key = *oracle_.begin();
      oracle_.erase(oracle_.begin());
      expected_.push_back(key.seq);
      if (spawns(key.seq)) arm_oracle(key.when + child_delay(key.seq),
                                      child_priority(key.seq));
    }
  }

  void expect_agree() const {
    ASSERT_EQ(fired_, expected_);
    ASSERT_EQ(ids_.size(), keys_.size());
    ASSERT_EQ(sim_.pending(), oracle_.size());
    ASSERT_EQ(sim_.executed(), expected_.size());
  }

  Simulator& sim() { return sim_; }
  std::size_t armed() const { return ids_.size(); }

 private:
  static bool spawns(std::uint64_t seq) { return seq % 5 == 0; }
  static Time child_delay(std::uint64_t seq) { return static_cast<Time>(seq % 3); }
  static int child_priority(std::uint64_t seq) { return static_cast<int>(seq / 5 % 2); }

  static void fire(void* self, std::uint64_t seq) {
    static_cast<OracleReplay*>(self)->on_fire(seq);
  }

  void on_fire(std::uint64_t seq) {
    fired_.push_back(seq);
    if (!spawns(seq)) return;
    const std::uint64_t child = ids_.size();
    const Time when = sim_.now() + child_delay(seq);
    ids_.push_back(child % 2 == 0
                       ? sim_.at(when, Call{&fire, this, child},
                                 child_priority(seq))
                       : sim_.at(when, [this, child] { on_fire(child); },
                                 child_priority(seq)));
  }

  void arm_oracle(Time when, int priority) {
    keys_.push_back({when, priority, keys_.size()});
    oracle_.insert(keys_.back());
  }

  Simulator sim_;
  std::vector<Simulator::EventId> ids_;  ///< by seq
  std::vector<std::uint64_t> fired_;
  std::set<Key> oracle_;
  std::vector<Key> keys_;  ///< by seq
  std::vector<std::uint64_t> expected_;
};

TEST(Simulator, RandomMixMatchesWhenPrioritySeqOracle) {
  constexpr Time kSpan = Time{1} << 36;  // the timer wheel's span
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng{seed};
    OracleReplay replay;
    for (int step = 0; step < 2000; ++step) {
      const Time now = replay.sim().now();
      const auto op = rng.below(10);
      if (op < 5) {
        Time delta;
        switch (rng.below(5)) {
          case 0: delta = static_cast<Time>(rng.below(4)); break;
          case 1: delta = static_cast<Time>(rng.below(64 * 64)); break;
          case 2: delta = static_cast<Time>(rng.below(64ull * 64 * 64 * 64)); break;
          case 3: delta = kSpan + static_cast<Time>(rng.below(4096)); break;
          default: delta = hb::kNever / 4 - now; break;
        }
        replay.arm(now + delta, static_cast<int>(rng.below(2)),
                   rng.below(2) == 0);
      } else if (op < 7 && replay.armed() > 0) {
        replay.cancel(rng.below(replay.armed()));
      } else {
        const Time horizon =
            now + (rng.below(10) == 0
                       ? kSpan + static_cast<Time>(rng.below(4096))
                       : static_cast<Time>(rng.below(300)));
        replay.run_until(horizon);
        ASSERT_EQ(replay.sim().now(), horizon);
      }
      replay.expect_agree();
    }
    replay.run_until(hb::kNever / 4 + kSpan);
    replay.expect_agree();
    EXPECT_EQ(replay.sim().pending(), 0u);
  }
}

struct Msg {
  int payload = 0;
};

TEST(Network, DeliversWithinDelayBounds) {
  Simulator sim{42};
  Network<Msg> net{sim, {.loss_probability = 0.0, .min_delay = 2, .max_delay = 5}};
  std::vector<Time> arrivals;
  net.attach(1, [&](int from, const Msg& m) {
    EXPECT_EQ(from, 0);
    EXPECT_EQ(m.payload, 7);
    arrivals.push_back(sim.now());
  });
  for (int i = 0; i < 50; ++i) net.send(0, 1, Msg{7});
  sim.run_until(100);
  ASSERT_EQ(arrivals.size(), 50u);
  for (const Time t : arrivals) {
    EXPECT_GE(t, 2);
    EXPECT_LE(t, 5);
  }
  EXPECT_EQ(net.stats().delivered, 50u);
  EXPECT_EQ(net.stats().lost, 0u);
}

TEST(Network, LossRateRoughlyCalibrated) {
  Simulator sim{7};
  Network<Msg> net{sim, {.loss_probability = 0.25, .min_delay = 0, .max_delay = 1}};
  int received = 0;
  net.attach(1, [&](int, const Msg&) { ++received; });
  const int total = 10000;
  for (int i = 0; i < total; ++i) net.send(0, 1, Msg{});
  sim.run_until(10);
  const double loss = 1.0 - static_cast<double>(received) / total;
  EXPECT_NEAR(loss, 0.25, 0.03);
  EXPECT_EQ(net.stats().sent, static_cast<std::uint64_t>(total));
  EXPECT_EQ(net.stats().delivered + net.stats().lost,
            static_cast<std::uint64_t>(total));
}

TEST(Network, DeterministicForSeed) {
  const auto run = [](std::uint64_t seed) {
    Simulator sim{seed};
    Network<Msg> net{sim, {.loss_probability = 0.5, .min_delay = 0, .max_delay = 3}};
    std::vector<Time> arrivals;
    net.attach(1, [&](int, const Msg&) { arrivals.push_back(sim.now()); });
    for (int i = 0; i < 100; ++i) net.send(0, 1, Msg{i});
    sim.run_until(10);
    return arrivals;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Network, LinkOverrideApplies) {
  Simulator sim{1};
  Network<Msg> net{sim, {.loss_probability = 0.0, .min_delay = 0, .max_delay = 0}};
  net.set_link(0, 1, {.loss_probability = 1.0, .min_delay = 0, .max_delay = 0});
  int received_1 = 0, received_2 = 0;
  net.attach(1, [&](int, const Msg&) { ++received_1; });
  net.attach(2, [&](int, const Msg&) { ++received_2; });
  for (int i = 0; i < 20; ++i) {
    net.send(0, 1, Msg{});
    net.send(0, 2, Msg{});
  }
  sim.run_until(5);
  EXPECT_EQ(received_1, 0);  // overridden link loses everything
  EXPECT_EQ(received_2, 20);
}

TEST(Network, LinkDownBlocksSilently) {
  Simulator sim{1};
  Network<Msg> net{sim, {}};
  int received = 0;
  net.attach(1, [&](int, const Msg&) { ++received; });
  net.set_link_up(0, 1, false);
  net.send(0, 1, Msg{});
  sim.run_until(5);
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().blocked, 1u);
  net.set_link_up(0, 1, true);
  net.send(0, 1, Msg{});
  sim.run_until(10);
  EXPECT_EQ(received, 1);
}

TEST(Network, IsolatedNodeNeitherSendsNorReceives) {
  Simulator sim{1};
  Network<Msg> net{sim, {}};
  int received = 0;
  net.attach(1, [&](int, const Msg&) { ++received; });
  net.isolate(0);
  net.send(0, 1, Msg{});  // isolated sender
  net.send(2, 1, Msg{});  // unrelated sender still works
  sim.run_until(5);
  EXPECT_EQ(received, 1);
}

TEST(Network, InFlightMessageDroppedWhenReceiverIsolatedMeanwhile) {
  Simulator sim{1};
  Network<Msg> net{sim, {.loss_probability = 0.0, .min_delay = 3, .max_delay = 3}};
  int received = 0;
  net.attach(1, [&](int, const Msg&) { ++received; });
  net.send(0, 1, Msg{});
  sim.at(1, [&] { net.isolate(1); });
  sim.run_until(10);
  EXPECT_EQ(received, 0);
}

}  // namespace
}  // namespace ahb::sim
