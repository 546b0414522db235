// Chaos-layer tests: the fault models of sim::Network, per-message ids
// in the protocol-event stream, FaultSchedule serialization, run/
// campaign determinism, the in-spec campaign staying clean, the
// out-of-spec negative control firing + shrinking + replaying, and the
// mutation canary (a loosened monitor bound must silence the expected
// violation — the proof the monitors actually bite).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chaos/campaign.hpp"
#include "hb/cluster.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ahb::chaos {
namespace {

// --- sim::Network fault models -------------------------------------------

TEST(Network, DuplicationDeliversSameIdTwice) {
  sim::Simulator sim{7};
  sim::Network<int> net{sim, {.loss_probability = 0.0,
                              .min_delay = 0,
                              .max_delay = 0,
                              .duplicate_probability = 1.0}};
  std::vector<std::uint64_t> delivered;
  net.attach(0, [&](int, const int&, std::uint64_t id) {
    delivered.push_back(id);
  });
  const std::uint64_t id = net.send(1, 0, 42);
  sim.run_until(10);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{id, id}));
  EXPECT_EQ(net.stats().duplicated, 1u);
  EXPECT_EQ(net.stats().delivered, 2u);
  EXPECT_EQ(net.stats().sent, 1u);
}

TEST(Network, ReorderedDeliveryCounted) {
  sim::Simulator sim{7};
  sim::Network<int> net{sim, {.min_delay = 3, .max_delay = 3}};
  std::vector<std::uint64_t> delivered;
  net.attach(0, [&](int, const int&, std::uint64_t id) {
    delivered.push_back(id);
  });
  const std::uint64_t slow = net.send(1, 0, 1);  // delivered at t=3
  net.set_link(1, 0, {.min_delay = 0, .max_delay = 0});
  std::uint64_t fast = 0;
  sim.at(1, [&] { fast = net.send(1, 0, 2); });  // delivered at t=1
  sim.run_until(10);
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{fast, slow}));
  EXPECT_EQ(net.stats().reordered, 1u);
}

TEST(Network, BurstLossDropsEverythingWhileBad) {
  sim::Simulator sim{7};
  sim::Network<int> net{
      sim, {.burst = {.p_enter = 1.0, .p_exit = 0.0, .loss = 1.0}}};
  net.attach(0, [&](int, const int&, std::uint64_t) { FAIL(); });
  for (int i = 0; i < 5; ++i) net.send(1, 0, i);
  sim.run_until(10);
  EXPECT_EQ(net.stats().lost, 5u);
  EXPECT_EQ(net.stats().delivered, 0u);
}

TEST(Network, OutOfSpecDelaySamplesCounted) {
  sim::Simulator sim{7};
  sim::Network<int> net{sim, {.min_delay = 2, .max_delay = 2}};
  net.set_spec_max_delay(1);
  net.attach(0, [](int, const int&, std::uint64_t) {});
  net.send(1, 0, 1);
  net.send(1, 0, 2);
  sim.run_until(10);
  EXPECT_EQ(net.stats().out_of_spec_delay, 2u);
  EXPECT_EQ(net.stats().delivered, 2u);
}

// Sends and deliveries of one message share its id, so the two are
// separately identifiable trace events — the groundwork nonzero-delay
// conformance replay needs.
TEST(Cluster, MessageIdsPairSendsWithDeliveries) {
  hb::ClusterConfig config;
  config.protocol = hb::Config{2, 8, proto::Variant::Binary, true};
  config.participants = 1;
  config.seed = 3;
  hb::Cluster cluster{config};
  std::set<std::uint64_t> sent_ids;
  std::vector<std::uint64_t> reply_ids;
  std::vector<std::uint64_t> delivered_to_coordinator;
  cluster.on_protocol_event([&](const hb::ProtocolEvent& event) {
    using Kind = hb::ProtocolEvent::Kind;
    switch (event.kind) {
      case Kind::CoordinatorBeat:
      case Kind::ParticipantReplied:
      case Kind::ParticipantJoinBeat:
        EXPECT_GT(event.msg_id, 0u);
        sent_ids.insert(event.msg_id);
        if (event.kind == Kind::ParticipantReplied) {
          reply_ids.push_back(event.msg_id);
        }
        break;
      case Kind::CoordinatorReceivedBeat:
        delivered_to_coordinator.push_back(event.msg_id);
        break;
      default:
        break;
    }
  });
  cluster.start();
  cluster.run_until(200);
  ASSERT_FALSE(reply_ids.empty());
  ASSERT_FALSE(delivered_to_coordinator.empty());
  // Ids are assigned monotonically at send time.
  for (std::size_t i = 1; i < reply_ids.size(); ++i) {
    EXPECT_LT(reply_ids[i - 1], reply_ids[i]);
  }
  // Every delivery observed at the coordinator is one of the sends.
  for (const std::uint64_t id : delivered_to_coordinator) {
    EXPECT_TRUE(sent_ids.contains(id));
  }
}

// --- FaultSchedule serialization -----------------------------------------

RunSpec sample_spec() {
  RunSpec spec;
  spec.variant = Variant::Dynamic;
  spec.tmin = 2;
  spec.tmax = 8;
  spec.participants = 3;
  spec.seed = 77;
  spec.horizon = 500;
  spec.schedule.actions = {
      {FaultKind::SetBurst, 10, 0, 2, 0.25, 0.5, 0.875, 0, 0},
      {FaultKind::Partition, 20, 1, 2, 0, 0, 0, 0, 0},
      {FaultKind::Heal, 44, 1, 2, 0, 0, 0, 0, 0},
      {FaultKind::CrashParticipant, 60, 1, 0, 0, 0, 0, 0, 0},
      {FaultKind::SetDrift, 70, 2, 0, 0, 0, 0, 3, 2},
  };
  return spec;
}

TEST(FaultSchedule, SerializeParseRoundTrip) {
  const RunSpec spec = sample_spec();
  const auto parsed = parse_run(serialize_run(spec));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, spec);
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(serialize_run(*parsed), serialize_run(spec));
}

TEST(FaultSchedule, ParseRejectsMalformedInput) {
  EXPECT_FALSE(parse_run("").has_value());
  EXPECT_FALSE(parse_run("{\"schedule\": \"other\"}").has_value());
  EXPECT_FALSE(parse_run("{\"schedule\": \"ahb-chaos\", \"variant\": "
                         "\"binary\", \"tmin\": 1}")
                   .has_value());
  std::string text = serialize_run(sample_spec());
  const auto pos = text.find("set-drift");
  text.replace(pos, 9, "no-such-f");
  EXPECT_FALSE(parse_run(text).has_value());
}

TEST(FaultSchedule, OutOfSpecClassification) {
  const proto::Timing timing{4, 16};
  FaultAction action;
  action.kind = FaultKind::SetDelay;
  action.d2 = 2;  // == tmin/2: the round trip still fits in tmin
  EXPECT_FALSE(action.out_of_spec(timing));
  action.d2 = 3;
  EXPECT_TRUE(action.out_of_spec(timing));
  action.kind = FaultKind::SetDrift;
  action.d1 = 2;
  action.d2 = 2;  // identity rate
  EXPECT_FALSE(action.out_of_spec(timing));
  action.d2 = 1;
  EXPECT_TRUE(action.out_of_spec(timing));
  action.kind = FaultKind::SetLoss;
  action.p = 1.0;  // arbitrary loss is within the channel spec
  EXPECT_FALSE(action.out_of_spec(timing));
}

// --- determinism ----------------------------------------------------------

TEST(Determinism, SameSeedSameScheduleAndTrace) {
  RunSpec spec;
  spec.variant = Variant::Dynamic;
  spec.tmin = 2;
  spec.tmax = 4;
  spec.participants = 2;
  spec.seed = 11;
  spec.horizon = campaign_horizon(spec.timing(), spec.variant, true);
  const FaultSchedule once = generate_schedule(spec, false);
  const FaultSchedule twice = generate_schedule(spec, false);
  EXPECT_EQ(once, twice);
  spec.schedule = once;
  const RunResult a = run_chaos(spec, nullptr, true);
  const RunResult b = run_chaos(spec, nullptr, true);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(Determinism, IdentityDriftIsANoop) {
  RunSpec spec;
  spec.variant = Variant::Binary;
  spec.tmin = 1;
  spec.tmax = 16;
  spec.seed = 5;
  spec.horizon = 200;
  const RunResult plain = run_chaos(spec, nullptr, true);
  spec.schedule.actions = {{FaultKind::SetDrift, 30, 1, 0, 0, 0, 0, 1, 1}};
  const RunResult drifted = run_chaos(spec, nullptr, true);
  EXPECT_EQ(plain.trace, drifted.trace);
  EXPECT_TRUE(drifted.violations.empty());
}

TEST(Determinism, CampaignFingerprintInvariantUnderThreads) {
  CampaignOptions options;
  options.runs_per_config = 3;
  options.shrink = false;
  options.threads = 1;
  const CampaignResult one = run_campaign(options);
  options.threads = 8;
  const CampaignResult eight = run_campaign(options);
  EXPECT_EQ(one.runs, eight.runs);
  EXPECT_EQ(one.fingerprint, eight.fingerprint);
  EXPECT_EQ(one.violating_runs, eight.violating_runs);
  EXPECT_EQ(one.totals.sent, eight.totals.sent);
}

TEST(Determinism, CampaignRepeatsAreIdentical) {
  CampaignOptions options;
  options.runs_per_config = 2;
  options.out_of_spec = true;
  options.shrink = false;
  const CampaignResult a = run_campaign(options);
  const CampaignResult b = run_campaign(options);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.violating_runs, b.violating_runs);
  ASSERT_EQ(a.violating.size(), b.violating.size());
  for (std::size_t i = 0; i < a.violating.size(); ++i) {
    EXPECT_EQ(a.violating[i].spec, b.violating[i].spec);
    ASSERT_FALSE(a.violating[i].violations.empty());
    EXPECT_EQ(a.violating[i].violations.front().key(),
              b.violating[i].violations.front().key());
  }
}

// --- campaigns ------------------------------------------------------------

// In-spec faults (loss, bursts, partitions, duplication, crashes,
// leaves, delays within tmin/2) must never trip R1–R3: the corrected
// protocol's guarantees hold under the channel assumptions, so any
// violation here is a real bug. The 1000+-run version of this is the
// acceptance gate run by bench_chaos_campaign.
TEST(Campaign, InSpecRunsAreClean) {
  CampaignOptions options;
  options.runs_per_config = 10;  // 6 variants x 3 timings x 10 = 180 runs
  const CampaignResult result = run_campaign(options);
  EXPECT_EQ(result.runs, 180u);
  EXPECT_EQ(result.violating_runs, 0u) << "in-spec chaos found a protocol bug";
  // The profile actually exercised the fault models…
  EXPECT_GT(result.totals.lost + result.totals.blocked, 0u);
  EXPECT_GT(result.totals.duplicated, 0u);
  // …while staying inside the channel assumptions.
  EXPECT_EQ(result.totals.out_of_spec_delay, 0u);
}

TEST(Campaign, NegativeControlFiresShrinksAndReplays) {
  CampaignOptions options;
  options.runs_per_config = 4;  // 72 runs, every schedule out of spec
  options.out_of_spec = true;
  const CampaignResult result = run_campaign(options);
  EXPECT_GT(result.violating_runs, 0u)
      << "out-of-spec faults never tripped the monitors";
  ASSERT_FALSE(result.violating.empty());
  for (const auto& violating : result.violating) {
    ASSERT_FALSE(violating.violations.empty());
    EXPECT_TRUE(violating.spec.schedule.out_of_spec(violating.spec.timing()));
    // The shrunk schedule is no larger and still out of spec (the
    // violation needs the out-of-spec action to reproduce).
    EXPECT_LE(violating.shrunk.schedule.actions.size(),
              violating.spec.schedule.actions.size());
    EXPECT_FALSE(violating.shrunk.schedule.actions.empty());
    // Replaying the serialized artifact reproduces the identical
    // violation deterministically.
    const auto parsed = parse_run(violating.artifact);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, violating.shrunk);
    const rv::MonitorBounds bounds = rv::MonitorBounds::defaults(
        parsed->timing(), parsed->variant, parsed->fixed_bounds);
    const RunResult replay_a = run_chaos(*parsed, &bounds, true);
    const RunResult replay_b = run_chaos(*parsed, &bounds, true);
    ASSERT_FALSE(replay_a.violations.empty());
    EXPECT_EQ(replay_a.trace, replay_b.trace);
    ASSERT_EQ(replay_a.violations.size(), replay_b.violations.size());
    EXPECT_EQ(replay_a.violations.front().key(),
              replay_b.violations.front().key());
    const auto& target = violating.violations.front();
    EXPECT_TRUE(std::any_of(
        replay_a.violations.begin(), replay_a.violations.end(),
        [&](const rv::Violation& v) {
          return v.requirement == target.requirement && v.node == target.node;
        }));
  }
}

// --- mutation canary ------------------------------------------------------

/// A deterministic out-of-spec reproducer: slow participant clock (rate
/// 1/2) plus a coordinator crash. The drifting participant reaches its
/// local inactivation deadline far too late in global time, missing the
/// R3 bound.
RunSpec drifted_r3_spec() {
  RunSpec spec;
  spec.variant = Variant::Binary;
  spec.tmin = 1;
  spec.tmax = 16;
  spec.participants = 1;
  spec.seed = 9;
  spec.horizon = 400;
  spec.schedule.actions = {
      {FaultKind::SetDrift, 0, 1, 0, 0, 0, 0, 1, 2},
      {FaultKind::CrashCoordinator, 10, 0, 0, 0, 0, 0, 0, 0},
  };
  return spec;
}

TEST(MutationCanary, LoosenedBoundSilencesTheNegativeControl) {
  const RunSpec spec = drifted_r3_spec();
  EXPECT_TRUE(spec.schedule.out_of_spec(spec.timing()));

  // Sound bounds: the drifted run violates R3.
  const RunResult strict = run_chaos(spec);
  ASSERT_FALSE(strict.violations.empty());
  EXPECT_TRUE(std::any_of(strict.violations.begin(), strict.violations.end(),
                          [](const rv::Violation& v) {
                            return v.requirement == 3 && v.node == 1;
                          }));

  // Artificially loosened R3 slack: the same run must stop reporting
  // the violation — the proof the monitor deadline is what bites.
  rv::MonitorBounds loose = rv::MonitorBounds::defaults(
      spec.timing(), spec.variant, spec.fixed_bounds);
  loose.r3_slack += 10 * spec.tmax;
  const RunResult lenient = run_chaos(spec, &loose);
  EXPECT_TRUE(std::none_of(lenient.violations.begin(),
                           lenient.violations.end(),
                           [](const rv::Violation& v) {
                             return v.requirement == 3;
                           }));
}

TEST(MutationCanary, ShrunkReproducerReplaysFromSerializedForm) {
  const RunSpec spec = drifted_r3_spec();
  const RunSpec shrunk = shrink_run(spec);
  ASSERT_FALSE(shrunk.schedule.actions.empty());
  EXPECT_LE(shrunk.schedule.actions.size(), spec.schedule.actions.size());
  const auto parsed = parse_run(serialize_run(shrunk));
  ASSERT_TRUE(parsed.has_value());
  const RunResult replay = run_chaos(*parsed);
  EXPECT_TRUE(std::any_of(replay.violations.begin(), replay.violations.end(),
                          [](const rv::Violation& v) {
                            return v.requirement == 3 && v.node == 1;
                          }));
}

}  // namespace
}  // namespace ahb::chaos
