// Reduction soundness tests (the acceptance bar of the symmetry + POR
// work): orbit canonicalization must be permutation-invariant, the
// reduced searches must reproduce the verdicts of the full search on
// every variant, counterexample traces must remain genuine runs of the
// unreduced network, and the stores' open-addressing component fast
// path must stay exact under concurrent intern storms (this binary
// carries the "reduction" ctest label the sanitizer presets run).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "mc/concurrent_store.hpp"
#include "mc/explorer.hpp"
#include "mc/ndfs.hpp"
#include "mc/store.hpp"
#include "models/heartbeat_model.hpp"
#include "proto/timing.hpp"
#include "ta/network.hpp"
#include "util/rng.hpp"

namespace ahb {
namespace {

using models::BuildOptions;
using models::Flavor;
using models::HeartbeatModel;

mc::SearchLimits reduced_limits(unsigned threads = 1) {
  mc::SearchLimits limits;
  limits.threads = threads;
  limits.symmetry = ta::Symmetry::Participants;
  limits.por = true;
  return limits;
}

/// Deterministic BFS-order sample of reachable states.
std::vector<ta::State> sample_states(const ta::Network& net,
                                     std::size_t max_states) {
  std::vector<ta::State> states;
  mc::StateStore seen{net.slot_count()};
  std::vector<ta::State> frontier{net.initial_state()};
  seen.intern(frontier.front());
  states.push_back(frontier.front());
  while (!frontier.empty() && states.size() < max_states) {
    std::vector<ta::State> next;
    for (const auto& s : frontier) {
      for (auto& t : net.successors(s)) {
        if (states.size() >= max_states) break;
        if (seen.intern(t.target).second) {
          states.push_back(t.target);
          next.push_back(std::move(t.target));
        }
      }
    }
    frontier = std::move(next);
  }
  return states;
}

TEST(OrbitCanonicalization, PermutationInvarianceOnReachableStates) {
  // The property that makes the quotient sound: every state in an orbit
  // canonicalizes to the same representative. Checked on real reachable
  // states of the static 3-participant model under random block
  // permutations.
  BuildOptions options;
  options.timing = {2, 4};
  options.participants = 3;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  const auto& codec = model.net().codec();
  ASSERT_TRUE(codec.has_canonicalization());
  ASSERT_EQ(codec.symmetry_block_count(), 3u);

  const auto states = sample_states(model.net(), 4000);
  ASSERT_GE(states.size(), 1000u);

  Rng rng{42};
  std::vector<std::size_t> perm(codec.symmetry_block_count());
  for (int round = 0; round < 300; ++round) {
    const auto& s = states[rng.below(states.size())];
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    // Apply the block permutation: block b's slots move to block
    // perm[b]'s positions (the scalarset group action).
    ta::State permuted = s;
    for (std::size_t b = 0; b < perm.size(); ++b) {
      const auto src = codec.symmetry_block(b);
      const auto dst = codec.symmetry_block(perm[b]);
      for (std::size_t k = 0; k < src.size(); ++k) {
        permuted.slots_mut()[dst[k]] = s.slots()[src[k]];
      }
    }
    ta::State canon_orig = s;
    codec.canonicalize(canon_orig.slots_mut());
    ta::State canon_perm = permuted;
    codec.canonicalize(canon_perm.slots_mut());
    ASSERT_EQ(canon_orig, canon_perm);
    // Idempotence: representatives are fixed points.
    ta::State again = canon_orig;
    codec.canonicalize(again.slots_mut());
    ASSERT_EQ(again, canon_orig);
  }
}

TEST(Reduction, VerdictsMatchFullSearchAcrossVariantsAndTimings) {
  // Every variant, every Table-1 timing class: the reduced search
  // (symmetry + POR) must reproduce the verdicts of the full search —
  // which themselves pin the paper's closed forms — while never
  // interning more states.
  const std::pair<int, int> points[] = {
      {1, 10}, {4, 10}, {5, 10}, {9, 10}, {10, 10}};
  const Flavor flavors[] = {Flavor::Binary,   Flavor::RevisedBinary,
                            Flavor::TwoPhase, Flavor::Static,
                            Flavor::Expanding, Flavor::Dynamic};
  for (const auto flavor : flavors) {
    for (const auto& [tmin, tmax] : points) {
      SCOPED_TRACE(testing::Message() << models::to_string(flavor)
                                      << " tmin=" << tmin);
      BuildOptions options;
      options.timing = {tmin, tmax};
      mc::SearchLimits full;
      full.threads = 1;
      const auto base = models::verify_requirements(flavor, options, full);
      const auto expected = proto::expected_verdicts(
          flavor, proto::Timing{tmin, tmax});
      EXPECT_EQ(base.r1, expected.r1);
      EXPECT_EQ(base.r2, expected.r2);
      EXPECT_EQ(base.r3, expected.r3);
      const auto reduced =
          models::verify_requirements(flavor, options, reduced_limits());
      EXPECT_EQ(reduced.r1, base.r1);
      EXPECT_EQ(reduced.r2, base.r2);
      EXPECT_EQ(reduced.r3, base.r3);
      EXPECT_LE(reduced.r1_stats.states, base.r1_stats.states);
      EXPECT_LE(reduced.r2_stats.states, base.r2_stats.states);
      EXPECT_LE(reduced.r3_stats.states, base.r3_stats.states);
    }
  }
}

TEST(Reduction, TwoParticipantQuotientShrinksAndParallelMatches) {
  // The multi-participant payoff: on the static 2-participant space the
  // quotient must be at least 2x smaller (orbit factor) — in practice
  // more, thanks to dead slots and committed-chain fusion — with
  // identical exhaustive verdicts, and the parallel reduced explorer
  // must agree with the sequential one state-for-state.
  BuildOptions options;
  options.timing = {4, 10};
  options.participants = 2;
  const auto model = HeartbeatModel::build(Flavor::Static, options);

  mc::Explorer explorer{model.net()};
  mc::SearchLimits full;
  full.threads = 1;
  const auto base = explorer.explore_all(full);
  const auto reduced = explorer.explore_all(reduced_limits());
  EXPECT_GE(base.states, reduced.states * 2);
  EXPECT_GT(reduced.fused, 0u);

  const auto parallel = explorer.explore_all(reduced_limits(8));
  EXPECT_EQ(parallel.states, reduced.states);
  EXPECT_EQ(parallel.depth, reduced.depth);
}

TEST(Reduction, CounterexampleTraceIsARealRun) {
  // Every counterexample is replayed forward through the unreduced
  // network, by both BFS loops, reduced or not: every step must be a
  // genuine transition between genuine states (no canonical
  // representatives leaking out) labelled with that transition's
  // action, ending in a state that satisfies the target predicate.
  BuildOptions options;
  options.timing = {10, 10};
  options.participants = 2;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  const auto& net = model.net();
  const auto pred = model.r2_violation_any();

  mc::Explorer explorer{model.net()};
  for (const bool reduced : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << (reduced ? "symmetry+por" : "unreduced")
                   << " threads=" << threads);
      mc::SearchLimits limits = reduced_limits(threads);
      if (!reduced) {
        limits.symmetry = ta::Symmetry::None;
        limits.por = false;
      }
      const auto result = explorer.reach(pred, limits);
      ASSERT_TRUE(result.found);
      ASSERT_FALSE(result.trace.empty());
      EXPECT_EQ(result.trace.front().state, net.initial_state());
      EXPECT_TRUE(result.trace.front().action.empty());
      for (std::size_t i = 1; i < result.trace.size(); ++i) {
        const auto& step = result.trace[i];
        bool connected = false;
        bool labelled = false;
        for (const auto& t : net.successors(result.trace[i - 1].state)) {
          if (t.target != step.state) continue;
          connected = true;
          labelled = labelled || net.label_of(t) == step.action;
        }
        EXPECT_TRUE(connected) << "trace step " << i << " is not a transition";
        EXPECT_TRUE(labelled) << "trace step " << i << " action \""
                              << step.action
                              << "\" labels no connecting transition";
      }
      EXPECT_TRUE(pred(ta::StateView{net, result.trace.back().state}));
    }
  }
}

TEST(Reduction, AmpleSetFusesCraftedCommittedInterleaving) {
  // Two independent automata stepping through committed locations via
  // invisible edges: the ample pass must collapse the commutative
  // interleaving (fewer interned states, fused transients observed)
  // without changing reachability of the joint goal.
  ta::Network net;
  const auto a = net.add_automaton("a");
  const auto b = net.add_automaton("b");
  const auto va = net.add_var("done_a", 0, 0, 1, a);
  const auto vb = net.add_var("done_b", 0, 0, 1, b);
  const int a0 = net.add_location(a, "A0");
  const int ac = net.add_location(a, "AC", ta::LocKind::Committed);
  const int a1 = net.add_location(a, "A1");
  const int b0 = net.add_location(b, "B0");
  const int bc = net.add_location(b, "BC", ta::LocKind::Committed);
  const int b1 = net.add_location(b, "B1");
  net.add_edge(a, ta::Edge{.src = a0, .dst = ac, .label = "a_go"});
  net.add_edge(a, ta::Edge{.src = ac,
                           .dst = a1,
                           .effect = [va](ta::StateMut& m) { m.set(va, 1); },
                           .label = "a_done",
                           .invisible = true});
  net.add_edge(b, ta::Edge{.src = b0, .dst = bc, .label = "b_go"});
  net.add_edge(b, ta::Edge{.src = bc,
                           .dst = b1,
                           .effect = [vb](ta::StateMut& m) { m.set(vb, 1); },
                           .label = "b_done",
                           .invisible = true});
  net.freeze();

  const mc::Pred goal = [va, vb](const ta::StateView& v) {
    return v.var(va) == 1 && v.var(vb) == 1;
  };
  mc::Explorer explorer{net};
  mc::SearchLimits full;
  full.threads = 1;
  mc::SearchLimits por;
  por.threads = 1;
  por.por = true;

  const auto base_all = explorer.explore_all(full);
  const auto por_all = explorer.explore_all(por);
  EXPECT_LT(por_all.states, base_all.states);
  EXPECT_GT(por_all.fused, 0u);

  const auto base_goal = explorer.reach(goal, full);
  const auto por_goal = explorer.reach(goal, por);
  ASSERT_TRUE(base_goal.found);
  ASSERT_TRUE(por_goal.found);
}

TEST(Reduction, NdfsQuotientAgreesWithFullSearch) {
  // The nested DFS runs on the orbit quotient when symmetry is on; the
  // cycle verdict must match the full product for a
  // permutation-invariant acceptance predicate.
  BuildOptions options;
  options.timing = {2, 4};
  options.participants = 2;
  const auto model = HeartbeatModel::build(Flavor::Static, options);
  const mc::Pred accepting = [](const ta::StateView&) { return true; };
  mc::SearchLimits full;
  full.threads = 1;
  const auto base = mc::find_accepting_cycle(model.net(), accepting, full);
  const auto reduced =
      mc::find_accepting_cycle(model.net(), accepting, reduced_limits());
  EXPECT_EQ(reduced.cycle_found, base.cycle_found);
}

TEST(ConcurrentReduction, FastAndSpillComponentHammerStaysExact) {
  // Collapse components now intern through an inline-u64 open-addressing
  // fast path when their packed key fits 64 bits, and spill to byte
  // keys otherwise. Build one component of each kind and race 8 threads
  // over the same state sample: identity and decode must stay exact.
  ta::Network net;
  const auto wide = net.add_automaton("wide");
  const auto fast = net.add_automaton("fast");
  net.add_location(wide, "W0");
  net.add_location(wide, "W1");
  net.add_location(fast, "F0");
  net.add_location(fast, "F1");
  std::vector<ta::VarId> wide_vars;
  for (int i = 0; i < 14; ++i) {
    wide_vars.push_back(
        net.add_var("w" + std::to_string(i), 0, 0, 31, wide));
  }
  std::vector<ta::VarId> fast_vars;
  for (int i = 0; i < 2; ++i) {
    fast_vars.push_back(
        net.add_var("f" + std::to_string(i), 0, 0, 255, fast));
  }
  net.add_var("shared", 0, 0, 9);
  net.add_clock("clk", 7);
  // Self-loop edges keep the network well-formed; the test only
  // exercises the stores.
  net.add_edge(wide, ta::Edge{.src = 0, .dst = 0, .label = "noop"});
  net.add_edge(fast, ta::Edge{.src = 0, .dst = 0, .label = "noop"});
  net.freeze();
  const auto& codec = net.codec();
  ASSERT_EQ(codec.component_count(), 2u);
  EXPECT_GT(codec.component(0).key_bits, 64u);   // 1 + 14*5 = 71 bits
  EXPECT_LE(codec.component(1).key_bits, 64u);   // 1 + 2*8 = 17 bits

  // Random (not necessarily reachable) in-range states; the stores only
  // depend on the declared layout.
  Rng rng{7};
  std::vector<ta::State> states;
  std::set<std::vector<ta::Slot>> unique;
  const std::size_t slot_count = net.slot_count();
  while (states.size() < 20000) {
    ta::State s(slot_count);
    auto slots = s.slots_mut();
    slots[0] = static_cast<ta::Slot>(rng.below(2));
    slots[1] = static_cast<ta::Slot>(rng.below(2));
    std::size_t slot = 2;
    for (std::size_t i = 0; i < 14; ++i) {
      slots[slot++] = static_cast<ta::Slot>(rng.below(32));
    }
    for (std::size_t i = 0; i < 2; ++i) {
      slots[slot++] = static_cast<ta::Slot>(rng.below(256));
    }
    slots[slot++] = static_cast<ta::Slot>(rng.below(10));
    slots[slot++] = static_cast<ta::Slot>(rng.below(8));
    if (unique.insert(std::vector<ta::Slot>(slots.begin(), slots.end()))
            .second) {
      states.push_back(std::move(s));
    }
  }

  // Sequential reference.
  mc::StateStore seq{codec, ta::Compression::Collapse};
  for (const auto& s : states) {
    const auto [index, inserted] = seq.intern(s);
    ASSERT_TRUE(inserted);
    ta::State back;
    seq.load(index, back);
    ASSERT_EQ(back, s);
  }
  ASSERT_EQ(seq.size(), states.size());

  // Concurrent storm: each worker inserts the whole sample in a
  // different order so fast-path probes collide across shards.
  mc::ConcurrentStateStore store{codec, ta::Compression::Collapse};
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      const std::size_t n = states.size();
      const std::size_t start = (static_cast<std::size_t>(w) * 977) % n;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (start + k * (w + 1)) % n;
        store.intern(states[i].slots());
      }
    });
  }
  for (auto& t : workers) t.join();
  ASSERT_EQ(store.size(), states.size());
  for (const auto& s : states) {
    const auto [index, inserted] = store.intern(s.slots());
    ASSERT_FALSE(inserted);
    ta::State back;
    store.load(index, back);
    ASSERT_EQ(back, s);
  }
}

}  // namespace
}  // namespace ahb
