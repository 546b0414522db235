// The past-time-LTL toolchain (src/rv/pltl + models/formula_check):
// parser round-trips and rejection, per-operator streaming semantics,
// a differential fuzz of the streaming evaluator against a naive
// full-history reference, shipped-formula/hand-monitor verdict
// equivalence on chaos runs and the conformance corpus, fingerprint
// invariance when formulas ride along with campaigns and missions, and
// the model backend's Table-1 verdicts via reachability and NDFS.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/mission.hpp"
#include "chaos/runner.hpp"
#include "hb/cluster.hpp"
#include "mc/ndfs.hpp"
#include "models/formula_check.hpp"
#include "models/heartbeat_model.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/pltl/eval.hpp"
#include "rv/pltl/formulas.hpp"
#include "rv/pltl/pltl.hpp"
#include "rv/sink_chain.hpp"
#include "rv/suspicion.hpp"

namespace ahb {
namespace {

namespace pltl = rv::pltl;
using hb::ProtocolEvent;
using PKind = ProtocolEvent::Kind;
using CKind = sim::ChannelEvent::Kind;

ProtocolEvent pev(PKind kind, int node, sim::Time at) {
  return ProtocolEvent{kind, at, node, 0, 0};
}

sim::ChannelEvent cev(CKind kind, sim::Time at) {
  sim::ChannelEvent event{};
  event.kind = kind;
  event.at = at;
  return event;
}

pltl::BindParams binary_params(int tmin = 4, int tmax = 10) {
  pltl::BindParams params;
  params.variant = proto::Variant::Binary;
  params.timing = proto::Timing{tmin, tmax};
  params.fixed_bounds = true;
  params.participants = 1;
  return params;
}

std::unique_ptr<pltl::FormulaMonitor> monitor_for(
    const std::string& text, const pltl::BindParams& params) {
  auto made = pltl::make_monitor({"test", text, 9}, params);
  EXPECT_TRUE(made.ok()) << made.error;
  return std::move(made.monitor);
}

// --- parser ---------------------------------------------------------------

TEST(PltlParser, ShippedFormulasRoundTrip) {
  ASSERT_FALSE(pltl::shipped_formulas().empty());
  for (const auto& shipped : pltl::shipped_formulas()) {
    SCOPED_TRACE(std::string{shipped.name});
    const auto parsed = pltl::parse(shipped.text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::string printed = pltl::print(*parsed.formula);
    const auto reparsed = pltl::parse(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << "\n" << reparsed.error;
    EXPECT_TRUE(pltl::equal(*parsed.formula, *reparsed.formula)) << printed;
  }
}

TEST(PltlParser, PrecedenceAndAliases) {
  // `within` is sugar for a bounded `once`.
  const auto within = pltl::parse("within[<= 3] beat");
  const auto once = pltl::parse("once[<= 3] beat");
  ASSERT_TRUE(within.ok() && once.ok());
  EXPECT_TRUE(pltl::equal(*within.formula, *once.formula));
  EXPECT_EQ(pltl::print(*within.formula), pltl::print(*once.formula));

  // Implication is right-associative, && binds tighter than ||, word
  // aliases parse like the symbols.
  const auto pairs = std::vector<std::pair<std::string, std::string>>{
      {"beat -> leave -> reply", "beat -> (leave -> reply)"},
      {"beat && leave || reply", "(beat && leave) || reply"},
      {"beat and leave or not reply", "(beat && leave) || (!reply)"},
      {"beat since leave && reply", "(beat since leave) && reply"},
  };
  for (const auto& [a, b] : pairs) {
    SCOPED_TRACE(a);
    const auto pa = pltl::parse(a);
    const auto pb = pltl::parse(b);
    ASSERT_TRUE(pa.ok() && pb.ok());
    EXPECT_TRUE(pltl::equal(*pa.formula, *pb.formula));
  }
}

TEST(PltlParser, MalformedInputsRejected) {
  const char* bad[] = {
      "",
      "beat &&",
      "(beat",
      "beat)",
      "once[<= ] beat",
      "once[>= 2] beat",      // once takes upper bounds only
      "holds[<= 3] coord_live",  // holds takes lower bounds only
      "within beat",          // within requires a bound
      "no_such_atom",
      "stopped",              // fluent requires an argument
      "coord_live(1)",        // and this one forbids it
      "forall tmin: beat",    // parameter names are not variables
      "forall p beat",        // missing colon
      "beat extra",           // trailing input
      "once[<= 99999999999999999999] beat",  // literal overflow
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    const auto parsed = pltl::parse(text);
    EXPECT_FALSE(parsed.ok());
    EXPECT_FALSE(parsed.error.empty());
    EXPECT_LE(parsed.error_at, std::string_view{text}.size());
  }
  // Channel atoms parse with an argument but are rejected at compile
  // time (the wire events carry no participant identity).
  const auto made = pltl::make_monitor({"bad", "sent(1)", 9}, binary_params());
  EXPECT_FALSE(made.ok());
  EXPECT_FALSE(made.error.empty());
}

// --- streaming evaluator: operator semantics ------------------------------

TEST(PltlEval, InitIsTrueOnlyAtTheInitialPosition) {
  const auto m = monitor_for("init", binary_params());
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());
  EXPECT_EQ(m->violations_total(), 1u);
}

TEST(PltlEval, PreviouslyLagsByOnePosition) {
  const auto m = monitor_for("previously beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());  // beat is *now*, not previously
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 3));
  EXPECT_FALSE(m->value());
}

TEST(PltlEval, BoundedOnceExpires) {
  const auto m = monitor_for("within[<= 4] beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());  // 6 - 2 <= 4
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 7));
  EXPECT_FALSE(m->value());  // 7 - 2 > 4
  EXPECT_GE(m->violations_total(), 1u);
}

TEST(PltlEval, UnboundedOnceLatches) {
  const auto m = monitor_for("once p_crash", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 5));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 100));
  EXPECT_TRUE(m->value());
}

TEST(PltlEval, HistoricallyFallsOnFirstFailure) {
  const auto m = monitor_for("historically !p_crash", binary_params());
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 2));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 3));
  EXPECT_FALSE(m->value());  // sticky
  EXPECT_EQ(m->violations_total(), 1u);  // edge-triggered: counted once
}

TEST(PltlEval, SinceHoldsUntilLhsBreaks) {
  // "no crash since a beat": true from a beat onward while !p_crash.
  const auto m = monitor_for("(!p_crash) since beat", binary_params());
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 1));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 2));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantCrashed, 1, 3));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 4));
  EXPECT_TRUE(m->value());  // fresh witness
}

TEST(PltlEval, BeforeExcludesTheCurrentPosition) {
  const auto m = monitor_for("before[<= 2] beat", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 5));
  EXPECT_FALSE(m->value());  // the witness must be strictly earlier
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 9));
  EXPECT_FALSE(m->value());
}

TEST(PltlEval, HoldsMeasuresTheCurrentTrueStretch) {
  // coord_stopped turns true at the inactivation and stays; the stretch
  // is anchored there.
  const auto m = monitor_for("holds[> 3] coord_stopped", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorInactivated, 0, 2));
  EXPECT_FALSE(m->value());  // stretch length 0
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 4));
  EXPECT_FALSE(m->value());  // 4 - 2 = 2
  m->on_protocol_event(pev(PKind::ParticipantLeft, 1, 6));
  EXPECT_TRUE(m->value());  // 6 - 2 = 4 > 3
}

TEST(PltlEval, FinishChecksTheHorizonWithoutCommitting) {
  const auto m = monitor_for("within[<= 4] beat", binary_params());
  m->on_protocol_event(pev(PKind::CoordinatorBeat, 0, 2));
  EXPECT_TRUE(m->value());
  EXPECT_EQ(m->violations_total(), 1u);  // initial fall at position 0
  m->finish(100);
  EXPECT_EQ(m->violations_total(), 2u);  // deadline long expired
}

TEST(PltlEval, QuantifierExpandsOverParticipants) {
  auto params = binary_params();
  params.variant = proto::Variant::Static;
  params.participants = 2;
  const auto m = monitor_for("forall p: once c_recv_beat(p)", params);
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 1, 1));
  EXPECT_FALSE(m->value());
  m->on_protocol_event(pev(PKind::CoordinatorReceivedBeat, 2, 2));
  EXPECT_TRUE(m->value());
}

// --- satellite: zero-event availability stays finite ----------------------

TEST(Availability, ZeroEventSummaryIsFinite) {
  rv::AvailabilityStats stats(2);
  stats.finish(0);
  const auto& summary = stats.summary();
  EXPECT_EQ(summary.up_fraction(), 1.0);
  EXPECT_EQ(summary.detection_mean(), 0.0);
  EXPECT_TRUE(std::isfinite(summary.up_fraction()));
  EXPECT_TRUE(std::isfinite(summary.detection_mean()));
}

// --- satellite: detaching a sink mid-run ----------------------------------

TEST(SinkChain, DetachMidRunThenDestroyIsSafe) {
  chaos::RunSpec spec;
  spec.variant = proto::Variant::Dynamic;
  spec.tmin = 4;
  spec.tmax = 10;
  spec.participants = 2;
  spec.horizon = 400;
  hb::Cluster cluster(chaos::cluster_config_for(spec));

  auto made = pltl::make_monitor({"r1", std::string{pltl::find_shipped("r1")->text}, 1},
                                 pltl::BindParams{spec.variant, spec.timing(),
                                                  true, spec.participants, 2});
  ASSERT_TRUE(made.ok()) << made.error;
  cluster.add_sink(made.monitor.get());
  cluster.start();
  cluster.run_until(100);
  EXPECT_GT(made.monitor->events_seen(), 0u);

  // Detach and destroy the monitor with the run still going: the chain
  // must not retain a dangling pointer (ASan-covered via the rv label).
  cluster.remove_sink(made.monitor.get());
  const auto seen = made.monitor->events_seen();
  made.monitor.reset();
  cluster.run_until(spec.horizon);
  EXPECT_GT(cluster.network_stats().delivered, 0u);
  (void)seen;
}

// --- satellite: S2 obligation is discharged on a graceful leave -----------

TEST(Suspicion, GracefulLeaveDischargesS2AndFormulaAgrees) {
  const auto params = binary_params();
  rv::SuspicionMonitor::Config config;
  config.variant = params.variant;
  config.timing = params.timing;
  config.participants = 1;
  const auto bounds =
      rv::MonitorBounds::defaults(params.timing, params.variant, true);

  const std::string s2_text{pltl::find_shipped("s2")->text};
  const std::vector<ProtocolEvent> graceful = {
      pev(PKind::CoordinatorReceivedBeat, 1, 10),
      pev(PKind::ParticipantLeft, 1, 20),
      pev(PKind::CoordinatorReceivedLeave, 1, 22),
  };
  const std::vector<ProtocolEvent> crashed = {
      pev(PKind::CoordinatorReceivedBeat, 1, 10),
      pev(PKind::ParticipantCrashed, 1, 20),
  };

  const auto s2_fired = [&](const std::vector<ProtocolEvent>& events,
                            bool use_formula) {
    if (use_formula) {
      auto made = pltl::make_monitor({"s2", s2_text, 4}, params);
      EXPECT_TRUE(made.ok()) << made.error;
      for (const auto& event : events) made.monitor->on_protocol_event(event);
      made.monitor->finish(400);
      return made.monitor->violations_total() > 0;
    }
    rv::SuspicionMonitor monitor{config, bounds};
    for (const auto& event : events) monitor.on_protocol_event(event);
    monitor.finish(400);
    return std::any_of(
        monitor.violations().begin(), monitor.violations().end(),
        [](const rv::Violation& v) {
          return v.detail.find("never reached suspicion threshold") !=
                 std::string::npos;
        });
  };

  // Negative control: the leave discharges the obligation on both paths.
  EXPECT_FALSE(s2_fired(graceful, /*use_formula=*/false));
  EXPECT_FALSE(s2_fired(graceful, /*use_formula=*/true));
  // Positive control: a crash with no further rounds fires on both.
  EXPECT_TRUE(s2_fired(crashed, /*use_formula=*/false));
  EXPECT_TRUE(s2_fired(crashed, /*use_formula=*/true));
}

// --- differential fuzz: streaming vs full-history reference ---------------

// The reference evaluates the *AST* (not the compiled form) over the
// full list of committed positions, with environment-based quantifier
// expansion and declarative (exists/forall) definitions of the past
// operators — an independent path from the compiler's postorder
// instructions and incremental per-operator state.
struct RefPos {
  sim::Time at = 0;
  bool init = false;
  bool has_pe = false;
  ProtocolEvent pe{};
  bool has_ce = false;
  sim::ChannelEvent ce{};
  pltl::FluentTracker fluents;
};

struct EventAtom {
  const char* name;
  bool protocol;
  int kind;
};

constexpr EventAtom kRefEventAtoms[] = {
    {"beat", true, static_cast<int>(PKind::CoordinatorBeat)},
    {"c_recv_beat", true, static_cast<int>(PKind::CoordinatorReceivedBeat)},
    {"c_recv_leave", true, static_cast<int>(PKind::CoordinatorReceivedLeave)},
    {"c_inactive", true, static_cast<int>(PKind::CoordinatorInactivated)},
    {"c_crash", true, static_cast<int>(PKind::CoordinatorCrashed)},
    {"p_recv_beat", true, static_cast<int>(PKind::ParticipantReceivedBeat)},
    {"reply", true, static_cast<int>(PKind::ParticipantReplied)},
    {"join_beat", true, static_cast<int>(PKind::ParticipantJoinBeat)},
    {"leave", true, static_cast<int>(PKind::ParticipantLeft)},
    {"p_inactive", true, static_cast<int>(PKind::ParticipantInactivated)},
    {"p_crash", true, static_cast<int>(PKind::ParticipantCrashed)},
    {"rejoin", true, static_cast<int>(PKind::ParticipantRejoined)},
    {"sent", false, static_cast<int>(CKind::Sent)},
    {"delivered", false, static_cast<int>(CKind::Delivered)},
    {"lost", false, static_cast<int>(CKind::Lost)},
    {"blocked", false, static_cast<int>(CKind::Blocked)},
    {"duplicated", false, static_cast<int>(CKind::Duplicated)},
    {"corrupted", false, static_cast<int>(CKind::Corrupted)},
    {"rejected", false, static_cast<int>(CKind::Rejected)},
};

using Env = std::map<std::string, int>;

sim::Time ref_bexpr(const pltl::BoundExpr& e, const pltl::BindParams& params) {
  switch (e.kind) {
    case pltl::BoundExpr::Kind::Num: return e.num;
    case pltl::BoundExpr::Kind::Param: return params.param(e.param);
    case pltl::BoundExpr::Kind::Add:
      return ref_bexpr(*e.lhs, params) + ref_bexpr(*e.rhs, params);
    case pltl::BoundExpr::Kind::Sub:
      return ref_bexpr(*e.lhs, params) - ref_bexpr(*e.rhs, params);
    case pltl::BoundExpr::Kind::Mul:
      return ref_bexpr(*e.lhs, params) * ref_bexpr(*e.rhs, params);
  }
  ADD_FAILURE() << "bad bound expr";
  return 0;
}

bool ref_cmp(sim::Time d, pltl::Cmp cmp, sim::Time k) {
  switch (cmp) {
    case pltl::Cmp::Le: return d <= k;
    case pltl::Cmp::Lt: return d < k;
    case pltl::Cmp::Gt: return d > k;
    case pltl::Cmp::Ge: return d >= k;
  }
  return false;
}

int ref_arg(const pltl::Node& n, const Env& env) {
  if (n.arg == pltl::Node::Arg::Num) return n.arg_num;
  if (n.arg == pltl::Node::Arg::Var) {
    const auto it = env.find(n.arg_var);
    EXPECT_NE(it, env.end()) << "unbound " << n.arg_var;
    return it == env.end() ? -1 : it->second;
  }
  return -1;
}

bool ref_eval(const pltl::Node& n, int i, const std::vector<RefPos>& pos,
              const pltl::BindParams& params, const Env& env) {
  using K = pltl::Node::Kind;
  const auto sub = [&](const pltl::Node& c, int j) {
    return ref_eval(c, j, pos, params, env);
  };
  switch (n.kind) {
    case K::True: return true;
    case K::False: return false;
    case K::Init: return pos[static_cast<std::size_t>(i)].init;
    case K::Event: {
      const RefPos& p = pos[static_cast<std::size_t>(i)];
      for (const auto& atom : kRefEventAtoms) {
        if (n.name != atom.name) continue;
        if (atom.protocol) {
          if (!p.has_pe || static_cast<int>(p.pe.kind) != atom.kind) {
            return false;
          }
          const int want = ref_arg(n, env);
          return want < 0 || p.pe.node == want;
        }
        return p.has_ce && static_cast<int>(p.ce.kind) == atom.kind;
      }
      ADD_FAILURE() << "unknown event atom " << n.name;
      return false;
    }
    case K::Fluent: {
      const auto& fl = pos[static_cast<std::size_t>(i)].fluents;
      if (n.name == "coord_live") return fl.coordinator_live();
      if (n.name == "coord_stopped") return !fl.coordinator_live();
      if (n.name == "all_stopped") return fl.all_stopped();
      if (n.name == "any_registered") return fl.any_registered();
      const int node = ref_arg(n, env);
      if (n.name == "stopped") return fl.stopped(node);
      if (n.name == "alive") return !fl.stopped(node);
      if (n.name == "member" || n.name == "registered") {
        return fl.member(node);
      }
      ADD_FAILURE() << "unknown fluent " << n.name;
      return false;
    }
    case K::Not: return !sub(*n.lhs, i);
    case K::And: return sub(*n.lhs, i) && sub(*n.rhs, i);
    case K::Or: return sub(*n.lhs, i) || sub(*n.rhs, i);
    case K::Implies: return !sub(*n.lhs, i) || sub(*n.rhs, i);
    case K::Iff: return sub(*n.lhs, i) == sub(*n.rhs, i);
    case K::Previously: return i > 0 && sub(*n.lhs, i - 1);
    case K::Historically:
      for (int j = 0; j <= i; ++j) {
        if (!sub(*n.lhs, j)) return false;
      }
      return true;
    case K::Since:
      // exists j <= i: rhs(j) and lhs holds on (j, i].
      for (int j = i; j >= 0; --j) {
        if (sub(*n.rhs, j)) return true;
        if (!sub(*n.lhs, j)) return false;
      }
      return false;
    case K::Once: {
      if (n.bound == nullptr) {
        for (int j = 0; j <= i; ++j) {
          if (sub(*n.lhs, j)) return true;
        }
        return false;
      }
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      if (sub(*n.lhs, i)) return true;
      const sim::Time now = pos[static_cast<std::size_t>(i)].at;
      for (int j = 0; j < i; ++j) {
        if (sub(*n.lhs, j) &&
            ref_cmp(now - pos[static_cast<std::size_t>(j)].at,
                    n.bound->cmp, k)) {
          return true;
        }
      }
      return false;
    }
    case K::Before: {
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      const sim::Time now = pos[static_cast<std::size_t>(i)].at;
      for (int j = 0; j < i; ++j) {
        if (sub(*n.lhs, j) &&
            ref_cmp(now - pos[static_cast<std::size_t>(j)].at,
                    n.bound->cmp, k)) {
          return true;
        }
      }
      return false;
    }
    case K::Holds: {
      if (!sub(*n.lhs, i)) return false;
      int anchor = i;
      while (anchor > 0 && sub(*n.lhs, anchor - 1)) --anchor;
      const sim::Time k = ref_bexpr(*n.bound->expr, params);
      return ref_cmp(pos[static_cast<std::size_t>(i)].at -
                         pos[static_cast<std::size_t>(anchor)].at,
                     n.bound->cmp, k);
    }
    case K::Forall:
    case K::Exists: {
      Env inner = env;
      for (int id = 1; id <= params.participants; ++id) {
        inner[n.name] = id;
        const bool v = ref_eval(*n.lhs, i, pos, params, inner);
        if (n.kind == K::Forall && !v) return false;
        if (n.kind == K::Exists && v) return true;
      }
      return n.kind == K::Forall;
    }
  }
  ADD_FAILURE() << "bad node kind";
  return false;
}

// Random formula source: emits text (exercising the parser on the way
// in) with every operator, literal and parameterised bounds, and
// quantified participant arguments.
struct FormulaGen {
  std::mt19937_64& rng;
  int participants;

  int pick(int n) { return static_cast<int>(rng() % static_cast<unsigned>(n)); }

  std::string bound_expr() {
    switch (pick(4)) {
      case 0: return std::to_string(pick(10));
      case 1: return "tmin";
      case 2: return "tmax";
      default: return "tmin + " + std::to_string(pick(4));
    }
  }

  std::string atom(const std::vector<std::string>& vars) {
    switch (pick(6)) {
      case 0: {  // protocol event, maybe with an argument
        const auto& a = kRefEventAtoms[pick(12)];
        std::string s = a.name;
        const int kind = pick(3);
        if (kind == 1) s += "(" + std::to_string(1 + pick(participants)) + ")";
        if (kind == 2 && !vars.empty()) {
          s += "(" + vars[static_cast<std::size_t>(pick(
                         static_cast<int>(vars.size())))] + ")";
        }
        return s;
      }
      case 1:  // channel event
        return kRefEventAtoms[12 + pick(7)].name;
      case 2: {  // no-arg fluent
        const char* f[] = {"coord_live", "coord_stopped", "all_stopped",
                           "any_registered"};
        return f[pick(4)];
      }
      case 3: {  // arg fluent
        const char* f[] = {"stopped", "alive", "member", "registered"};
        std::string s = f[pick(4)];
        if (!vars.empty() && pick(2) == 0) {
          s += "(" + vars[static_cast<std::size_t>(pick(
                         static_cast<int>(vars.size())))] + ")";
        } else {
          s += "(" + std::to_string(1 + pick(participants)) + ")";
        }
        return s;
      }
      case 4:
        return pick(2) == 0 ? "true" : "false";
      default:
        return "init";
    }
  }

  std::string gen(int depth, std::vector<std::string>& vars) {
    if (depth <= 0 || pick(4) == 0) return atom(vars);
    switch (pick(10)) {
      case 0: return "!(" + gen(depth - 1, vars) + ")";
      case 1: return "previously (" + gen(depth - 1, vars) + ")";
      case 2: return "historically (" + gen(depth - 1, vars) + ")";
      case 3: {
        const char* cmp = pick(2) == 0 ? "<=" : "<";
        const char* op = pick(2) == 0 ? "once" : "within";
        return std::string{op} + "[" + cmp + " " + bound_expr() + "] (" +
               gen(depth - 1, vars) + ")";
      }
      case 4:
        if (pick(2) == 0) return "once (" + gen(depth - 1, vars) + ")";
        return "before[<= " + bound_expr() + "] (" + gen(depth - 1, vars) +
               ")";
      case 5: {
        const char* cmp = pick(2) == 0 ? ">" : ">=";
        return std::string{"holds["} + cmp + " " + bound_expr() + "] (" +
               gen(depth - 1, vars) + ")";
      }
      case 6:
        return "(" + gen(depth - 1, vars) + ") since (" +
               gen(depth - 1, vars) + ")";
      case 7: {
        const char* op[] = {"&&", "||", "->", "<->"};
        return "(" + gen(depth - 1, vars) + ") " + op[pick(4)] + " (" +
               gen(depth - 1, vars) + ")";
      }
      default: {
        if (std::find(vars.begin(), vars.end(), "p") != vars.end() &&
            std::find(vars.begin(), vars.end(), "q") != vars.end()) {
          return atom(vars);
        }
        const std::string var =
            std::find(vars.begin(), vars.end(), "p") == vars.end() ? "p" : "q";
        vars.push_back(var);
        std::string body = gen(depth - 1, vars);
        vars.pop_back();
        return std::string{pick(2) == 0 ? "forall " : "exists "} + var +
               ": (" + body + ")";
      }
    }
  }
};

// One event of a random trace: a protocol event (70 %) or a channel
// event, at nondecreasing times from 0.
struct TraceEvent {
  bool channel = false;
  ProtocolEvent pe{};
  sim::ChannelEvent ce{};
  sim::Time at() const { return channel ? ce.at : pe.at; }
};

std::vector<TraceEvent> random_trace(std::mt19937_64& rng, int events) {
  std::vector<TraceEvent> trace;
  sim::Time now = 0;
  for (int e = 0; e < events; ++e) {
    now += static_cast<sim::Time>(rng() % 4);
    TraceEvent event;
    if (rng() % 10 < 7) {
      const auto kind = static_cast<PKind>(rng() % 12);
      const int node = static_cast<int>(rng() % 4);  // 0..participants
      event.pe = pev(kind, node, now);
    } else {
      event.channel = true;
      event.ce = cev(static_cast<CKind>(rng() % 7), now);
    }
    trace.push_back(event);
  }
  return trace;
}

// The reference run of one formula: its committed positions are the
// initial one plus the events its masks take. Before each of those
// events it also evaluates the phantom check position (same `at`, no
// atoms, pre-event fluents, not `init`), and at the end the phantom
// position of finish(horizon). The violation stream is the falls of
// the root value from true to false over that sequence of values.
struct RefRun {
  bool initial = true;          ///< root value at the initial position
  std::vector<bool> committed;  ///< root value at each taken event
  std::uint64_t violations_total = 0;
  std::vector<sim::Time> violation_at;
};

RefRun ref_run(const pltl::Node& formula, const std::vector<TraceEvent>& trace,
               std::uint32_t protocol_mask, std::uint32_t channel_mask,
               const pltl::BindParams& params, sim::Time horizon) {
  RefRun run;
  bool last = true;
  const auto observe = [&](bool value, sim::Time at) {
    if (last && !value) {
      ++run.violations_total;
      run.violation_at.push_back(at);
    }
    last = value;
  };
  // Fluents follow every protocol event, taken or not.
  pltl::FluentTracker fluents(params.variant, params.participants);
  std::vector<RefPos> pos(1);
  pos[0].init = true;
  pos[0].fluents = fluents;
  run.initial = ref_eval(formula, 0, pos, params, {});
  observe(run.initial, 0);
  const auto phantom = [&](sim::Time at) {
    RefPos p;
    p.at = at;
    p.fluents = fluents;
    pos.push_back(p);
    observe(ref_eval(formula, static_cast<int>(pos.size()) - 1, pos, params,
                     {}),
            at);
    pos.pop_back();
  };
  for (const TraceEvent& event : trace) {
    const bool taken =
        event.channel
            ? (rv::channel_bit(event.ce.kind) & channel_mask) != 0
            : (rv::protocol_bit(event.pe.kind) & protocol_mask) != 0;
    if (taken) phantom(event.at());
    if (!event.channel) fluents.apply(event.pe);
    if (!taken) continue;
    RefPos p;
    p.at = event.at();
    p.has_pe = !event.channel;
    p.pe = event.pe;
    p.has_ce = event.channel;
    p.ce = event.ce;
    p.fluents = fluents;
    pos.push_back(p);
    const bool value =
        ref_eval(formula, static_cast<int>(pos.size()) - 1, pos, params, {});
    run.committed.push_back(value);
    observe(value, event.at());
  }
  phantom(horizon);
  return run;
}

void expect_verdicts(const pltl::Evaluator& got, const RefRun& want) {
  EXPECT_EQ(got.violations_total(), want.violations_total);
  ASSERT_EQ(got.violations().size(), want.violation_at.size());
  for (std::size_t i = 0; i < want.violation_at.size(); ++i) {
    EXPECT_EQ(got.violations()[i].at, want.violation_at[i])
        << "violation " << i;
  }
}

pltl::BindParams fuzz_params() {
  pltl::BindParams params;
  params.variant = proto::Variant::Dynamic;
  params.timing = proto::Timing{4, 10};
  params.fixed_bounds = true;
  params.participants = 3;
  return params;
}

constexpr std::size_t kRecordAll = 1u << 10;

TEST(PltlFuzz, StreamingMatchesFullHistoryReference) {
  std::mt19937_64 rng{20260807};
  const pltl::BindParams params = fuzz_params();

  int formulas_checked = 0;
  int formulas_violated = 0;
  for (int iter = 0; iter < 400; ++iter) {
    FormulaGen gen{rng, params.participants};
    std::vector<std::string> vars;
    const std::string text = gen.gen(4, vars);
    SCOPED_TRACE("iter " + std::to_string(iter) + ": " + text);

    const auto parsed = pltl::parse(text);
    ASSERT_TRUE(parsed.ok()) << parsed.error;

    // Printer round-trip on every generated formula.
    const auto reparsed = pltl::parse(pltl::print(*parsed.formula));
    ASSERT_TRUE(reparsed.ok()) << pltl::print(*parsed.formula);
    ASSERT_TRUE(pltl::equal(*parsed.formula, *reparsed.formula));

    auto made = pltl::make_monitor({"fuzz", text, 9}, params);
    ASSERT_TRUE(made.ok()) << made.error;
    auto& monitor = *made.monitor;
    monitor.set_max_recorded(kRecordAll);
    EXPECT_EQ(monitor.value(), ref_run(*parsed.formula, {}, 0, 0, params, 0)
                                   .initial);

    // Called directly, the monitor evaluates every event it is handed,
    // so every event is a reference position.
    const std::vector<TraceEvent> trace = random_trace(rng, 40);
    const sim::Time horizon = trace.back().at() + 1 + rng() % 12;
    const RefRun want = ref_run(*parsed.formula, trace, ~0u, ~0u, params,
                                horizon);
    for (std::size_t e = 0; e < trace.size(); ++e) {
      if (trace[e].channel) {
        monitor.on_channel_event(trace[e].ce);
      } else {
        monitor.on_protocol_event(trace[e].pe);
      }
      ASSERT_EQ(monitor.value(), want.committed[e])
          << "position " << e + 1 << " at t=" << trace[e].at();
    }
    monitor.finish(horizon);
    expect_verdicts(monitor, want);
    ++formulas_checked;
    if (want.violations_total > 0) ++formulas_violated;
  }
  EXPECT_EQ(formulas_checked, 400);
  // Not vacuous: many formulas fall, some several times.
  EXPECT_GT(formulas_violated, 100);
}

// Counts what a chain delivers; subscribes to every kind, as the
// campaign's trace recorder and the availability stats do.
class AllEventsSink final : public rv::EventSink {
 public:
  std::uint32_t channel_interest() const override {
    return rv::kAllChannelEvents;
  }
  void on_protocol_event(const ProtocolEvent&) override { ++seen; }
  void on_channel_event(const sim::ChannelEvent&) override { ++seen; }
  std::size_t seen = 0;
};

TEST(PltlFuzz, ChainAndBankEvaluateEachFormulaAtItsInterestEvents) {
  std::mt19937_64 rng{20261018};
  const pltl::BindParams params = fuzz_params();
  constexpr int kPerBank = 4;

  int filtered = 0;
  int violated = 0;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<pltl::NodePtr> asts;
    std::vector<std::unique_ptr<pltl::FormulaMonitor>> monitors;
    pltl::FormulaBank bank(params);
    bank.set_max_recorded(kRecordAll);
    AllEventsSink chain_all, bank_all;
    rv::SinkChain chain, bank_chain;
    chain.add(&chain_all);
    bank_chain.add(&bank_all);
    std::string texts;
    for (int f = 0; f < kPerBank; ++f) {
      FormulaGen gen{rng, params.participants};
      std::vector<std::string> vars;
      const std::string text = gen.gen(4, vars);
      texts += "\n  " + text;
      auto parsed = pltl::parse(text);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      asts.push_back(std::move(parsed.formula));
      auto made = pltl::make_monitor({"fuzz", text, 9}, params);
      ASSERT_TRUE(made.ok()) << made.error;
      made.monitor->set_max_recorded(kRecordAll);
      chain.add(made.monitor.get());
      monitors.push_back(std::move(made.monitor));
      ASSERT_EQ(bank.add({"fuzz", text, 9}), "");
    }
    bank_chain.add(&bank);
    SCOPED_TRACE("iter " + std::to_string(iter) + ":" + texts);

    const std::vector<TraceEvent> trace = random_trace(rng, 40);
    const sim::Time horizon = trace.back().at() + 1 + rng() % 12;
    for (const TraceEvent& event : trace) {
      for (rv::SinkChain* target : {&chain, &bank_chain}) {
        if (event.channel) {
          target->emit(event.ce);
        } else {
          target->emit(event.pe);
        }
      }
    }
    chain.finish(horizon);
    bank_chain.finish(horizon);
    ASSERT_EQ(chain_all.seen, trace.size());
    ASSERT_EQ(bank_all.seen, trace.size());

    ASSERT_EQ(bank.formulas().size(), static_cast<std::size_t>(kPerBank));
    for (int f = 0; f < kPerBank; ++f) {
      SCOPED_TRACE("formula " + std::to_string(f));
      const auto& monitor = *monitors[static_cast<std::size_t>(f)];
      const RefRun want = ref_run(*asts[static_cast<std::size_t>(f)], trace,
                                  monitor.protocol_interest(),
                                  monitor.channel_interest(), params, horizon);
      expect_verdicts(monitor, want);
      expect_verdicts(bank.formulas()[static_cast<std::size_t>(f)], want);
      EXPECT_EQ(monitor.events_seen(), want.committed.size());
      EXPECT_EQ(bank.formulas()[static_cast<std::size_t>(f)].events_seen(),
                want.committed.size());
      if (want.committed.size() < trace.size()) ++filtered;
      if (want.violations_total > 0) ++violated;
    }
  }
  // Not vacuous: masks drop events for many formulas, and many fall.
  EXPECT_GT(filtered, 100);
  EXPECT_GT(violated, 100);
}

// --- the folded check passes of the shipped formulas ----------------------

TEST(PltlCompile, ShippedCheckPassesFoldToTheirHoldsChains) {
  auto params = binary_params();
  params.variant = proto::Variant::Static;
  params.participants = 2;
  const auto compiled = [&](const char* name) {
    const pltl::Node* ast = pltl::shipped_ast(pltl::find_shipped(name)->text);
    EXPECT_NE(ast, nullptr) << name;
    auto result = pltl::compile(*ast, params);
    EXPECT_TRUE(result.ok()) << result.error;
    return std::move(result.compiled);
  };
  const auto ops = [](const pltl::Compiled& c) {
    std::vector<pltl::Node::Kind> kinds;
    for (const auto i : c.check_program) kinds.push_back(c.instrs[i].op);
    return kinds;
  };
  using K = pltl::Node::Kind;

  // r2 holds at every phantom position: no inactivation is happening.
  const auto r2 = compiled("r2");
  EXPECT_TRUE(r2.check_program.empty());
  EXPECT_EQ(r2.check_seed.back(), 1);

  // r1 is all fluents under `holds`: nothing folds away.
  const auto r1 = compiled("r1");
  EXPECT_EQ(ops(r1), (std::vector<K>{K::Fluent, K::Fluent, K::And, K::Fluent,
                                     K::And, K::Holds, K::Not}));

  // r3: the same chain per participant, joined by one And.
  const auto r3 = compiled("r3");
  EXPECT_EQ(r3.check_program.size(), 11u);
  EXPECT_EQ(r3.instrs.size(), 11u);

  // s2: each participant's since-ladder is its outer `since` reading
  // its stored bit; 21 of 51 instructions remain.
  const auto s2 = compiled("s2");
  EXPECT_EQ(s2.instrs.size(), 51u);
  EXPECT_EQ(s2.check_program.size(), 21u);
  const std::vector<K> per_participant = {K::Fluent, K::Fluent, K::And,
                                          K::Fluent, K::And,    K::Since,
                                          K::Not,    K::And,    K::Holds,
                                          K::Not};
  std::vector<K> expected = per_participant;
  expected.insert(expected.end(), per_participant.begin(),
                  per_participant.end());
  expected.push_back(K::And);
  EXPECT_EQ(ops(s2), expected);
}

// --- shipped formulas vs hand-written monitors on chaos runs --------------

struct VerdictPair {
  bool r1 = false, r2 = false, r3 = false, s2 = false;
};

VerdictPair monitor_verdicts(const chaos::RunResult& run) {
  VerdictPair v;
  for (const auto& violation : run.violations) {
    if (violation.requirement == 1) v.r1 = true;
    if (violation.requirement == 2) v.r2 = true;
    if (violation.requirement == 3) v.r3 = true;
    if (violation.requirement == 4 &&
        violation.detail.find("never reached suspicion threshold") !=
            std::string::npos) {
      v.s2 = true;
    }
  }
  return v;
}

VerdictPair formula_verdicts(const chaos::RunResult& run) {
  VerdictPair v;
  for (const auto& violation : run.formula_violations) {
    if (violation.requirement == 1) v.r1 = true;
    if (violation.requirement == 2) v.r2 = true;
    if (violation.requirement == 3) v.r3 = true;
    if (violation.requirement == 4) v.s2 = true;
  }
  return v;
}

void expect_verdicts_match(const chaos::RunSpec& spec) {
  const auto formulas = pltl::shipped_monitor_specs();
  const chaos::RunResult run =
      chaos::run_chaos(spec, nullptr, false, false, &formulas);
  const VerdictPair mon = monitor_verdicts(run);
  const VerdictPair fml = formula_verdicts(run);
  EXPECT_EQ(mon.r1, fml.r1) << "R1 verdict diverged";
  EXPECT_EQ(mon.r2, fml.r2) << "R2 verdict diverged";
  EXPECT_EQ(mon.r3, fml.r3) << "R3 verdict diverged";
  EXPECT_EQ(mon.s2, fml.s2) << "S2 verdict diverged";
}

TEST(PltlEquivalence, ShippedFormulasMatchMonitorsOnSeededRuns) {
  constexpr proto::Variant kVariants[] = {
      proto::Variant::Binary,   proto::Variant::RevisedBinary,
      proto::Variant::TwoPhase, proto::Variant::Static,
      proto::Variant::Expanding, proto::Variant::Dynamic};
  for (const auto variant : kVariants) {
    for (const bool out_of_spec : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        chaos::RunSpec spec;
        spec.variant = variant;
        spec.tmin = 4;
        spec.tmax = 10;
        spec.participants = proto::variant_is_multi(variant) ? 3 : 1;
        spec.seed = seed;
        spec.horizon =
            chaos::campaign_horizon(spec.timing(), variant, spec.fixed_bounds);
        spec.schedule = chaos::generate_schedule(spec, out_of_spec);
        SCOPED_TRACE(std::string{to_string(variant)} +
                     (out_of_spec ? " oos" : " ok") + " seed " +
                     std::to_string(seed));
        expect_verdicts_match(spec);
      }
    }
  }
}

TEST(PltlEquivalence, ShippedFormulasMatchMonitorsOnTheCorpus) {
  namespace fs = std::filesystem;
  const fs::path root{AHB_CORPUS_DIR};
  ASSERT_TRUE(fs::exists(root));
  int artifacts = 0;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".jsonl") {
      continue;
    }
    SCOPED_TRACE(entry.path().filename().string());
    std::ifstream in{entry.path()};
    std::ostringstream slurped;
    slurped << in.rdbuf();
    const auto spec = chaos::parse_run(slurped.str());
    ASSERT_TRUE(spec.has_value());
    expect_verdicts_match(*spec);
    ++artifacts;
  }
  EXPECT_GT(artifacts, 0);
}

// --- campaigns and missions: formulas ride along without perturbing -------

TEST(PltlEquivalence, CampaignFingerprintInvariantUnderFormulas) {
  chaos::CampaignOptions options;
  options.runs_per_config = 2;
  options.shrink = false;
  const chaos::CampaignResult plain = chaos::run_campaign(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::CampaignResult with = chaos::run_campaign(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint);
  EXPECT_EQ(plain.runs, with.runs);
  EXPECT_EQ(plain.violating_runs, with.violating_runs);
  EXPECT_EQ(with.formula_violations, 0u)
      << "in-spec campaign tripped a shipped formula";
  EXPECT_EQ(with.formula_violating_runs, 0u);
}

TEST(PltlEquivalence, OutOfSpecCampaignTripsFormulasAlongsideMonitors) {
  chaos::CampaignOptions options;
  options.runs_per_config = 2;
  options.out_of_spec = true;
  options.shrink = false;
  const chaos::CampaignResult plain = chaos::run_campaign(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::CampaignResult with = chaos::run_campaign(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint);
  EXPECT_EQ(plain.violating_runs, with.violating_runs);
  EXPECT_GT(with.formula_violating_runs, 0u)
      << "out-of-spec faults never tripped a formula";
}

TEST(PltlEquivalence, TenMillionTickMissionCleanWithFormulasAttached) {
  chaos::MissionOptions options;
  options.spec.variant = proto::Variant::Dynamic;
  options.spec.tmin = 4;
  options.spec.tmax = 10;
  options.spec.participants = 3;
  options.spec.seed = 1;
  options.spec.horizon = 10'000'000;
  options.profile.cycles = 10;
  const chaos::MissionResult plain = chaos::run_mission(options);
  options.formulas = pltl::shipped_monitor_specs();
  const chaos::MissionResult with = chaos::run_mission(options);
  EXPECT_EQ(plain.fingerprint, with.fingerprint)
      << "attaching formulas perturbed the mission";
  EXPECT_EQ(with.violations_total, 0u);
  EXPECT_EQ(with.formula_violations_total, 0u)
      << (with.formula_violations.empty()
              ? std::string{}
              : with.formula_violations.front().detail);
}

// --- model backend: the same formula text, checked exhaustively -----------

TEST(PltlModel, R1WatchdogFormulaReproducesTable1Verdicts) {
  const auto shipped = pltl::find_shipped("r1_watchdog");
  ASSERT_NE(shipped, nullptr);
  struct Point {
    int tmin, tmax;
    bool fixed;
  };
  for (const Point point : {Point{2, 10, false}, Point{6, 10, false},
                            Point{2, 10, true}}) {
    SCOPED_TRACE("tmin=" + std::to_string(point.tmin) +
                 " tmax=" + std::to_string(point.tmax) +
                 (point.fixed ? " fixed" : ""));
    models::BuildOptions options;
    options.timing = {point.tmin, point.tmax};
    options.fixed = point.fixed;
    const bool expect_r1 =
        point.fixed
            ? proto::expected_verdicts_fixed(proto::Variant::Binary,
                                             options.timing.to_proto())
                  .r1
            : proto::expected_verdicts(proto::Variant::Binary,
                                       options.timing.to_proto())
                  .r1;

    auto formula_model = models::build_formula_model(
        models::Flavor::Binary, options, shipped->text);
    ASSERT_TRUE(formula_model.ok()) << formula_model.error;

    // Way 1 of the exhaustive pair: reachability of a violating state.
    mc::Explorer explorer(formula_model.model->net());
    const auto reach = explorer.reach(formula_model.violation);
    ASSERT_TRUE(reach.found || reach.complete);
    EXPECT_EQ(reach.found, !expect_r1);

    // Way 2: NDFS accepting cycle through the latched violation.
    const auto cycle = mc::find_accepting_cycle(formula_model.model->net(),
                                                formula_model.accepting);
    ASSERT_TRUE(cycle.cycle_found || cycle.complete);
    EXPECT_EQ(cycle.cycle_found, !expect_r1);

    // Cross-check against the hand-built watchdog verdict.
    options.r1_monitor = true;
    const auto verdicts =
        models::verify_requirements(models::Flavor::Binary, options);
    EXPECT_EQ(verdicts.r1, expect_r1);
  }
}

TEST(PltlModel, MultiFlavorWatchdogVerdict) {
  const auto shipped = pltl::find_shipped("r1_watchdog");
  ASSERT_NE(shipped, nullptr);
  models::BuildOptions options;
  options.timing = {2, 4};
  options.participants = 2;
  const bool expect_r1 =
      proto::expected_verdicts(proto::Variant::Static,
                               options.timing.to_proto())
          .r1;
  auto formula_model = models::build_formula_model(models::Flavor::Static,
                                                   options, shipped->text);
  ASSERT_TRUE(formula_model.ok()) << formula_model.error;
  mc::Explorer explorer(formula_model.model->net());
  const auto reach = explorer.reach(formula_model.violation);
  ASSERT_TRUE(reach.found || reach.complete);
  EXPECT_EQ(reach.found, !expect_r1);
}

TEST(PltlModel, UnsupportedFragmentIsRejectedWithDiagnostics) {
  models::BuildOptions options;
  options.timing = {4, 10};
  const char* unsupported[] = {
      "historically beat",        // unbounded-history operator
      "once c_recv_beat",         // unbounded once
      "c_recv_beat",              // bare event atom at the root
      "alive(1)",                 // participant fluent
      "within[<= 4] coord_live",  // once over a state predicate
      "within[<= 4] (c_recv_beat && init)",  // conjunction of atoms
      "not a formula ((",         // parse error surfaces too
  };
  for (const char* text : unsupported) {
    SCOPED_TRACE(text);
    const auto result =
        models::build_formula_model(models::Flavor::Binary, options, text);
    EXPECT_FALSE(result.ok());
    EXPECT_FALSE(result.error.empty());
  }
  // And the supported fragment builds even when stated with quantifiers
  // (the compiler expands them before the lowering sees the formula).
  options.participants = 2;
  const auto quantified = models::build_formula_model(
      models::Flavor::Static, options,
      "forall p: coord_live -> within[<= r1_bound] (c_recv_beat(p) || init)");
  EXPECT_TRUE(quantified.ok()) << quantified.error;
}

}  // namespace
}  // namespace ahb
