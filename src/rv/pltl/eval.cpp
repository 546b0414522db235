#include "rv/pltl/eval.hpp"

#include <utility>

#include "rv/pltl/formulas.hpp"
#include "util/contracts.hpp"

namespace ahb::rv::pltl {
namespace {

using hb::kNever;
using PKind = hb::ProtocolEvent::Kind;
using CKind = sim::ChannelEvent::Kind;

constexpr std::size_t kMaxInstrs = 1u << 20;

struct EventAtom {
  std::string_view name;
  bool protocol;
  int kind;  ///< PKind / CKind enumerator value
};

constexpr EventAtom kEventAtoms[] = {
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

const EventAtom* find_event_atom(std::string_view name) {
  for (const auto& atom : kEventAtoms) {
    if (atom.name == name) return &atom;
  }
  return nullptr;
}

/// The protocol events that change any fluent: a formula with fluent
/// atoms must see these regardless of its event atoms, or its derived
/// state would silently diverge from the monitors'.
constexpr std::uint32_t fluent_driver_mask() {
  return protocol_bit(PKind::CoordinatorReceivedBeat) |
         protocol_bit(PKind::CoordinatorReceivedLeave) |
         protocol_bit(PKind::CoordinatorInactivated) |
         protocol_bit(PKind::CoordinatorCrashed) |
         protocol_bit(PKind::ParticipantInactivated) |
         protocol_bit(PKind::ParticipantCrashed) |
         protocol_bit(PKind::ParticipantLeft) |
         protocol_bit(PKind::ParticipantRejoined);
}

// ---------------------------------------------------------------------------
// Quantifier expansion: forall/exists become And/Or folds over the
// participant ids 1..n, substituting the bound variable into atom
// arguments. Inner bindings shadow outer ones.

NodePtr substitute(const Node& node, const std::string& var, std::int64_t id) {
  if ((node.kind == Node::Kind::Forall || node.kind == Node::Kind::Exists) &&
      node.name == var) {
    return clone(node);  // shadowed: leave the inner binder untouched
  }
  NodePtr out = std::make_unique<Node>();
  out->kind = node.kind;
  out->name = node.name;
  out->arg = node.arg;
  out->arg_var = node.arg_var;
  out->arg_num = node.arg_num;
  if (node.arg == Node::Arg::Var && node.arg_var == var) {
    out->arg = Node::Arg::Num;
    out->arg_var.clear();
    out->arg_num = id;
  }
  if (node.bound) {
    auto copy = clone(node);  // reuse clone for the bound subtree
    out->bound = std::move(copy->bound);
  }
  if (node.lhs) out->lhs = substitute(*node.lhs, var, id);
  if (node.rhs) out->rhs = substitute(*node.rhs, var, id);
  return out;
}

// ---------------------------------------------------------------------------
// Bound resolution.

bool eval_bexpr(const BoundExpr& expr, const BindParams& params, Time* out,
                std::string* error) {
  switch (expr.kind) {
    case BoundExpr::Kind::Num:
      *out = expr.num;
      return true;
    case BoundExpr::Kind::Param:
      if (!is_bound_param(expr.param)) {
        *error = "unknown bound parameter '" + expr.param + "'";
        return false;
      }
      *out = params.param(expr.param);
      return true;
    default: {
      Time lhs = 0;
      Time rhs = 0;
      if (!eval_bexpr(*expr.lhs, params, &lhs, error) ||
          !eval_bexpr(*expr.rhs, params, &rhs, error)) {
        return false;
      }
      switch (expr.kind) {
        case BoundExpr::Kind::Add: *out = lhs + rhs; break;
        case BoundExpr::Kind::Sub: *out = lhs - rhs; break;
        default: *out = lhs * rhs; break;
      }
      if (*out > (Time{1} << 60) || *out < -(Time{1} << 60)) {
        *error = "bound expression overflows";
        return false;
      }
      return true;
    }
  }
}

// ---------------------------------------------------------------------------
// Flattening.

struct Flattener {
  const BindParams& params;
  Compiled out;
  std::string error;

  bool fail(std::string message) {
    if (error.empty()) error = std::move(message);
    return false;
  }

  /// Appends the instruction(s) for `node` and stores the index of its
  /// value in *idx.
  bool flatten(const Node& node, int* idx) {
    if (out.instrs.size() >= kMaxInstrs) {
      return fail("formula too large after quantifier expansion");
    }
    Instr instr;
    instr.op = node.kind;
    switch (node.kind) {
      case Node::Kind::True:
      case Node::Kind::False:
      case Node::Kind::Init:
        break;
      case Node::Kind::Event: {
        const EventAtom* atom = find_event_atom(node.name);
        if (atom == nullptr) return fail("unknown event '" + node.name + "'");
        if (atom->protocol) {
          instr.protocol_bits = 1u << atom->kind;
        } else {
          instr.channel_bits = 1u << atom->kind;
          if (node.arg != Node::Arg::None) {
            return fail("channel atom '" + node.name +
                        "' does not take an argument");
          }
        }
        if (node.arg == Node::Arg::Var) {
          return fail("unbound variable '" + node.arg_var + "' in '" +
                      node.name + "'");
        }
        if (node.arg == Node::Arg::Num) {
          if (node.arg_num < 0 || node.arg_num > params.participants) {
            return fail("participant id out of range in '" + node.name + "'");
          }
          instr.node = static_cast<int>(node.arg_num);
        }
        out.protocol_mask |= instr.protocol_bits;
        out.channel_mask |= instr.channel_bits;
        break;
      }
      case Node::Kind::Fluent: {
        if (node.arg == Node::Arg::Var) {
          return fail("unbound variable '" + node.arg_var + "' in '" +
                      node.name + "'");
        }
        if (node.name == "coord_live") {
          instr.fluent = Fluent::CoordLive;
        } else if (node.name == "coord_stopped") {
          instr.fluent = Fluent::CoordStopped;
        } else if (node.name == "stopped") {
          instr.fluent = Fluent::Stopped;
        } else if (node.name == "alive") {
          instr.fluent = Fluent::Alive;
        } else if (node.name == "member" || node.name == "registered") {
          instr.fluent = Fluent::Member;
        } else if (node.name == "all_stopped") {
          instr.fluent = Fluent::AllStopped;
        } else if (node.name == "any_registered") {
          instr.fluent = Fluent::AnyRegistered;
        } else {
          return fail("unknown fluent '" + node.name + "'");
        }
        if (node.arg == Node::Arg::Num) {
          if (node.arg_num < 1 || node.arg_num > params.participants) {
            return fail("participant id out of range in '" + node.name + "'");
          }
          instr.node = static_cast<int>(node.arg_num);
        }
        out.uses_fluents = true;
        break;
      }
      case Node::Kind::Not:
      case Node::Kind::Previously:
      case Node::Kind::Historically:
        if (!flatten(*node.lhs, &instr.a)) return false;
        break;
      case Node::Kind::Once:
      case Node::Kind::Before:
      case Node::Kind::Holds: {
        if (!flatten(*node.lhs, &instr.a)) return false;
        if (node.bound) {
          instr.cmp = node.bound->cmp;
          if (!eval_bexpr(*node.bound->expr, params, &instr.bound, &error)) {
            return false;
          }
          if (instr.bound < 0) return fail("bound resolves negative");
        } else {
          AHB_ASSERT(node.kind == Node::Kind::Once);
          instr.bound = kNever;  // unbounded `once`
        }
        break;
      }
      case Node::Kind::And:
      case Node::Kind::Or:
      case Node::Kind::Implies:
      case Node::Kind::Iff:
      case Node::Kind::Since:
        if (!flatten(*node.lhs, &instr.a)) return false;
        if (!flatten(*node.rhs, &instr.b)) return false;
        break;
      case Node::Kind::Forall:
      case Node::Kind::Exists: {
        // Expand here, one substituted copy per participant id.
        const bool conj = node.kind == Node::Kind::Forall;
        int acc = -1;
        for (int id = 1; id <= params.participants; ++id) {
          NodePtr body = substitute(*node.lhs, node.name, id);
          int b = -1;
          if (!flatten(*body, &b)) return false;
          if (acc < 0) {
            acc = b;
          } else {
            Instr join;
            join.op = conj ? Node::Kind::And : Node::Kind::Or;
            join.a = acc;
            join.b = b;
            out.instrs.push_back(join);
            acc = static_cast<int>(out.instrs.size()) - 1;
          }
        }
        if (acc < 0) {
          // No participants: forall is vacuously true, exists false.
          Instr empty;
          empty.op = conj ? Node::Kind::True : Node::Kind::False;
          out.instrs.push_back(empty);
          acc = static_cast<int>(out.instrs.size()) - 1;
        }
        *idx = acc;
        return true;
      }
    }
    out.instrs.push_back(std::move(instr));
    *idx = static_cast<int>(out.instrs.size()) - 1;
    return true;
  }
};

// ---------------------------------------------------------------------------
// Check-pass folding. In a check pass every event atom and `init` is
// false, `previously` and `before` read only their stored state, and
// nothing is committed; so each instruction's check-pass value is a
// constant or depends on fluents and stored state, and only the latter
// have to run.

void fold_check_pass(Compiled& compiled) {
  constexpr std::uint8_t F = 0, T = 1, D = 2;  // false, true, dynamic
  const std::vector<Instr>& instrs = compiled.instrs;
  const std::size_t n = instrs.size();
  std::vector<std::uint8_t> v(n, D);
  for (std::size_t i = 0; i < n; ++i) {
    const Instr& ins = instrs[i];
    const std::uint8_t a = ins.a >= 0 ? v[static_cast<std::size_t>(ins.a)] : D;
    const std::uint8_t b = ins.b >= 0 ? v[static_cast<std::size_t>(ins.b)] : D;
    switch (ins.op) {
      case Node::Kind::True: v[i] = T; break;
      case Node::Kind::False:
      case Node::Kind::Init:
      case Node::Kind::Event: v[i] = F; break;
      case Node::Kind::Not: v[i] = a == D ? D : (a == T ? F : T); break;
      case Node::Kind::And:
        v[i] = (a == F || b == F) ? F : (a == T && b == T) ? T : D;
        break;
      case Node::Kind::Or:
        v[i] = (a == T || b == T) ? T : (a == F && b == F) ? F : D;
        break;
      case Node::Kind::Implies:
        v[i] = (a == F || b == T) ? T : (a == T && b == F) ? F : D;
        break;
      case Node::Kind::Iff:
        v[i] = (a == D || b == D) ? D : (a == b ? T : F);
        break;
      case Node::Kind::Since:
        v[i] = b == T ? T : (b == F && a == F) ? F : D;
        break;
      case Node::Kind::Historically:
      case Node::Kind::Holds: v[i] = a == F ? F : D; break;
      case Node::Kind::Once: v[i] = a == T ? T : D; break;
      default: break;  // Fluent, Previously, Before: dynamic
    }
  }
  // Keep the dynamic instructions the root reaches through the operands
  // a check pass reads.
  std::vector<std::uint8_t> live(n, 0);
  live[n - 1] = v[n - 1] == D;
  for (std::size_t i = n; i-- > 0;) {
    const Instr& ins = instrs[i];
    if (!live[i] || ins.op == Node::Kind::Previously ||
        ins.op == Node::Kind::Before) {
      continue;
    }
    for (const int operand : {ins.a, ins.b}) {
      if (operand >= 0 && v[static_cast<std::size_t>(operand)] == D) {
        live[static_cast<std::size_t>(operand)] = 1;
      }
    }
  }
  compiled.check_seed.assign(n, 0);
  compiled.check_program.clear();
  for (std::size_t i = 0; i < n; ++i) {
    compiled.check_seed[i] = v[i] == T;
    if (live[i]) compiled.check_program.push_back(static_cast<std::uint32_t>(i));
  }
}

bool time_cmp(Time lhs, Cmp cmp, Time rhs) {
  switch (cmp) {
    case Cmp::Le: return lhs <= rhs;
    case Cmp::Lt: return lhs < rhs;
    case Cmp::Gt: return lhs > rhs;
    case Cmp::Ge: return lhs >= rhs;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// BindParams.

Time BindParams::param(std::string_view name) const {
  if (name == "tmin") return timing.tmin;
  if (name == "tmax") return timing.tmax;
  if (name == "r1_slack") return proto::r1_detection_slack(timing, variant);
  if (name == "r2_window") {
    return proto::r2_explanation_window(timing, variant, fixed_bounds);
  }
  if (name == "r3_slack") {
    return proto::r3_detection_slack(timing, variant, fixed_bounds);
  }
  if (name == "r1_bound") return proto::r1_bound(timing, fixed_bounds);
  if (name == "suspicion_min_round") return timing.tmin;
  if (name == "suspicion_slack") {
    return proto::suspicion_detection_bound(timing, suspect_after_misses);
  }
  AHB_UNREACHABLE("unknown bound parameter");
}

// ---------------------------------------------------------------------------
// FluentTracker.

FluentTracker::FluentTracker(proto::Variant variant, int participants)
    : participants_(participants) {
  AHB_EXPECTS(participants >= 0);
  const auto slots = static_cast<std::size_t>(participants) + 1;
  stopped_.assign(slots, 0);
  const bool joins = proto::variant_joins(variant);
  member_.assign(slots, joins ? 0 : 1);
  member_[0] = 0;
  live_count_ = participants;
  member_count_ = joins ? 0 : participants;
}

bool FluentTracker::stopped(int node) const {
  AHB_EXPECTS(node >= 1 && node <= participants_);
  return stopped_[static_cast<std::size_t>(node)] != 0;
}

bool FluentTracker::member(int node) const {
  AHB_EXPECTS(node >= 1 && node <= participants_);
  return member_[static_cast<std::size_t>(node)] != 0;
}

void FluentTracker::apply(const hb::ProtocolEvent& event) {
  const int node = event.node;
  const bool known = node >= 1 && node <= participants_;
  const auto idx = static_cast<std::size_t>(node);
  switch (event.kind) {
    case PKind::CoordinatorReceivedBeat:
      if (known && !member_[idx]) {
        member_[idx] = 1;
        ++member_count_;
      }
      break;
    case PKind::CoordinatorReceivedLeave:
      if (known && member_[idx]) {
        member_[idx] = 0;
        --member_count_;
      }
      break;
    case PKind::CoordinatorInactivated:
    case PKind::CoordinatorCrashed:
      coordinator_live_ = false;
      break;
    case PKind::ParticipantInactivated:
    case PKind::ParticipantCrashed:
    case PKind::ParticipantLeft:
      if (known && !stopped_[idx]) {
        stopped_[idx] = 1;
        --live_count_;
      }
      break;
    case PKind::ParticipantRejoined:
      if (known && stopped_[idx]) {
        stopped_[idx] = 0;
        ++live_count_;
      }
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// compile.

CompileResult compile(const Node& formula, const BindParams& params) {
  CompileResult result;
  if (params.participants < 0) {
    result.error = "participants must be non-negative";
    return result;
  }
  Flattener flattener{params, Compiled{}, {}};
  flattener.out.participants = params.participants;
  int root = -1;
  if (!flattener.flatten(formula, &root)) {
    result.error =
        flattener.error.empty() ? "compile error" : flattener.error;
    return result;
  }
  AHB_ASSERT(root == static_cast<int>(flattener.out.instrs.size()) - 1);
  if (flattener.out.uses_fluents) {
    flattener.out.protocol_mask |= fluent_driver_mask();
  }
  fold_check_pass(flattener.out);
  result.compiled = std::move(flattener.out);
  return result;
}

// ---------------------------------------------------------------------------
// Evaluator.

Evaluator::Evaluator(Compiled compiled, std::string name, int requirement,
                     const FluentTracker& fluents)
    : instrs_(std::move(compiled.instrs)),
      check_vals_(std::move(compiled.check_seed)),
      check_program_(std::move(compiled.check_program)),
      protocol_mask_(compiled.protocol_mask),
      channel_mask_(compiled.channel_mask),
      name_(std::move(name)),
      requirement_(requirement) {
  AHB_EXPECTS(!instrs_.empty());
  AHB_EXPECTS(check_vals_.size() == instrs_.size());
  state_.resize(instrs_.size());
  for (std::size_t i = 0; i < instrs_.size(); ++i) {
    state_[i].t = kNever;
    state_[i].b = instrs_[i].op == Node::Kind::Historically ? 1 : 0;
  }
  committed_.assign(instrs_.size(), 0);
  Event initial;
  initial.init = true;
  step(0, fluents, initial);
}

// Inlined into both pass loops: an out-of-line call per instruction
// costs more than most instructions do.
template <bool kCommit>
[[gnu::always_inline]] inline std::uint8_t Evaluator::eval(
    const Instr& ins, State& st, const std::uint8_t* vals, Time now,
    const FluentTracker& fluents, const Event& event) {
  switch (ins.op) {
    case Node::Kind::True: return 1;
    case Node::Kind::False: return 0;
    case Node::Kind::Init: return event.init;
    case Node::Kind::Event:
      return ((event.protocol_bit & ins.protocol_bits) != 0 &&
              (ins.node < 0 || event.node == ins.node)) ||
             (event.channel_bit & ins.channel_bits) != 0;
    case Node::Kind::Fluent:
      switch (ins.fluent) {
        case Fluent::CoordLive: return fluents.coordinator_live();
        case Fluent::CoordStopped: return !fluents.coordinator_live();
        case Fluent::Stopped: return fluents.stopped(ins.node);
        case Fluent::Alive: return !fluents.stopped(ins.node);
        case Fluent::Member: return fluents.member(ins.node);
        case Fluent::AllStopped: return fluents.all_stopped();
        case Fluent::AnyRegistered: return fluents.any_registered();
      }
      return 0;
    case Node::Kind::Not: return !vals[ins.a];
    case Node::Kind::And: return vals[ins.a] && vals[ins.b];
    case Node::Kind::Or: return vals[ins.a] || vals[ins.b];
    case Node::Kind::Implies: return !vals[ins.a] || vals[ins.b];
    case Node::Kind::Iff: return vals[ins.a] == vals[ins.b];
    case Node::Kind::Previously: {
      const std::uint8_t v = st.b;
      if (kCommit) st.b = vals[ins.a];
      return v;
    }
    case Node::Kind::Historically: {
      const std::uint8_t v = st.b && vals[ins.a];
      if (kCommit) st.b = v;
      return v;
    }
    case Node::Kind::Since: {
      const std::uint8_t v = vals[ins.b] || (vals[ins.a] && st.b);
      if (kCommit) st.b = v;
      return v;
    }
    case Node::Kind::Once:
      if (ins.bound == kNever) {
        const std::uint8_t v = vals[ins.a] || st.b;
        if (kCommit) st.b = v;
        return v;
      } else {
        const std::uint8_t v =
            vals[ins.a] ||
            (st.t != kNever && time_cmp(now - st.t, ins.cmp, ins.bound));
        if (kCommit && vals[ins.a]) st.t = now;
        return v;
      }
    case Node::Kind::Before: {
      // Position-strict: the witness is at an earlier position (its
      // timestamp may equal `now`).
      const std::uint8_t v =
          st.t != kNever && time_cmp(now - st.t, ins.cmp, ins.bound);
      if (kCommit && vals[ins.a]) st.t = now;
      return v;
    }
    case Node::Kind::Holds: {
      // Anchored continuous truth: the anchor is the committed start
      // of the current true stretch of the operand.
      const Time anchor = st.t != kNever ? st.t : now;
      const std::uint8_t v =
          vals[ins.a] && time_cmp(now - anchor, ins.cmp, ins.bound);
      if (kCommit) st.t = vals[ins.a] ? anchor : kNever;
      return v;
    }
    case Node::Kind::Forall:
    case Node::Kind::Exists:
      break;
  }
  AHB_UNREACHABLE("quantifiers are expanded at compile time");
}

void Evaluator::check(Time now, const FluentTracker& fluents) {
  // The instant `now` has been reached but the event has not happened
  // yet: deadlines that expired strictly before it are caught with
  // pre-event state.
  // Locals, not members: the uint8_t stores may alias anything.
  const Instr* instrs = instrs_.data();
  State* state = state_.data();
  std::uint8_t* vals = check_vals_.data();
  for (const std::uint32_t i : check_program_) {
    vals[i] = eval<false>(instrs[i], state[i], vals, now, fluents, Event{});
  }
  observe(now, vals[instrs_.size() - 1] != 0);
}

void Evaluator::step(Time now, const FluentTracker& fluents,
                     const Event& event) {
  const Instr* instrs = instrs_.data();
  State* state = state_.data();
  std::uint8_t* vals = committed_.data();
  const std::size_t n = instrs_.size();
  for (std::size_t i = 0; i < n; ++i) {
    vals[i] = eval<true>(instrs[i], state[i], vals, now, fluents, event);
  }
  observe(now, vals[n - 1] != 0);
}

void Evaluator::observe(Time now, bool root_value) {
  if (last_value_ && !root_value) {
    ++violations_total_;
    if (violations_.size() < max_recorded_) {
      violations_.push_back(Violation{requirement_, 0, now, now,
                                      "formula '" + name_ + "' violated"});
    }
  }
  last_value_ = root_value;
}

// ---------------------------------------------------------------------------
// FormulaMonitor.

FormulaMonitor::FormulaMonitor(Compiled compiled, const BindParams& params,
                               std::string name, int requirement)
    : Evaluator(std::move(compiled), std::move(name), requirement,
                FluentTracker(params.variant, params.participants)),
      tracker_(params.variant, params.participants) {}

void FormulaMonitor::on_protocol_event(const hb::ProtocolEvent& event) {
  ++events_seen_;
  check(event.at, tracker_);
  tracker_.apply(event);
  step(event.at, tracker_, Event{protocol_bit(event.kind), 0, event.node});
}

void FormulaMonitor::on_channel_event(const sim::ChannelEvent& event) {
  ++events_seen_;
  check(event.at, tracker_);
  step(event.at, tracker_, Event{0, channel_bit(event.kind)});
}

void FormulaMonitor::finish(Time horizon) { check(horizon, tracker_); }

// ---------------------------------------------------------------------------
// FormulaBank.

FormulaBank::FormulaBank(const BindParams& params)
    : params_(params), tracker_(params.variant, params.participants) {}

std::string FormulaBank::add(const FormulaSpec& spec) {
  AHB_EXPECTS(!started_);
  CompileResult compiled = compile(spec, params_);
  if (!compiled.ok()) return compiled.error;
  Evaluator& formula = formulas_.emplace_back(
      std::move(compiled.compiled), spec.name, spec.requirement, tracker_);
  formula.set_max_recorded(max_recorded_);
  protocol_mask_ |= formula.protocol_mask();
  channel_mask_ |= formula.channel_mask();
  return {};
}

void FormulaBank::set_max_recorded(std::size_t cap) {
  max_recorded_ = cap;
  for (Evaluator& formula : formulas_) formula.set_max_recorded(cap);
}

void FormulaBank::handle(Time at, const Evaluator::Event& event,
                         const hb::ProtocolEvent* pe) {
  started_ = true;
  for (Evaluator& formula : formulas_) {
    if (formula.wants(event)) {
      ++formula.events_seen_;
      formula.check(at, tracker_);
    }
  }
  if (pe != nullptr) tracker_.apply(*pe);
  for (Evaluator& formula : formulas_) {
    if (formula.wants(event)) formula.step(at, tracker_, event);
  }
}

void FormulaBank::on_protocol_event(const hb::ProtocolEvent& event) {
  handle(event.at, Evaluator::Event{protocol_bit(event.kind), 0, event.node},
         &event);
}

void FormulaBank::on_channel_event(const sim::ChannelEvent& event) {
  handle(event.at, Evaluator::Event{0, channel_bit(event.kind)}, nullptr);
}

void FormulaBank::finish(Time horizon) {
  for (Evaluator& formula : formulas_) formula.check(horizon, tracker_);
}

// ---------------------------------------------------------------------------
// Spec entry points.

CompileResult compile(const FormulaSpec& spec, const BindParams& params) {
  const Node* formula = shipped_ast(spec.text);
  ParseResult parsed;
  if (formula == nullptr) {
    parsed = parse(spec.text);
    if (!parsed.ok()) {
      CompileResult result;
      result.error = "parse error in formula '" + spec.name + "' at offset " +
                     std::to_string(parsed.error_at) + ": " + parsed.error;
      return result;
    }
    formula = parsed.formula.get();
  }
  CompileResult result = compile(*formula, params);
  if (!result.ok()) {
    result.error =
        "compile error in formula '" + spec.name + "': " + result.error;
  }
  return result;
}

MonitorResult make_monitor(const FormulaSpec& spec, const BindParams& params) {
  MonitorResult result;
  CompileResult compiled = compile(spec, params);
  if (!compiled.ok()) {
    result.error = std::move(compiled.error);
    return result;
  }
  result.monitor = std::make_unique<FormulaMonitor>(
      std::move(compiled.compiled), params, spec.name, spec.requirement);
  return result;
}

}  // namespace ahb::rv::pltl
