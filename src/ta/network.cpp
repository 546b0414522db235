#include "ta/network.hpp"

#include <algorithm>
#include <span>

#include "util/contracts.hpp"
#include "util/strings.hpp"

namespace ahb::ta {

AutomatonId Network::add_automaton(std::string name) {
  AHB_EXPECTS(!frozen_);
  automata_.push_back(Automaton{.name = std::move(name)});
  return AutomatonId{static_cast<int>(automata_.size()) - 1};
}

int Network::add_location(AutomatonId a, std::string name, LocKind kind,
                          Guard invariant) {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(a.value >= 0 &&
              a.value < static_cast<int>(automata_.size()));
  auto& locs = automata_[static_cast<std::size_t>(a.value)].locations;
  locs.push_back(
      Location{std::move(name), kind, std::move(invariant)});
  return static_cast<int>(locs.size()) - 1;
}

void Network::set_initial(AutomatonId a, int loc_index) {
  AHB_EXPECTS(!frozen_);
  auto& automaton = automata_[static_cast<std::size_t>(a.value)];
  AHB_EXPECTS(loc_index >= 0 &&
              loc_index < static_cast<int>(automaton.locations.size()));
  automaton.initial = loc_index;
}

VarId Network::add_var(std::string name, int init) {
  AHB_EXPECTS(!frozen_);
  vars_.push_back(VarDecl{.name = std::move(name),
                          .init = static_cast<Slot>(init)});
  return VarId{static_cast<int>(vars_.size()) - 1};
}

VarId Network::add_var(std::string name, int init, int min, int max,
                       AutomatonId owner) {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(min <= init && init <= max);
  AHB_EXPECTS(owner.value < static_cast<int>(automata_.size()));
  vars_.push_back(VarDecl{.name = std::move(name),
                          .init = static_cast<Slot>(init),
                          .min = static_cast<Slot>(min),
                          .max = static_cast<Slot>(max),
                          .owner = owner.value < 0 ? -1 : owner.value});
  return VarId{static_cast<int>(vars_.size()) - 1};
}

ClockId Network::add_clock(std::string name, int cap) {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(cap > 0);
  clocks_.push_back(ClockDecl{std::move(name), static_cast<Slot>(cap)});
  return ClockId{static_cast<int>(clocks_.size()) - 1};
}

ChanId Network::add_channel(std::string name, ChanKind kind) {
  AHB_EXPECTS(!frozen_);
  chans_.push_back(ChanDecl{std::move(name), kind});
  return ChanId{static_cast<int>(chans_.size()) - 1};
}

void Network::add_edge(AutomatonId a, Edge edge) {
  AHB_EXPECTS(!frozen_);
  auto& automaton = automata_[static_cast<std::size_t>(a.value)];
  AHB_EXPECTS(edge.src >= 0 &&
              edge.src < static_cast<int>(automaton.locations.size()));
  AHB_EXPECTS(edge.dst >= 0 &&
              edge.dst < static_cast<int>(automaton.locations.size()));
  if (edge.dir == SyncDir::None) {
    AHB_EXPECTS(edge.chan.value < 0);
  } else {
    AHB_EXPECTS(edge.chan.value >= 0 &&
                edge.chan.value < static_cast<int>(chans_.size()));
  }
  automaton.edges.push_back(std::move(edge));
}

void Network::add_symmetry_block(SymmetryMember member) {
  AHB_EXPECTS(!frozen_);
  if (!symmetry_blocks_.empty()) {
    const auto& first = symmetry_blocks_.front();
    AHB_EXPECTS(member.automata.size() == first.automata.size());
    AHB_EXPECTS(member.vars.size() == first.vars.size());
    AHB_EXPECTS(member.clocks.size() == first.clocks.size());
  }
  for (const auto a : member.automata) {
    AHB_EXPECTS(a.value >= 0 && a.value < static_cast<int>(automata_.size()));
  }
  for (const auto v : member.vars) {
    AHB_EXPECTS(v.value >= 0 && v.value < static_cast<int>(vars_.size()));
  }
  for (const auto c : member.clocks) {
    AHB_EXPECTS(c.value >= 0 && c.value < static_cast<int>(clocks_.size()));
  }
  symmetry_blocks_.push_back(std::move(member));
}

void Network::declare_dead_var(AutomatonId a, int loc_index, VarId v,
                               int value) {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(a.value >= 0 && a.value < static_cast<int>(automata_.size()));
  AHB_EXPECTS(v.value >= 0 && v.value < static_cast<int>(vars_.size()));
  const auto& automaton = automata_[static_cast<std::size_t>(a.value)];
  AHB_EXPECTS(loc_index >= 0 &&
              loc_index < static_cast<int>(automaton.locations.size()));
  dead_decls_.push_back(
      DeadDecl{static_cast<std::uint32_t>(loc_slot(a.value)),
               static_cast<Slot>(loc_index),
               static_cast<std::uint32_t>(var_slot(v.value)),
               static_cast<Slot>(value)});
}

void Network::declare_dead_clock(AutomatonId a, int loc_index, ClockId c) {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(a.value >= 0 && a.value < static_cast<int>(automata_.size()));
  AHB_EXPECTS(c.value >= 0 && c.value < static_cast<int>(clocks_.size()));
  const auto& automaton = automata_[static_cast<std::size_t>(a.value)];
  AHB_EXPECTS(loc_index >= 0 &&
              loc_index < static_cast<int>(automaton.locations.size()));
  dead_decls_.push_back(
      DeadDecl{static_cast<std::uint32_t>(loc_slot(a.value)),
               static_cast<Slot>(loc_index),
               static_cast<std::uint32_t>(clock_slot(c.value)), 0});
}

void Network::freeze() {
  AHB_EXPECTS(!frozen_);
  AHB_EXPECTS(!automata_.empty());
  for (const auto& a : automata_) {
    AHB_EXPECTS(!a.locations.empty());
  }
  slot_count_ = automata_.size() + vars_.size() + clocks_.size();
  StateCodec::Builder builder;
  for (const auto& a : automata_) {
    builder.add_location_slot(static_cast<int>(a.locations.size()));
  }
  for (const auto& v : vars_) {
    builder.add_var_slot(v.min, v.max, v.owner);
  }
  for (const auto& c : clocks_) {
    builder.add_clock_slot(c.cap);
  }
  codec_ = std::move(builder).build();
  if (symmetry_blocks_.size() >= 2) {
    const std::size_t stride = symmetry_blocks_.front().automata.size() +
                               symmetry_blocks_.front().vars.size() +
                               symmetry_blocks_.front().clocks.size();
    std::vector<std::uint32_t> block_slots;
    block_slots.reserve(stride * symmetry_blocks_.size());
    for (const auto& b : symmetry_blocks_) {
      for (const auto a : b.automata) {
        block_slots.push_back(static_cast<std::uint32_t>(loc_slot(a.value)));
      }
      for (const auto v : b.vars) {
        block_slots.push_back(static_cast<std::uint32_t>(var_slot(v.value)));
      }
      for (const auto c : b.clocks) {
        block_slots.push_back(static_cast<std::uint32_t>(clock_slot(c.value)));
      }
    }
    codec_.set_symmetry(stride, std::move(block_slots));
  }
  for (const auto& d : dead_decls_) {
    codec_.add_dead_rule(d.loc_slot, d.loc_value, d.target_slot, d.value);
  }
  frozen_ = true;
  // The initial state must satisfy every invariant, otherwise the model
  // is ill-formed and exploration would start from an impossible state.
  AHB_ENSURES(invariants_hold(initial_state()));
}

State Network::initial_state() const {
  AHB_EXPECTS(frozen_);
  State s(slot_count_);
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    s[loc_slot(static_cast<int>(i))] = static_cast<Slot>(automata_[i].initial);
  }
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    s[var_slot(static_cast<int>(i))] = vars_[i].init;
  }
  // Clocks start at zero, which the State constructor already ensures.
  return s;
}

bool Network::invariants_hold(const State& s) const {
  StateView view{*this, s};
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto& a = automata_[i];
    const auto loc = static_cast<std::size_t>(s[loc_slot(static_cast<int>(i))]);
    const auto& inv = a.locations[loc].invariant;
    if (inv && !inv(view)) return false;
  }
  return true;
}

bool Network::edge_guard_holds(const StateView& v, int automaton,
                               const Edge& e) const {
  if (v.state()[loc_slot(automaton)] != e.src) return false;
  return !e.guard || e.guard(v);
}

bool Network::apply_discrete_into(const State& s,
                                  std::span<const Transition::Part> parts,
                                  State& out) const {
  out.assign(s.slots());
  StateMut mut{*this, out};
  for (const auto& part : parts) {
    const auto& automaton = automata_[static_cast<std::size_t>(part.automaton)];
    const auto& edge = automaton.edges[static_cast<std::size_t>(part.edge)];
    if (edge.effect) edge.effect(mut);
    out[loc_slot(part.automaton)] = static_cast<Slot>(edge.dst);
  }
  return invariants_hold(out);
}

bool Network::committed_location_active(const State& s) const {
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto loc = static_cast<std::size_t>(s[loc_slot(static_cast<int>(i))]);
    if (automata_[i].locations[loc].kind == LocKind::Committed) return true;
  }
  return false;
}

bool Network::tick_enabled(const State& s) const {
  // Urgent/committed locations freeze time.
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto loc = static_cast<std::size_t>(s[loc_slot(static_cast<int>(i))]);
    if (automata_[i].locations[loc].kind != LocKind::Normal) return false;
  }
  State next = s;
  for (std::size_t c = 0; c < clocks_.size(); ++c) {
    auto& slot = next[clock_slot(static_cast<int>(c))];
    if (slot < clocks_[c].cap) ++slot;
  }
  return invariants_hold(next);
}

namespace {

/// Appends the scratch candidate state + parts as one discrete record.
void commit_record(SuccessorScratch& scratch, Transition::Kind kind,
                   std::span<const Transition::Part> parts, int priority) {
  SuccessorScratch::Record rec;
  rec.kind = kind;
  rec.parts_begin = static_cast<std::uint32_t>(scratch.parts.size());
  rec.parts_count = static_cast<std::uint32_t>(parts.size());
  rec.target_begin = static_cast<std::uint32_t>(scratch.targets.size());
  rec.priority = priority;
  scratch.parts.insert(scratch.parts.end(), parts.begin(), parts.end());
  scratch.targets.insert(scratch.targets.end(),
                         scratch.candidate.slots().begin(),
                         scratch.candidate.slots().end());
  scratch.records.push_back(rec);
}

}  // namespace

bool Network::collect_discrete_into(const State& s, bool committed_active,
                                    SuccessorScratch& scratch,
                                    bool first_only) const {
  StateView view{*this, s};
  const auto committed_src = [&](int automaton, const Edge& e) {
    const auto& a = automata_[static_cast<std::size_t>(automaton)];
    return a.locations[static_cast<std::size_t>(e.src)].kind ==
           LocKind::Committed;
  };

  // Internal edges.
  for (int ai = 0; ai < static_cast<int>(automata_.size()); ++ai) {
    const auto& a = automata_[static_cast<std::size_t>(ai)];
    for (int ei = 0; ei < static_cast<int>(a.edges.size()); ++ei) {
      const auto& e = a.edges[static_cast<std::size_t>(ei)];
      if (e.dir != SyncDir::None) continue;
      if (committed_active && !committed_src(ai, e)) continue;
      if (!edge_guard_holds(view, ai, e)) continue;
      const Transition::Part part{ai, ei};
      if (apply_discrete_into(s, std::span{&part, 1}, scratch.candidate)) {
        commit_record(scratch, Transition::Kind::Internal, std::span{&part, 1},
                      e.priority);
        if (first_only) return true;
      }
    }
  }

  // Synchronizations: iterate over send edges, match receive edges.
  for (int ai = 0; ai < static_cast<int>(automata_.size()); ++ai) {
    const auto& a = automata_[static_cast<std::size_t>(ai)];
    for (int ei = 0; ei < static_cast<int>(a.edges.size()); ++ei) {
      const auto& send = a.edges[static_cast<std::size_t>(ei)];
      if (send.dir != SyncDir::Send) continue;
      if (!edge_guard_holds(view, ai, send)) continue;
      const auto& chan = chans_[static_cast<std::size_t>(send.chan.value)];

      if (chan.kind == ChanKind::Handshake) {
        for (int bi = 0; bi < static_cast<int>(automata_.size()); ++bi) {
          if (bi == ai) continue;
          const auto& b = automata_[static_cast<std::size_t>(bi)];
          for (int fi = 0; fi < static_cast<int>(b.edges.size()); ++fi) {
            const auto& recv = b.edges[static_cast<std::size_t>(fi)];
            if (recv.dir != SyncDir::Recv || recv.chan != send.chan) continue;
            if (!edge_guard_holds(view, bi, recv)) continue;
            if (committed_active && !committed_src(ai, send) &&
                !committed_src(bi, recv)) {
              continue;
            }
            const Transition::Part parts[] = {{ai, ei}, {bi, fi}};
            if (apply_discrete_into(s, parts, scratch.candidate)) {
              commit_record(scratch, Transition::Kind::Sync, parts,
                            send.priority);
              if (first_only) return true;
            }
          }
        }
      } else {
        // Broadcast: every automaton with at least one enabled receive
        // edge participates; automata with several enabled receive edges
        // contribute one alternative each (cartesian product). The
        // option groups live flattened in scratch.bcast_enabled, with
        // scratch.bcast_offsets marking group boundaries.
        scratch.bcast_enabled.clear();
        scratch.bcast_offsets.assign(1, 0);
        for (int bi = 0; bi < static_cast<int>(automata_.size()); ++bi) {
          if (bi == ai) continue;
          const auto& b = automata_[static_cast<std::size_t>(bi)];
          bool any = false;
          for (int fi = 0; fi < static_cast<int>(b.edges.size()); ++fi) {
            const auto& recv = b.edges[static_cast<std::size_t>(fi)];
            if (recv.dir != SyncDir::Recv || recv.chan != send.chan) continue;
            if (edge_guard_holds(view, bi, recv)) {
              scratch.bcast_enabled.push_back({bi, fi});
              any = true;
            }
          }
          if (any) {
            scratch.bcast_offsets.push_back(
                static_cast<std::uint32_t>(scratch.bcast_enabled.size()));
          }
        }

        const std::size_t groups = scratch.bcast_offsets.size() - 1;
        scratch.bcast_pick.assign(groups, 0);
        while (true) {
          scratch.bcast_parts.clear();
          scratch.bcast_parts.push_back({ai, ei});
          for (std::size_t i = 0; i < groups; ++i) {
            scratch.bcast_parts.push_back(
                scratch.bcast_enabled[scratch.bcast_offsets[i] +
                                      scratch.bcast_pick[i]]);
          }
          const auto& bparts = scratch.bcast_parts;
          const bool committed_ok =
              !committed_active ||
              std::any_of(bparts.begin(), bparts.end(), [&](const auto& p) {
                const auto& e = automata_[static_cast<std::size_t>(p.automaton)]
                                    .edges[static_cast<std::size_t>(p.edge)];
                return committed_src(p.automaton, e);
              });
          if (committed_ok &&
              apply_discrete_into(s, bparts, scratch.candidate)) {
            commit_record(scratch, Transition::Kind::Broadcast, bparts,
                          send.priority);
            if (first_only) return true;
          }
          // Advance the mixed-radix counter over receive alternatives.
          std::size_t i = 0;
          for (; i < groups; ++i) {
            const std::size_t width =
                scratch.bcast_offsets[i + 1] - scratch.bcast_offsets[i];
            if (++scratch.bcast_pick[i] < width) break;
            scratch.bcast_pick[i] = 0;
          }
          if (i == groups) break;
        }
      }
    }
  }
  return !scratch.records.empty();
}

int Network::select_ample(const SuccessorScratch& scratch, int max_priority,
                          bool have_nonzero) const {
  // The ample candidate must lead every record it participates in with
  // only invisible edges, and those records must share no automaton
  // with the remaining records (so the pruned interleavings commute
  // into the kept ones). Bitmask bookkeeping caps at 64 automata; the
  // heartbeat networks stay far below that.
  if (automata_.size() > 64) return -1;
  const auto surviving = [&](const SuccessorScratch::Record& rec) {
    return !have_nonzero || rec.priority >= max_priority;
  };
  const auto involves = [&](const SuccessorScratch::Record& rec, int a) {
    for (std::uint32_t i = 0; i < rec.parts_count; ++i) {
      if (scratch.parts[rec.parts_begin + i].automaton == a) return true;
    }
    return false;
  };
  // Candidate automata, in ascending order for determinism.
  std::uint64_t candidates = 0;
  for (const auto& rec : scratch.records) {
    if (!surviving(rec)) continue;
    for (std::uint32_t i = 0; i < rec.parts_count; ++i) {
      candidates |= std::uint64_t{1}
                    << scratch.parts[rec.parts_begin + i].automaton;
    }
  }
  for (int a = 0; a < static_cast<int>(automata_.size()); ++a) {
    if ((candidates & (std::uint64_t{1} << a)) == 0) continue;
    bool ok = true;
    bool has_other = false;
    std::uint64_t in_mask = 0;
    std::uint64_t out_mask = 0;
    for (const auto& rec : scratch.records) {
      if (!surviving(rec)) continue;
      std::uint64_t mask = 0;
      bool all_invisible = true;
      for (std::uint32_t i = 0; i < rec.parts_count; ++i) {
        const auto& part = scratch.parts[rec.parts_begin + i];
        mask |= std::uint64_t{1} << part.automaton;
        const auto& edge = automata_[static_cast<std::size_t>(part.automaton)]
                               .edges[static_cast<std::size_t>(part.edge)];
        all_invisible = all_invisible && edge.invisible;
      }
      if (involves(rec, a)) {
        if (!all_invisible) {
          ok = false;
          break;
        }
        in_mask |= mask;
      } else {
        has_other = true;
        out_mask |= mask;
      }
    }
    if (ok && has_other && (in_mask & out_mask) == 0) return a;
  }
  return -1;
}

void Network::for_each_successor_impl(const State& s,
                                      SuccessorScratch& scratch,
                                      bool (*f)(void*, const SuccessorView&),
                                      void* ctx, bool reduced) const {
  AHB_EXPECTS(frozen_);
  AHB_EXPECTS(s.size() == slot_count_);
  scratch.targets.clear();
  scratch.parts.clear();
  scratch.records.clear();

  const bool committed_active = committed_location_active(s);
  collect_discrete_into(s, committed_active, scratch,
                        /*first_only=*/false);

  // Priority filtering: only maximal-priority discrete transitions may
  // fire. Delay is never affected by priorities.
  int max_priority = 0;
  bool have_nonzero = false;
  for (const auto& rec : scratch.records) {
    if (rec.priority != 0) have_nonzero = true;
    max_priority = std::max(max_priority, rec.priority);
  }

  // Ample-set reduction, only attempted at committed states: time is
  // frozen there (no tick to account for) and committed chains are
  // transient, so the caller's fusion depth bound doubles as the cycle
  // proviso.
  const int ample = reduced && committed_active && scratch.records.size() >= 2
                        ? select_ample(scratch, max_priority, have_nonzero)
                        : -1;

  for (const auto& rec : scratch.records) {
    if (have_nonzero && rec.priority < max_priority) continue;
    if (ample >= 0) {
      bool in_ample = false;
      for (std::uint32_t i = 0; i < rec.parts_count; ++i) {
        if (scratch.parts[rec.parts_begin + i].automaton == ample) {
          in_ample = true;
          break;
        }
      }
      if (!in_ample) continue;
    }
    SuccessorView v;
    v.target = std::span<const Slot>{scratch.targets}.subspan(rec.target_begin,
                                                              slot_count_);
    v.kind = rec.kind;
    v.sender = scratch.parts[rec.parts_begin];
    v.receivers = std::span<const Transition::Part>{scratch.parts}.subspan(
        rec.parts_begin + 1, rec.parts_count - 1);
    if (!f(ctx, v)) return;
  }

  // The tick reuses the candidate buffer: the discrete records above
  // already hold copies of their targets in the arena. Urgent and
  // committed locations freeze time.
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto loc = static_cast<std::size_t>(s[loc_slot(static_cast<int>(i))]);
    if (automata_[i].locations[loc].kind != LocKind::Normal) return;
  }
  scratch.candidate.assign(s.slots());
  for (std::size_t c = 0; c < clocks_.size(); ++c) {
    auto& slot = scratch.candidate[clock_slot(static_cast<int>(c))];
    if (slot < clocks_[c].cap) ++slot;
  }
  if (!invariants_hold(scratch.candidate)) return;
  SuccessorView tick;
  tick.target = scratch.candidate.slots();
  tick.kind = Transition::Kind::Tick;
  f(ctx, tick);
}

std::vector<Transition> Network::successors(const State& s) const {
  AHB_EXPECTS(frozen_);
  std::vector<Transition> out;
  SuccessorScratch scratch;
  for_each_successor(s, scratch, [&](const SuccessorView& v) {
    Transition t;
    t.target = ta::State{v.target};
    t.kind = v.kind;
    t.sender = v.sender;
    t.receivers.assign(v.receivers.begin(), v.receivers.end());
    out.push_back(std::move(t));
  });
  return out;
}

bool Network::has_successor(const State& s) const {
  SuccessorScratch scratch;
  return has_successor(s, scratch);
}

bool Network::has_successor(const State& s, SuccessorScratch& scratch) const {
  AHB_EXPECTS(frozen_);
  AHB_EXPECTS(s.size() == slot_count_);
  // Priority filtering never empties a non-empty discrete set and the
  // tick is unaffected by priorities, so deadlock-freedom is exactly
  // "some discrete candidate applies, or the tick is enabled" — which
  // allows an early exit on the first applicable candidate.
  scratch.targets.clear();
  scratch.parts.clear();
  scratch.records.clear();
  if (collect_discrete_into(s, committed_location_active(s), scratch,
                            /*first_only=*/true)) {
    return true;
  }
  return tick_enabled(s);
}

std::string Network::action_between(const State& from,
                                    std::span<const Slot> to,
                                    SuccessorScratch& scratch) const {
  std::string action = "<unknown>";
  for_each_successor(from, scratch, [&](const SuccessorView& v) {
    if (std::ranges::equal(v.target, to)) {
      action = label_of(v);
      return false;
    }
    return true;
  });
  return action;
}

const std::string& Network::automaton_name(AutomatonId a) const {
  return automata_[static_cast<std::size_t>(a.value)].name;
}

const std::string& Network::location_name(AutomatonId a, int loc_index) const {
  return automata_[static_cast<std::size_t>(a.value)]
      .locations[static_cast<std::size_t>(loc_index)]
      .name;
}

const std::string& Network::var_name(VarId v) const {
  return vars_[static_cast<std::size_t>(v.value)].name;
}

const std::string& Network::clock_name(ClockId c) const {
  return clocks_[static_cast<std::size_t>(c.value)].name;
}

LocKind Network::location_kind(AutomatonId a, int loc_index) const {
  return automata_[static_cast<std::size_t>(a.value)]
      .locations[static_cast<std::size_t>(loc_index)]
      .kind;
}

std::string Network::label_of(const Transition& t) const {
  return label_of(SuccessorView{t.target.slots(), t.kind, t.sender,
                                t.receivers});
}

std::string Network::label_of(const SuccessorView& v) const {
  if (v.kind == Transition::Kind::Tick) return "tick";
  const auto part_label = [&](const Transition::Part& p) {
    const auto& a = automata_[static_cast<std::size_t>(p.automaton)];
    const auto& e = a.edges[static_cast<std::size_t>(p.edge)];
    return a.name + "." + (e.label.empty() ? "<unlabeled>" : e.label);
  };
  std::string out = part_label(v.sender);
  for (const auto& r : v.receivers) out += " >> " + part_label(r);
  return out;
}

std::string Network::describe(const State& s) const {
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto& a = automata_[i];
    parts.push_back(a.name + "@" +
                    a.locations[static_cast<std::size_t>(
                                    s[loc_slot(static_cast<int>(i))])]
                        .name);
  }
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    parts.push_back(strprintf("%s=%d", vars_[i].name.c_str(),
                              s[var_slot(static_cast<int>(i))]));
  }
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    parts.push_back(strprintf("%s=%d", clocks_[i].name.c_str(),
                              s[clock_slot(static_cast<int>(i))]));
  }
  return join(parts, "\n");
}

std::string Network::describe_brief(const State& s) const {
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < automata_.size(); ++i) {
    const auto& a = automata_[i];
    parts.push_back(a.name + "@" +
                    a.locations[static_cast<std::size_t>(
                                    s[loc_slot(static_cast<int>(i))])]
                        .name);
  }
  return join(parts, " ");
}

}  // namespace ahb::ta
