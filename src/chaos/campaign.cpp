#include "chaos/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <string_view>
#include <thread>

#include "proto/timing.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace ahb::chaos {

namespace {

constexpr Variant kAllVariants[] = {
    Variant::Binary,   Variant::RevisedBinary, Variant::TwoPhase,
    Variant::Static,   Variant::Expanding,     Variant::Dynamic,
};

/// Timing shapes covering the interesting regimes: deep halving ladder,
/// shallow ladder, and tmin == tmax (where the join race and the
/// two-phase double-miss live).
constexpr proto::Timing kDefaultTimings[] = {{1, 16}, {2, 4}, {3, 3}};

Time settle_margin(const proto::Timing& timing, Variant variant,
                   bool fixed_bounds) {
  return proto::r1_detection_slack(timing, variant) +
         proto::r3_detection_slack(timing, variant, fixed_bounds) +
         2 * timing.tmax;
}

Time rnd_time(Rng& rng, Time lo, Time hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<Time>(rng.below(static_cast<std::uint64_t>(hi - lo) + 1));
}

/// All traffic flows over the coordinator star, so faults target a
/// directed link between node 0 and a random participant.
void pick_link(Rng& rng, int participants, int& from, int& to) {
  const int peer = 1 + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(participants)));
  if (rng.below(2) == 0) {
    from = 0;
    to = peer;
  } else {
    from = peer;
    to = 0;
  }
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void add_stats(sim::NetworkStats& total, const sim::NetworkStats& one) {
  total.sent += one.sent;
  total.delivered += one.delivered;
  total.lost += one.lost;
  total.blocked += one.blocked;
  total.duplicated += one.duplicated;
  total.reordered += one.reordered;
  total.out_of_spec_delay += one.out_of_spec_delay;
  total.corrupted += one.corrupted;
  total.rejected += one.rejected;
}

FaultAction out_of_spec_action(Rng& rng, const RunSpec& spec, Time lo,
                               Time hi) {
  FaultAction action;
  action.at = rnd_time(rng, lo, hi);
  if (rng.below(2) == 0) {
    // One-way delays whose round trip exceeds tmin.
    action.kind = FaultKind::SetDelay;
    pick_link(rng, spec.participants, action.a, action.b);
    action.d1 = 0;
    action.d2 = spec.tmin / 2 + 1 +
                static_cast<Time>(rng.below(
                    static_cast<std::uint64_t>(spec.tmin) + 1));
  } else {
    action.kind = FaultKind::SetDrift;
    action.a = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(spec.participants) + 1));
    constexpr std::int64_t kRates[][2] = {{1, 2}, {2, 1}, {2, 3}, {3, 2}};
    const auto& rate = kRates[rng.below(4)];
    action.d1 = rate[0];
    action.d2 = rate[1];
  }
  return action;
}

/// One action of the legacy mixed profile, drawn into [lo, hi]. The
/// draw sequence is exactly the pre-refactor generator body, so the
/// bool-profile overload of generate_schedule keeps every historical
/// seed's schedule byte for byte.
void push_mixed_action(Rng& rng, const RunSpec& spec, Time lo, Time hi,
                       bool leaves, FaultSchedule& schedule) {
  FaultAction action;
  action.at = rnd_time(rng, lo, hi);
  const std::uint64_t roll = rng.below(100);
  if (roll < 20) {
    action.kind = FaultKind::SetLoss;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = rng.uniform01();
  } else if (roll < 35) {
    action.kind = FaultKind::SetBurst;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.05 + 0.4 * rng.uniform01();   // p_enter
    action.q = 0.1 + 0.6 * rng.uniform01();    // p_exit
    action.r = 0.5 + 0.5 * rng.uniform01();    // burst loss
  } else if (roll < 45) {
    action.kind = FaultKind::SetDuplication;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = rng.uniform01();
  } else if (roll < 55) {
    action.kind = FaultKind::LinkDown;
    pick_link(rng, spec.participants, action.a, action.b);
    FaultAction up = action;
    up.kind = FaultKind::LinkUp;
    up.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 3 * spec.tmax),
                           hi);
    schedule.actions.push_back(up);
  } else if (roll < 65) {
    action.kind = FaultKind::Partition;
    action.a = 1;
    action.b = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
    FaultAction heal = action;
    heal.kind = FaultKind::Heal;
    heal.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 3 * spec.tmax),
                             hi);
    schedule.actions.push_back(heal);
  } else if (roll < 80) {
    action.kind = FaultKind::CrashParticipant;
    action.a = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
  } else if (roll < 88) {
    action.kind = FaultKind::CrashCoordinator;
  } else if (roll < 94 && leaves) {
    action.kind = FaultKind::Leave;
    action.a = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
    if (rng.below(2) == 0) {
      FaultAction rejoin = action;
      rejoin.kind = FaultKind::Rejoin;
      rejoin.at = std::min<Time>(
          action.at + 2 * spec.tmin + 1 + rnd_time(rng, 0, 3 * spec.tmax),
          hi);
      schedule.actions.push_back(rejoin);
    }
  } else if (roll < 94) {
    // Non-leaving variant: spend the leave slot on another crash.
    action.kind = FaultKind::CrashParticipant;
    action.a = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
  } else {
    // In-spec delay: one-way bound stays within tmin/2.
    action.kind = FaultKind::SetDelay;
    pick_link(rng, spec.participants, action.a, action.b);
    action.d1 = 0;
    action.d2 = static_cast<Time>(rng.below(
        static_cast<std::uint64_t>(spec.tmin / 2) + 1));
  }
  schedule.actions.push_back(action);
}

/// One action of the setup mix: gentle channel-parameter weather only,
/// so a multi-cycle mission's cluster is still fully alive when the
/// storm hits (the legacy mixed profile's crashes are permanent and
/// would leave later cycles running on a dead cluster).
void push_setup_action(Rng& rng, const RunSpec& spec, Time lo, Time hi,
                       FaultSchedule& schedule) {
  FaultAction action;
  action.at = rnd_time(rng, lo, hi);
  const std::uint64_t roll = rng.below(4);
  if (roll == 0) {
    // Sustained loss of any rate eventually exhausts the acceleration
    // ladder, so even gentle loss auto-reverts after a few rounds.
    action.kind = FaultKind::SetLoss;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.3 * rng.uniform01();
    FaultAction reset = action;
    reset.p = 0.0;
    reset.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 4 * spec.tmax),
                              hi);
    schedule.actions.push_back(reset);
  } else if (roll == 1) {
    action.kind = FaultKind::SetDuplication;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = rng.uniform01();
  } else if (roll == 2) {
    action.kind = FaultKind::SetBurst;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.05 + 0.2 * rng.uniform01();
    action.q = 0.3 + 0.5 * rng.uniform01();
    action.r = 0.5 + 0.4 * rng.uniform01();
    FaultAction reset = action;
    reset.p = 0.0;
    reset.q = 1.0;
    reset.r = 0.0;
    reset.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 4 * spec.tmax),
                              hi);
    schedule.actions.push_back(reset);
  } else {
    action.kind = FaultKind::SetDelay;
    pick_link(rng, spec.participants, action.a, action.b);
    action.d1 = 0;
    action.d2 = static_cast<Time>(rng.below(
        static_cast<std::uint64_t>(spec.tmin / 2) + 1));
  }
  schedule.actions.push_back(action);
}

/// One action of the storm mix: survivable heavy weather (no permanent
/// crashes — long missions must outlive every cycle).
void push_storm_action(Rng& rng, const RunSpec& spec,
                       const ScheduleProfile& profile, Time lo, Time hi,
                       FaultSchedule& schedule) {
  const bool leaves = proto::variant_leaves(spec.variant);
  FaultAction action;
  action.at = rnd_time(rng, lo, hi);
  const std::uint64_t roll = rng.below(100);
  if (roll < 25) {
    // Asymmetric burst storm on one direction of the whole star; the
    // action self-reverts at at + d1, always inside the phase.
    // Kept short: the accelerated ladder inactivates after a couple of
    // silent rounds, so a storm much longer than tmax is a death
    // sentence and the rest of the mission would be dead air.
    action.kind = FaultKind::AsymmetricStorm;
    action.a = 1;
    action.b = spec.participants;
    action.p = 0.1 + 0.5 * rng.uniform01();  // p_enter
    action.q = 0.1 + 0.6 * rng.uniform01();  // p_exit
    action.r = 0.6 + 0.4 * rng.uniform01();  // burst loss
    action.d1 = 1 + rnd_time(rng, 0, 2 * spec.tmax);
    action.d2 = static_cast<Time>(rng.below(2));
  } else if (roll < 45 && leaves) {
    // Churn wave: a staggered leave front with rejoins trailing it.
    action.kind = FaultKind::ChurnStorm;
    action.a = 1;
    action.b = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
    action.d1 = rnd_time(rng, 0, 2 * spec.tmax);
    action.d2 = 2 * spec.tmin + 1 + rnd_time(rng, 0, 3 * spec.tmax);
  } else if (roll < 45) {
    // Non-leaving variant: spend the churn slot on a loss spike
    // (auto-reverting, same lifetime logic as the storms).
    action.kind = FaultKind::SetLoss;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.3 + 0.6 * rng.uniform01();
    FaultAction reset = action;
    reset.p = 0.0;
    reset.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 2 * spec.tmax),
                              hi);
    schedule.actions.push_back(reset);
  } else if (roll < 60) {
    action.kind = FaultKind::Partition;
    action.a = 1;
    action.b = 1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(spec.participants)));
    FaultAction heal = action;
    heal.kind = FaultKind::Heal;
    heal.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 2 * spec.tmax),
                             hi);
    schedule.actions.push_back(heal);
  } else if (roll < 75) {
    action.kind = FaultKind::SetLoss;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.3 + 0.6 * rng.uniform01();
    FaultAction reset = action;
    reset.p = 0.0;
    reset.at = std::min<Time>(action.at + 1 + rnd_time(rng, 0, 2 * spec.tmax),
                              hi);
    schedule.actions.push_back(reset);
  } else if (roll < 90 && profile.corrupt > 0) {
    action.kind = FaultKind::CorruptPayload;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = profile.corrupt;
  } else if (roll < 90) {
    action.kind = FaultKind::SetBurst;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.05 + 0.4 * rng.uniform01();
    action.q = 0.1 + 0.6 * rng.uniform01();
    action.r = 0.5 + 0.5 * rng.uniform01();
  } else if (profile.clock_faults) {
    if (rng.below(2) == 0) {
      action.kind = FaultKind::SetClockOffset;
      action.a = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(spec.participants) + 1));
      action.d1 = 1 + rnd_time(rng, 0, 4 * spec.tmax);
      if (rng.below(2) == 0) action.d1 = -action.d1;
    } else {
      action.kind = FaultKind::WrapClock;
      action.a = static_cast<int>(rng.below(
          static_cast<std::uint64_t>(spec.participants) + 1));
      action.d1 = rnd_time(rng, 0, 4 * spec.tmax);
    }
  } else {
    action.kind = FaultKind::SetDuplication;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = rng.uniform01();
  }
  schedule.actions.push_back(action);
}

/// Deterministic cleanup opening a recovery phase: heal the star and
/// reset loss, burst and corruption on every directed link, so an
/// in-spec mission is back on a quiet channel before the next cycle.
void push_recovery_cleanup(const RunSpec& spec, Time at,
                           FaultSchedule& schedule) {
  FaultAction heal;
  heal.kind = FaultKind::Heal;
  heal.at = at;
  heal.a = 1;
  heal.b = spec.participants;
  schedule.actions.push_back(heal);
  for (int i = 1; i <= spec.participants; ++i) {
    for (const bool up : {true, false}) {
      const int from = up ? i : 0;
      const int to = up ? 0 : i;
      FaultAction reset;
      reset.at = at;
      reset.a = from;
      reset.b = to;
      reset.kind = FaultKind::SetLoss;
      schedule.actions.push_back(reset);
      reset.kind = FaultKind::SetBurst;
      reset.q = 1.0;  // p_enter = loss = 0, exit immediately
      schedule.actions.push_back(reset);
      reset.q = 0.0;
      reset.kind = FaultKind::CorruptPayload;
      schedule.actions.push_back(reset);
    }
  }
}

/// One action of the gentle recovery mix.
void push_recovery_action(Rng& rng, const RunSpec& spec, Time lo, Time hi,
                          FaultSchedule& schedule) {
  FaultAction action;
  action.at = rnd_time(rng, lo, hi);
  if (rng.below(2) == 0) {
    action.kind = FaultKind::SetLoss;
    pick_link(rng, spec.participants, action.a, action.b);
    action.p = 0.1 * rng.uniform01();
  } else {
    action.kind = FaultKind::SetDelay;
    pick_link(rng, spec.participants, action.a, action.b);
    action.d1 = 0;
    action.d2 = static_cast<Time>(rng.below(
        static_cast<std::uint64_t>(spec.tmin / 2) + 1));
  }
  schedule.actions.push_back(action);
}

}  // namespace

Time campaign_horizon(const proto::Timing& timing, Variant variant,
                      bool fixed_bounds) {
  return 8 * timing.tmax + settle_margin(timing, variant, fixed_bounds);
}

FaultSchedule generate_schedule(const RunSpec& spec, bool out_of_spec_profile) {
  // The generator stream is independent of the simulation stream (which
  // Rng(spec.seed) drives inside the cluster) but fully determined by
  // the run header, so a schedule never needs to be stored to be
  // reproduced.
  std::uint64_t mix = spec.seed;
  mix = mix * 0x9e3779b97f4a7c15ULL +
        (static_cast<std::uint64_t>(spec.variant) + 1);
  mix ^= static_cast<std::uint64_t>(spec.tmin) << 40;
  mix ^= static_cast<std::uint64_t>(spec.tmax) << 20;
  if (out_of_spec_profile) mix ^= 0x5bd1e995U;
  Rng rng(mix);

  const Time settle =
      settle_margin(spec.timing(), spec.variant, spec.fixed_bounds);
  const Time active_end = std::max<Time>(spec.horizon - settle, 1);
  const bool leaves = proto::variant_leaves(spec.variant);

  FaultSchedule schedule;
  const int count = 1 + static_cast<int>(rng.below(4));
  for (int k = 0; k < count; ++k) {
    push_mixed_action(rng, spec, 1, active_end, leaves, schedule);
  }

  if (out_of_spec_profile && !schedule.out_of_spec(spec.timing())) {
    schedule.actions.push_back(out_of_spec_action(rng, spec, 1, active_end));
  }

  std::stable_sort(schedule.actions.begin(), schedule.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at < y.at;
                   });
  return schedule;
}

FaultSchedule generate_schedule(const RunSpec& spec,
                                const ScheduleProfile& profile) {
  // A distinct stream salt keeps profile schedules independent of the
  // legacy generator's at the same seed.
  std::uint64_t mix = spec.seed;
  mix = mix * 0x9e3779b97f4a7c15ULL +
        (static_cast<std::uint64_t>(spec.variant) + 1);
  mix ^= static_cast<std::uint64_t>(spec.tmin) << 40;
  mix ^= static_cast<std::uint64_t>(spec.tmax) << 20;
  mix ^= 0x4d15510eULL;
  Rng rng(mix);

  const Time settle =
      settle_margin(spec.timing(), spec.variant, spec.fixed_bounds);
  const Time active_end = std::max<Time>(spec.horizon - settle, 1);
  const int cycles = std::max(profile.cycles, 1);
  const Time cycle_len = std::max<Time>(active_end / cycles, 4);

  FaultSchedule schedule;
  for (int c = 0; c < cycles; ++c) {
    const Time c0 = 1 + static_cast<Time>(c) * cycle_len;
    if (c0 > active_end) break;
    const Time setup_end = std::min(c0 + cycle_len / 4, active_end);
    const Time storm_end = std::min(c0 + (3 * cycle_len) / 4, active_end);
    const Time cycle_end = std::min(c0 + cycle_len - 1, active_end);

    // Armed corruption runs through setup and storm of every cycle
    // deterministically (the recovery cleanup disarms it), so even a
    // mission whose cluster dies in its first storm exercises the wire
    // validation while the protocol is still alive.
    if (profile.corrupt > 0) {
      for (int i = 1; i <= spec.participants; ++i) {
        for (const bool up : {true, false}) {
          FaultAction arm;
          arm.kind = FaultKind::CorruptPayload;
          arm.at = c0;
          arm.a = up ? i : 0;
          arm.b = up ? 0 : i;
          arm.p = profile.corrupt;
          schedule.actions.push_back(arm);
        }
      }
    }
    const int setup = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                              std::max(profile.setup_budget, 1))));
    for (int k = 0; k < setup; ++k) {
      push_setup_action(rng, spec, c0, setup_end, schedule);
    }
    const int storm = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                              std::max(profile.storm_budget, 1))));
    for (int k = 0; k < storm; ++k) {
      push_storm_action(rng, spec, profile, setup_end + 1, storm_end, schedule);
    }
    push_recovery_cleanup(spec, storm_end + 1, schedule);
    if (profile.recovery_budget > 0) {
      const int recovery =
          static_cast<int>(rng.below(
              static_cast<std::uint64_t>(profile.recovery_budget) + 1));
      for (int k = 0; k < recovery; ++k) {
        push_recovery_action(rng, spec, storm_end + 1, cycle_end, schedule);
      }
    }
  }

  if (profile.out_of_spec && !schedule.out_of_spec(spec.timing())) {
    schedule.actions.push_back(out_of_spec_action(rng, spec, 1, active_end));
  }

  std::stable_sort(schedule.actions.begin(), schedule.actions.end(),
                   [](const FaultAction& x, const FaultAction& y) {
                     return x.at < y.at;
                   });
  return schedule;
}

RunSpec shrink_run(const RunSpec& spec, const rv::MonitorBounds* bounds) {
  const RunResult full = run_chaos(spec, bounds);
  if (full.violations.empty()) return spec;
  const int requirement = full.violations.front().requirement;
  const int node = full.violations.front().node;
  const auto reproduces = [&](const std::vector<FaultAction>& actions) {
    RunSpec candidate = spec;
    candidate.schedule.actions = actions;
    const RunResult result = run_chaos(candidate, bounds);
    return std::any_of(result.violations.begin(), result.violations.end(),
                       [&](const rv::Violation& v) {
                         return v.requirement == requirement && v.node == node;
                       });
  };

  std::vector<FaultAction> actions = spec.schedule.actions;
  if (reproduces({})) {
    actions.clear();
  } else {
    // Zeller's ddmin over the action list: try dropping ever-finer
    // chunks; the result is 1-minimal (no single action can go).
    std::size_t granularity = 2;
    while (actions.size() >= 2) {
      const std::size_t chunk =
          (actions.size() + granularity - 1) / granularity;
      bool reduced = false;
      for (std::size_t start = 0; start < actions.size() && !reduced;
           start += chunk) {
        std::vector<FaultAction> complement;
        complement.reserve(actions.size());
        for (std::size_t i = 0; i < actions.size(); ++i) {
          if (i < start || i >= start + chunk) complement.push_back(actions[i]);
        }
        if (!complement.empty() && reproduces(complement)) {
          actions = std::move(complement);
          granularity = std::max<std::size_t>(granularity - 1, 2);
          reduced = true;
        }
      }
      if (!reduced) {
        if (granularity >= actions.size()) break;
        granularity = std::min(actions.size(), granularity * 2);
      }
    }
  }

  RunSpec out = spec;
  out.schedule.actions = std::move(actions);
  return out;
}

CampaignResult run_campaign(const CampaignOptions& options) {
  AHB_EXPECTS(options.participants >= 1);
  AHB_EXPECTS(options.runs_per_config >= 1);

  const std::vector<Variant> variants =
      options.variants.empty()
          ? std::vector<Variant>(std::begin(kAllVariants),
                                 std::end(kAllVariants))
          : options.variants;
  const std::vector<proto::Timing> timings =
      options.timings.empty()
          ? std::vector<proto::Timing>(std::begin(kDefaultTimings),
                                       std::end(kDefaultTimings))
          : options.timings;

  std::vector<RunSpec> specs;
  for (const Variant variant : variants) {
    for (const proto::Timing& timing : timings) {
      for (int run = 0; run < options.runs_per_config; ++run) {
        RunSpec spec;
        spec.variant = variant;
        spec.tmin = timing.tmin;
        spec.tmax = timing.tmax;
        spec.fixed_bounds = options.fixed_bounds;
        spec.receive_priority = options.receive_priority;
        spec.participants =
            proto::variant_is_multi(variant) ? options.participants : 1;
        spec.seed = options.base_seed + static_cast<std::uint64_t>(run);
        spec.horizon =
            campaign_horizon(timing, variant, options.fixed_bounds);
        spec.schedule = generate_schedule(spec, options.out_of_spec);
        specs.push_back(std::move(spec));
      }
    }
  }

  const auto bounds_for = [&options](const RunSpec& spec) {
    rv::MonitorBounds bounds = rv::MonitorBounds::defaults(
        spec.timing(), spec.variant, spec.fixed_bounds);
    bounds.r1_slack += options.extra_r1_slack;
    bounds.r2_window += options.extra_r2_window;
    bounds.r3_slack += options.extra_r3_slack;
    return bounds;
  };

  struct Slot {
    RunResult result;
    std::uint64_t hash = 0;
  };
  std::vector<Slot> slots(specs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < specs.size();
         i = next.fetch_add(1)) {
      const rv::MonitorBounds bounds = bounds_for(specs[i]);
      slots[i].result =
          run_chaos(specs[i], &bounds, options.fingerprint, false,
                    options.formulas.empty() ? nullptr : &options.formulas);
      if (options.fingerprint) {
        slots[i].hash =
            fnv1a(serialize_run(specs[i]) + slots[i].result.trace);
        slots[i].result.trace.clear();
      }
    }
  };

  const unsigned thread_count = std::max(1u, options.threads);
  if (thread_count == 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(thread_count);
    for (unsigned t = 0; t < thread_count; ++t) workers.emplace_back(worker);
    for (auto& w : workers) w.join();
  }

  // Aggregation is sequential and in run order, so the result is
  // invariant under the worker-thread count.
  CampaignResult result;
  std::uint64_t fingerprint = 1469598103934665603ULL;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ++result.runs;
    result.sim_ticks += static_cast<std::uint64_t>(specs[i].horizon);
    add_stats(result.totals, slots[i].result.net_stats);
    result.availability += slots[i].result.availability;
    result.integrity += slots[i].result.integrity;
    if (!slots[i].result.formula_violations.empty()) {
      ++result.formula_violating_runs;
      result.formula_violations += slots[i].result.formula_violations.size();
    }
    fingerprint = (fingerprint ^ slots[i].hash) * 1099511628211ULL;
    if (slots[i].result.violations.empty()) continue;
    ++result.violating_runs;
    ViolatingRun violating;
    violating.spec = specs[i];
    violating.violations = slots[i].result.violations;
    violating.shrunk = specs[i];
    if (options.shrink) {
      const rv::MonitorBounds bounds = bounds_for(specs[i]);
      violating.shrunk = shrink_run(specs[i], &bounds);
    }
    violating.artifact = serialize_run(violating.shrunk);
    result.violating.push_back(std::move(violating));
  }
  result.fingerprint = fingerprint;
  return result;
}

}  // namespace ahb::chaos
