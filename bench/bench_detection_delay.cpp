// Detection-delay experiment (simulation): after a participant crashes,
// how long until the coordinator self-deactivates — and symmetrically
// for a coordinator crash? The ICDCS'98 design promises bounded
// detection: the coordinator inactivates within 3*tmax - tmin of its
// last received beat (2*tmax when 2*tmin > tmax), participants within
// 3*tmax - tmin (2*tmax with the corrected bounds) of their last beat.
//
// For every (tmin, tmax) point we run many seeded simulations with a
// crash at a random time and report the measured mean/max detection
// delay against the analytic bound. The shape to observe: measured max
// stays below the bound, and the bound tightens as tmin grows.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "hb/cluster.hpp"

namespace {

using namespace ahb;

struct DelayStats {
  double mean = 0;
  hb::Time max = 0;
  int detected = 0;
  int runs = 0;
};

void emit_row_json(const char* detector, hb::Time tmin, bool fixed,
                   const DelayStats& s, long long bound) {
  std::printf(
      "{\"bench\": \"detection_delay/%s_tmin%lld_%s\", \"detected\": %d, "
      "\"runs\": %d, \"mean\": %.1f, \"max\": %lld, \"bound\": %lld}\n",
      detector, static_cast<long long>(tmin), fixed ? "fixed" : "paper",
      s.detected, s.runs, s.mean, static_cast<long long>(s.max), bound);
}

DelayStats participant_crash_sweep(hb::Time tmin, hb::Time tmax,
                                   bool fixed_bounds, int runs) {
  DelayStats stats;
  stats.runs = runs;
  double total = 0;
  for (int seed = 1; seed <= runs; ++seed) {
    hb::ClusterConfig config;
    config.protocol.variant = hb::Variant::Binary;
    config.protocol.tmin = tmin;
    config.protocol.tmax = tmax;
    config.protocol.fixed_bounds = fixed_bounds;
    config.participants = 1;
    config.seed = static_cast<std::uint64_t>(seed);

    hb::Cluster cluster{config};
    // Crash at a pseudo-random phase within a few rounds.
    const sim::Time crash_at = 100 + (seed * 37) % (3 * tmax);
    cluster.crash_participant_at(1, crash_at);
    cluster.start();
    cluster.run_until(crash_at + 20 * tmax);

    const hb::Time at = cluster.coordinator().inactivated_at();
    if (at == hb::kNever) continue;
    const hb::Time delay = at - crash_at;
    ++stats.detected;
    total += static_cast<double>(delay);
    stats.max = std::max(stats.max, delay);
  }
  if (stats.detected > 0) stats.mean = total / stats.detected;
  return stats;
}

DelayStats coordinator_crash_sweep(hb::Time tmin, hb::Time tmax,
                                   bool fixed_bounds, int runs) {
  DelayStats stats;
  stats.runs = runs;
  double total = 0;
  for (int seed = 1; seed <= runs; ++seed) {
    hb::ClusterConfig config;
    config.protocol.variant = hb::Variant::Binary;
    config.protocol.tmin = tmin;
    config.protocol.tmax = tmax;
    config.protocol.fixed_bounds = fixed_bounds;
    config.participants = 1;
    config.seed = static_cast<std::uint64_t>(seed);

    hb::Cluster cluster{config};
    const sim::Time crash_at = 100 + (seed * 41) % (3 * tmax);
    cluster.crash_coordinator_at(crash_at);
    cluster.start();
    cluster.run_until(crash_at + 20 * tmax);

    const hb::Time at = cluster.participant(1).inactivated_at();
    if (at == hb::kNever) continue;
    ++stats.detected;
    const hb::Time delay = at - crash_at;
    total += static_cast<double>(delay);
    stats.max = std::max(stats.max, delay);
  }
  if (stats.detected > 0) stats.mean = total / stats.detected;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::PlainArgs args = bench::parse_plain_args(argc, argv);
  constexpr int kRuns = 300;
  const hb::Time tmax = 16;

  std::printf("== Detection delay after a crash (binary protocol, tmax=%lld,"
              " %d seeded runs per row, loss-free) ==\n\n",
              static_cast<long long>(tmax), kRuns);

  std::printf("-- participant crashes; coordinator detects --\n");
  std::printf("%6s %10s %12s %10s %10s  %s\n", "tmin", "bounds", "detected",
              "mean", "max", "analytic bound");
  for (const hb::Time tmin : {1, 2, 4, 8, 16}) {
    for (const bool fixed : {false, true}) {
      const auto s = participant_crash_sweep(tmin, tmax, fixed, kRuns);
      hb::Config cfg;
      cfg.tmin = tmin;
      cfg.tmax = tmax;
      // A reply already in flight when the crash happens (up to tmin/2
      // one-way delay) can still refresh the coordinator's round, so the
      // bound measured from the *crash time* gets that allowance.
      const long long bound = cfg.coordinator_detection_bound() + tmin / 2;
      std::printf("%6lld %10s %8d/%-3d %10.1f %10lld  <= %lld%s\n",
                  static_cast<long long>(tmin), fixed ? "fixed" : "paper",
                  s.detected, s.runs, s.mean,
                  static_cast<long long>(s.max), bound,
                  s.max <= bound ? "  OK" : "  EXCEEDED");
      if (args.json) emit_row_json("coordinator_detects", tmin, fixed, s, bound);
    }
  }

  std::printf("\n-- coordinator crashes; participant detects --\n");
  std::printf("%6s %10s %12s %10s %10s  %s\n", "tmin", "bounds", "detected",
              "mean", "max", "analytic bound");
  for (const hb::Time tmin : {1, 2, 4, 8, 16}) {
    for (const bool fixed : {false, true}) {
      const auto s = coordinator_crash_sweep(tmin, tmax, fixed, kRuns);
      hb::Config cfg;
      cfg.tmin = tmin;
      cfg.tmax = tmax;
      cfg.fixed_bounds = fixed;
      // Same in-flight allowance: a beat the coordinator sent just
      // before crashing is delivered up to tmin/2 later and legitimately
      // refreshes the participant's deadline.
      const long long bound = cfg.participant_deadline() + tmin / 2;
      std::printf("%6lld %10s %8d/%-3d %10.1f %10lld  <= %lld%s\n",
                  static_cast<long long>(tmin), fixed ? "fixed" : "paper",
                  s.detected, s.runs, s.mean,
                  static_cast<long long>(s.max), bound,
                  s.max <= bound ? "  OK" : "  EXCEEDED");
      if (args.json) emit_row_json("participant_detects", tmin, fixed, s, bound);
    }
  }

  std::printf(
      "\nShape check: every measured max respects its analytic bound (the\n"
      "deadline plus the one-way delay of a message already in flight at\n"
      "the crash); the corrected (\"fixed\") participant bound 2*tmax is\n"
      "visibly tighter than the published 3*tmax - tmin for small tmin.\n");
  return 0;
}
