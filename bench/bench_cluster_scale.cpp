// Cluster-scale engine benchmark: how many heartbeats per second can
// one coordinator process sustain, and how fast does it detect a crash,
// as the member count climbs 1k -> 10k -> 100k?
//
// Three measurements per size on the scale engine (hb::ScaleCluster):
//   - steady state: lossless rounds of the static protocol; reports
//     beats/sec and ns/beat (the per-beat cost must stay near-constant
//     from 10k to 100k — that is the O(1) timer-wheel claim).
//   - detection latency: one random member crashes mid-run; the
//     coordinator accelerates down the waiting-time ladder and
//     inactivates. Reports p50/p99/max over seeded runs against the
//     analytic bound (3*tmax - tmin, plus the in-flight allowance).
//   - membership churn: an expanding join storm (every member starts
//     unjoined and beats in) and, for the dynamic variant, a staggered
//     leave/rejoin wave riding a steady cluster.
// One legacy hb::Cluster baseline runs at 10k for the speedup ratio;
// at 100k the legacy harness is no longer a reasonable thing to run in
// a benchmark loop — which is the point of the scale engine.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "hb/cluster.hpp"
#include "hb/cluster_scale.hpp"
#include "rv/availability.hpp"
#include "rv/monitor.hpp"
#include "rv/suspicion.hpp"

namespace {

using namespace ahb;

constexpr hb::Time kTmin = 4;
constexpr hb::Time kTmax = 10;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

hb::ClusterConfig scale_config(hb::Variant variant, int n,
                               std::uint64_t seed) {
  hb::ClusterConfig config;
  config.protocol.variant = variant;
  config.protocol.tmin = kTmin;
  config.protocol.tmax = kTmax;
  config.participants = n;
  config.max_delay = -1;  // in-spec random delay in [0, tmin/2]
  config.seed = seed;
  return config;
}

struct SteadyResult {
  std::uint64_t rounds = 0;
  std::uint64_t beats = 0;
  double seconds = 0;
  sim::NetworkStats net;
  double beats_per_sec() const {
    return seconds > 0 ? static_cast<double>(beats) / seconds : 0;
  }
  double ns_per_beat() const {
    return beats > 0 ? seconds * 1e9 / static_cast<double>(beats) : 0;
  }
};

// Sized so every configuration moves ~2M beats: the 100k run is ~20
// rounds, the 1k run ~2000 — enough for the rate to stabilise without
// the small sizes dominating wall time.
std::uint64_t steady_rounds(int n) {
  return std::max<std::uint64_t>(20, 2'000'000 / static_cast<unsigned>(n));
}

SteadyResult steady_state_scale(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Static, n, 42)};
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  cluster.run_until(static_cast<sim::Time>(steady_rounds(n)) * kTmax + 1);
  SteadyResult r;
  r.seconds = seconds_since(start);
  r.rounds = cluster.stats().rounds;
  r.beats = cluster.stats().beats;
  r.net = cluster.network_stats();
  return r;
}

struct MonitoredResult {
  SteadyResult steady;
  std::uint64_t monitor_events = 0;  ///< sum of the sinks' events_seen
  std::size_t violations = 0;
  double up_fraction = 1.0;
};

// The same steady-state run with the full rv monitor stack attached
// (requirement + suspicion + availability). The delta against the
// plain run is the runtime-verification overhead; a clean run must
// report zero violations and full availability.
MonitoredResult steady_state_scale_monitored(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Static, n, 42)};

  rv::RequirementMonitor::Config monitor_config;
  monitor_config.variant = hb::Variant::Static;
  monitor_config.timing = proto::Timing{kTmin, kTmax};
  monitor_config.participants = n;
  const auto bounds = rv::MonitorBounds::defaults(monitor_config.timing,
                                                  monitor_config.variant, true);
  rv::RequirementMonitor requirements{monitor_config, bounds};
  requirements.attach(cluster);
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = hb::Variant::Static;
  suspicion_config.timing = monitor_config.timing;
  suspicion_config.participants = n;
  rv::SuspicionMonitor suspicion{suspicion_config, bounds};
  suspicion.attach(cluster);
  rv::AvailabilityStats availability{n};
  cluster.add_sink(&availability);

  const sim::Time horizon =
      static_cast<sim::Time>(steady_rounds(n)) * kTmax + 1;
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  cluster.run_until(horizon);
  cluster.sinks().finish(horizon);
  MonitoredResult r;
  r.steady.seconds = seconds_since(start);
  r.steady.rounds = cluster.stats().rounds;
  r.steady.beats = cluster.stats().beats;
  r.steady.net = cluster.network_stats();
  r.monitor_events = requirements.events_seen() + suspicion.events_seen() +
                     availability.events_seen();
  r.violations = requirements.violations().size() +
                 suspicion.violations().size();
  r.up_fraction = availability.summary().up_fraction();
  return r;
}

SteadyResult steady_state_legacy(int n, std::uint64_t rounds) {
  hb::Cluster cluster{scale_config(hb::Variant::Static, n, 42)};
  std::uint64_t beats = 0;
  std::uint64_t round_count = 0;
  cluster.on_protocol_event([&](const hb::ProtocolEvent& e) {
    if (e.kind == hb::ProtocolEvent::Kind::CoordinatorBeat) {
      ++round_count;
      beats += e.fanout;
    }
  });
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  cluster.run_until(static_cast<sim::Time>(rounds) * kTmax + 1);
  SteadyResult r;
  r.seconds = seconds_since(start);
  r.rounds = round_count;
  r.beats = beats;
  r.net = cluster.network_stats();
  return r;
}

struct DetectResult {
  int runs = 0;
  int detected = 0;
  sim::Time p50 = 0;
  sim::Time p99 = 0;
  sim::Time max = 0;
  double seconds = 0;
};

DetectResult detection_latency(int n, int runs) {
  std::vector<sim::Time> delays;
  const auto start = std::chrono::steady_clock::now();
  for (int seed = 1; seed <= runs; ++seed) {
    hb::ScaleCluster cluster{
        scale_config(hb::Variant::Static, n, static_cast<std::uint64_t>(seed))};
    const int victim = 1 + (seed * 7919) % n;
    const sim::Time crash_at = 2 * kTmax + (seed * 37) % (3 * kTmax);
    cluster.crash_participant_at(victim, crash_at);
    cluster.start();
    cluster.run_until(crash_at + 20 * kTmax);
    if (cluster.coordinator_inactivated_at() == hb::kNever) continue;
    delays.push_back(cluster.coordinator_inactivated_at() - crash_at);
  }
  DetectResult r;
  r.seconds = seconds_since(start);
  r.runs = runs;
  r.detected = static_cast<int>(delays.size());
  if (!delays.empty()) {
    std::sort(delays.begin(), delays.end());
    r.p50 = delays[(delays.size() - 1) * 50 / 100];
    r.p99 = delays[(delays.size() - 1) * 99 / 100];
    r.max = delays.back();
  }
  return r;
}

struct JoinStormResult {
  int joined = 0;
  sim::Time sim_time = 0;
  double seconds = 0;
  std::uint64_t replies = 0;
};

// Every member starts unjoined (expanding variant) and join-beats every
// tmin until the coordinator's heartbeat confirms it.
JoinStormResult join_storm(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Expanding, n, 7)};
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  sim::Time horizon = 0;
  while (cluster.member_count() < n && horizon < 100 * kTmax) {
    horizon += kTmax;
    cluster.run_until(horizon);
  }
  JoinStormResult r;
  r.seconds = seconds_since(start);
  r.joined = cluster.member_count();
  r.sim_time = horizon;
  r.replies = cluster.stats().replies;
  return r;
}

struct ChurnResult {
  int leaves = 0;
  int members = 0;
  std::uint64_t beats = 0;
  double seconds = 0;
};

// Dynamic variant: everyone joins, then 1% of the cluster leaves at
// staggered instants and gracefully rejoins a few rounds later.
ChurnResult churn_wave(int n) {
  hb::ScaleCluster cluster{scale_config(hb::Variant::Dynamic, n, 11)};
  const int leavers = std::max(1, n / 100);
  const sim::Time settled = 20 * kTmax;
  for (int i = 0; i < leavers; ++i) {
    const int id = 1 + (i * 97) % n;
    const sim::Time leave_at = settled + (i % 10) * kTmax;
    cluster.leave_at(id, leave_at);
    // The leave lands at the reply to the next beat; the rejoin waits
    // out the graceful window with slack so none are dropped as races.
    cluster.rejoin_at(id, leave_at + 6 * kTmax);
  }
  const auto start = std::chrono::steady_clock::now();
  cluster.start();
  cluster.run_until(settled + 40 * kTmax);
  ChurnResult r;
  r.seconds = seconds_since(start);
  r.leaves = leavers;
  r.members = cluster.member_count();
  r.beats = cluster.stats().beats;
  return r;
}

int detection_runs(int n) { return n >= 100'000 ? 10 : n >= 10'000 ? 20 : 50; }

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_plain_args(argc, argv, "nodes");
  std::vector<int> sizes{1'000, 10'000, 100'000};
  if (args.count > 0) sizes = {args.count};

  if (!args.json) {
    std::printf("== Cluster-scale heartbeat engine (static protocol, "
                "tmin=%lld tmax=%lld, lossless, in-spec delays) ==\n\n",
                static_cast<long long>(kTmin), static_cast<long long>(kTmax));
    std::printf("%9s %8s %12s %14s %10s  %s\n", "n", "rounds", "beats",
                "beats/sec", "ns/beat", "detect p50/p99/max (ticks)");
  }

  double scale_bps_10k = 0;
  for (const int n : sizes) {
    const auto steady = steady_state_scale(n);
    if (n == 10'000) scale_bps_10k = steady.beats_per_sec();
    const auto monitored = steady_state_scale_monitored(n);
    const double overhead_pct =
        steady.beats_per_sec() > 0
            ? (1.0 - monitored.steady.beats_per_sec() / steady.beats_per_sec()) *
                  100.0
            : 0;
    const double monitor_ns_per_event =
        monitored.monitor_events > 0
            ? std::max(0.0, monitored.steady.seconds - steady.seconds) * 1e9 /
                  static_cast<double>(monitored.monitor_events)
            : 0;
    const auto detect = detection_latency(n, detection_runs(n));
    if (args.json) {
      std::printf(
          "{\"bench\": \"cluster_scale/steady_n%d\", \"participants\": %d, "
          "\"rounds\": %llu, \"beats\": %llu, \"seconds\": %.3f, "
          "\"beats_per_sec\": %.0f, \"ns_per_beat\": %.1f, %s}\n",
          n, n, static_cast<unsigned long long>(steady.rounds),
          static_cast<unsigned long long>(steady.beats), steady.seconds,
          steady.beats_per_sec(), steady.ns_per_beat(),
          bench::network_stats_fields(steady.net).c_str());
      std::printf(
          "{\"bench\": \"cluster_scale/steady_monitored_n%d\", "
          "\"participants\": %d, \"rounds\": %llu, \"beats\": %llu, "
          "\"seconds\": %.3f, \"beats_per_sec\": %.0f, \"ns_per_beat\": %.1f, "
          "\"monitor_events\": %llu, \"monitor_ns_per_event\": %.1f, "
          "\"monitor_overhead_pct\": %.1f, \"violations\": %zu, "
          "\"availability_up_fraction\": %.4f}\n",
          n, n, static_cast<unsigned long long>(monitored.steady.rounds),
          static_cast<unsigned long long>(monitored.steady.beats),
          monitored.steady.seconds, monitored.steady.beats_per_sec(),
          monitored.steady.ns_per_beat(),
          static_cast<unsigned long long>(monitored.monitor_events),
          monitor_ns_per_event, overhead_pct, monitored.violations,
          monitored.up_fraction);
      std::printf(
          "{\"bench\": \"cluster_scale/detect_n%d\", \"participants\": %d, "
          "\"runs\": %d, \"detected\": %d, \"p50\": %lld, \"p99\": %lld, "
          "\"max\": %lld, \"seconds\": %.3f}\n",
          n, n, detect.runs, detect.detected,
          static_cast<long long>(detect.p50),
          static_cast<long long>(detect.p99),
          static_cast<long long>(detect.max), detect.seconds);
    } else {
      std::printf("%9d %8llu %12llu %14.0f %10.1f  %lld/%lld/%lld\n", n,
                  static_cast<unsigned long long>(steady.rounds),
                  static_cast<unsigned long long>(steady.beats),
                  steady.beats_per_sec(), steady.ns_per_beat(),
                  static_cast<long long>(detect.p50),
                  static_cast<long long>(detect.p99),
                  static_cast<long long>(detect.max));
      std::printf("%9s %8s %12s %14.0f %10.1f  rv on: %.1f%% overhead, "
                  "%.1f ns/event, %zu violation(s)\n",
                  "", "", "", monitored.steady.beats_per_sec(),
                  monitored.steady.ns_per_beat(), overhead_pct,
                  monitor_ns_per_event, monitored.violations);
    }
  }

  // Legacy baseline at 10k (skipped when a single other size was asked
  // for): same protocol work on hb::Cluster (per-node objects on
  // sim::Simulator and sim::Network).
  if (std::find(sizes.begin(), sizes.end(), 10'000) != sizes.end()) {
    const auto legacy = steady_state_legacy(10'000, 10);
    const double speedup = legacy.beats > 0 && scale_bps_10k > 0
                               ? scale_bps_10k / legacy.beats_per_sec()
                               : 0;
    if (args.json) {
      std::printf(
          "{\"bench\": \"cluster_scale/legacy_n10000\", \"participants\": "
          "10000, \"rounds\": %llu, \"beats\": %llu, \"seconds\": %.3f, "
          "\"beats_per_sec\": %.0f, \"speedup\": %.1f}\n",
          static_cast<unsigned long long>(legacy.rounds),
          static_cast<unsigned long long>(legacy.beats), legacy.seconds,
          legacy.beats_per_sec(), speedup);
    } else {
      std::printf("\nlegacy hb::Cluster at n=10000: %.0f beats/sec "
                  "(scale engine: %.0f, %.1fx)\n",
                  legacy.beats_per_sec(), scale_bps_10k, speedup);
    }
  }

  // Membership churn at the largest measured size.
  const int n = sizes.back();
  const auto storm = join_storm(n);
  const auto churn = churn_wave(n);
  if (args.json) {
    std::printf(
        "{\"bench\": \"cluster_scale/join_storm_n%d\", \"participants\": %d, "
        "\"joined\": %d, \"sim_ticks\": %lld, \"join_replies\": %llu, "
        "\"seconds\": %.3f}\n",
        n, n, storm.joined, static_cast<long long>(storm.sim_time),
        static_cast<unsigned long long>(storm.replies), storm.seconds);
    std::printf(
        "{\"bench\": \"cluster_scale/churn_n%d\", \"participants\": %d, "
        "\"leavers\": %d, \"members_after\": %d, \"beats\": %llu, "
        "\"seconds\": %.3f}\n",
        n, n, churn.leaves, churn.members,
        static_cast<unsigned long long>(churn.beats), churn.seconds);
  } else {
    std::printf("\njoin storm  n=%d: %d joined in %lld sim ticks "
                "(%.3fs wall)\n",
                n, storm.joined, static_cast<long long>(storm.sim_time),
                storm.seconds);
    std::printf("churn wave  n=%d: %d left+rejoined, %d members after "
                "(%.3fs wall)\n",
                n, churn.leaves, churn.members, churn.seconds);
  }
  return 0;
}
