// The four workloads: what each sets up, what its timed pass does, and
// the correctness gate every operation of the pass must clear. See
// perfbench/README.md for why each workload exists and which layer it
// stresses.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>

#include "bench.hpp"
#include "chaos/campaign.hpp"
#include "inputs.hpp"
#include "mc/explorer.hpp"
#include "models/heartbeat_model.hpp"
#include "proto/timing.hpp"
#include "rv/integrity.hpp"
#include "rvtools.hpp"

namespace perfbench {

using namespace ahb;

namespace {

/// Seed-driven Fisher-Yates (std::shuffle's algorithm is not fixed by
/// the standard, so inputs would differ between standard libraries).
template <typename T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = mix64(seed + i) % i;
    std::swap(items[i - 1], items[j]);
  }
}

// ---------------------------------------------------------------------
// mc_exhaustive / mc_reduced: R1-R3 verification of the unfixed static
// protocol, n = 2, Collapse store, sequential explorer. mc_exhaustive
// checks (6,7) unreduced; mc_reduced five points at tmax = 7 with
// symmetry and POR, tmin in {1,2,3,6,7}: Table 1's row of five points
// scaled down from tmax = 10, with the same verdicts. The parallel
// explorer is measured in the traced run (mc.parallel_speedup,
// mc.cpu_util): on a few shared vCPUs, the wall time of nproc busy
// threads follows the host's load more than the program.
// ---------------------------------------------------------------------

constexpr int kMcParticipants = 2;

struct McJob {
  int tmin = 0;
  int requirement = 0;  ///< 1, 2 or 3
};

/// Interned-state counts of every complete search, pinned at the
/// commit that introduced this benchmark. Key: (reduced, tmin, R); the
/// unreduced searches are at tmax = 7, and so are the reduced ones.
const std::map<std::tuple<bool, int, int>, std::uint64_t>& pinned_states() {
  static const std::map<std::tuple<bool, int, int>, std::uint64_t> pins = {
      {{false, 6, 1}, 2'112'876},
      {{false, 6, 2}, 95'330},
      {{false, 6, 3}, 95'330},
      {{true, 1, 2}, 10'158},     {{true, 1, 3}, 10'158},
      {{true, 2, 2}, 7'417},      {{true, 2, 3}, 7'417},
      {{true, 3, 2}, 14'056},     {{true, 3, 3}, 14'056},
      {{true, 6, 1}, 209'677},    {{true, 6, 2}, 6'945},
      {{true, 6, 3}, 6'945},      {{true, 7, 1}, 394'210},
  };
  return pins;
}

/// A search's laps: this many new states, each 1-3 ms on one core.
constexpr std::uint64_t kSearchLapStates = 1024;

class McWorkload final : public Workload {
 public:
  McWorkload(const Options& options, bool reduced, int tmax,
             std::vector<int> tmins)
      : reduced_(reduced),
        tmax_(tmax),
        check_fixed_(options.canary == "fixed-expectation") {
    for (const int tmin : tmins) {
      for (int r = 1; r <= 3; ++r) jobs_.push_back({tmin, r});
    }
    seeded_shuffle(jobs_, options.seed);
  }

  void setup() override {
    points_.clear();
    for (const McJob& job : jobs_) {
      if (points_.count(job.tmin) != 0) continue;
      Point& point = points_[job.tmin];
      for (const bool watchdog : {true, false}) {
        models::BuildOptions build;
        build.timing = {job.tmin, tmax_};
        build.participants = kMcParticipants;
        build.r1_monitor = watchdog;
        const auto start = Clock::now();
        auto model = [&] {
          Span span("models.HeartbeatModel::build");
          return std::make_unique<models::HeartbeatModel>(
              models::HeartbeatModel::build(models::Flavor::Static, build));
        }();
        build_s_.push_back(seconds_since(start));
        auto explorer = std::make_unique<mc::Explorer>(model->net());
        if (watchdog) {
          point.r1 = model->r1_violation();
          point.watchdog = std::move(model);
          point.watchdog_explorer = std::move(explorer);
        } else {
          point.r2 = model->r2_violation_any();
          point.r3 = model->r3_violation();
          point.plain = std::move(model);
          point.plain_explorer = std::move(explorer);
        }
      }
    }
  }

  PassResult run_pass() override {
    PassResult pass;
    last_ = {};
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    for (const McJob& job : jobs_) {
      Point& point = points_.at(job.tmin);
      mc::SearchLimits limits;
      limits.threads = threads_;
      limits.compression = ta::Compression::Collapse;
      if (reduced_) {
        limits.symmetry = ta::Symmetry::Participants;
        limits.por = true;
      }
      static const char* const kSpan[] = {"", "mc.Explorer::reach(R1)",
                                          "mc.Explorer::reach(R2)",
                                          "mc.Explorer::reach(R3)"};
      mc::Explorer& explorer = job.requirement == 1 ? *point.watchdog_explorer
                                                    : *point.plain_explorer;
      const mc::Pred& target = job.requirement == 1   ? point.r1
                               : job.requirement == 2 ? point.r2
                                                      : point.r3;
      const auto search_start = Clock::now();
      mc::SearchResult result;
      {
        // The explorer calls the goal predicate once for each new state,
        // in a fixed order on the sequential explorer. Parallel workers
        // would call it concurrently: a parallel search is one lap.
        Laps laps(pass.ops, kSearchLapStates);
        const mc::Pred timed = [&](const ta::StateView& state) {
          laps.tick();
          return target(state);
        };
        Span span(kSpan[job.requirement]);
        result = explorer.reach(threads_ == 1 ? timed : target, limits);
        laps.finish();
      }
      last_.reach_s[job.requirement] += seconds_since(search_start);

      const auto& stats = result.stats;
      const bool holds = !result.found;
      ++pass.attempted;
      if (!gate(job, result)) ++pass.failed;
      pass.digest.add(static_cast<std::uint64_t>(job.tmin));
      pass.digest.add(static_cast<std::uint64_t>(job.requirement));
      pass.digest.add(holds);
      pass.digest.add(result.complete ? stats.states : 0);

      pass.work += static_cast<double>(stats.states);
      last_.states += stats.states;
      last_.transitions += stats.transitions;
      last_.fused += stats.fused;
      last_.depth = std::max(last_.depth, stats.depth);
      if (stats.states > last_.largest_states) {
        last_.largest_states = stats.states;
        last_.largest_bytes = stats.store_bytes;
      }
    }
    pass.wall_s = seconds_since(start);
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.counts["searches"] = pass.attempted;
    pass.counts["states"] = last_.states;
    pass.counts["transitions"] = last_.transitions;
    pass.counts["fused"] = last_.fused;
    return pass;
  }

  const char* work_unit() const override { return "states"; }
  const char* op_name() const override {
    return "lap of 1024 new states of a search";
  }

  void layer_metrics(const PassResult& traced, Metrics& out) override {
    const Last traced_stats = last_;
    put(out, "models.build_s", median(build_s_), "s", build_s_.size());
    put(out, "mc.reach_s.r1", traced_stats.reach_s[1], "s");
    put(out, "mc.reach_s.r2", traced_stats.reach_s[2], "s");
    put(out, "mc.reach_s.r3", traced_stats.reach_s[3], "s");
    put(out, "mc.states", static_cast<double>(traced_stats.states), "count");
    put(out, "mc.transitions", static_cast<double>(traced_stats.transitions),
        "count");
    put(out, "mc.fused", static_cast<double>(traced_stats.fused), "count");
    put(out, "mc.depth", static_cast<double>(traced_stats.depth), "count");
    put(out, "mc.bytes_per_state",
        traced_stats.largest_states > 0
            ? static_cast<double>(traced_stats.largest_bytes) /
                  static_cast<double>(traced_stats.largest_states)
            : 0,
        "B");
    // The same pass on the parallel explorer, nproc threads.
    threads_ = 0;
    const PassResult parallel = run_pass();
    threads_ = 1;
    last_ = traced_stats;
    const unsigned threads = hardware_threads();
    put(out, "mc.cpu_util", parallel.cpu_s / (parallel.wall_s * threads),
        "ratio");
    put(out, "mc.parallel_speedup", traced.wall_s / parallel.wall_s, "ratio");
    if (parallel.failed != 0 || parallel.digest.value != traced.digest.value) {
      failures.push_back("parallel explorer disagrees with the sequential one");
    }
  }

 private:
  struct Point {
    std::unique_ptr<models::HeartbeatModel> watchdog;
    std::unique_ptr<models::HeartbeatModel> plain;
    std::unique_ptr<mc::Explorer> watchdog_explorer;
    std::unique_ptr<mc::Explorer> plain_explorer;
    mc::Pred r1, r2, r3;
  };

  /// Statistics of the most recent pass, for the per-layer metrics.
  struct Last {
    double reach_s[4] = {0, 0, 0, 0};
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t fused = 0;
    std::uint64_t depth = 0;
    std::uint64_t largest_states = 0;
    std::size_t largest_bytes = 0;
  };

  /// A verdict must match the paper's Table 1 (or, for the canary, the
  /// fixed protocol's all-T row), a T verdict must come from a complete
  /// search, and a complete search must intern its pinned state count.
  bool gate(const McJob& job, const mc::SearchResult& result) {
    const proto::Timing timing{job.tmin, tmax_};
    const proto::ExpectedVerdicts expected =
        check_fixed_ ? proto::expected_verdicts_fixed(proto::Variant::Static,
                                                      timing)
                     : proto::expected_verdicts(proto::Variant::Static,
                                                timing);
    const bool want = job.requirement == 1   ? expected.r1
                      : job.requirement == 2 ? expected.r2
                                             : expected.r3;
    const bool holds = !result.found;
    char where[64];
    std::snprintf(where, sizeof where, "tmin=%d R%d", job.tmin,
                  job.requirement);
    if (holds != want) {
      failures.push_back(std::string(where) + ": verdict " +
                         (holds ? "T" : "F") + ", expected " +
                         (want ? "T" : "F"));
      return false;
    }
    if (holds && !result.complete) {
      failures.push_back(std::string(where) + ": T from an incomplete search");
      return false;
    }
    if (result.complete) {
      const auto pin =
          pinned_states().find({reduced_, job.tmin, job.requirement});
      if (pin == pinned_states().end()) {
        failures.push_back(std::string(where) + ": no pinned state count (" +
                           std::to_string(result.stats.states) + " states)");
        return false;
      }
      if (pin->second != result.stats.states) {
        failures.push_back(std::string(where) + ": " +
                           std::to_string(result.stats.states) +
                           " states, pinned " + std::to_string(pin->second));
        return false;
      }
    }
    return true;
  }

  bool reduced_;
  int tmax_;
  bool check_fixed_;
  unsigned threads_ = 1;  ///< SearchLimits::threads: 0 = nproc
  std::vector<McJob> jobs_;
  std::map<int, Point> points_;
  std::vector<double> build_s_;
  Last last_;
};

// ---------------------------------------------------------------------
// mission: chaos::run_mission over the seed stream, 10^7 ticks each,
// tmin=4 tmax=10, in-spec multi-phase profile, no payload corruption,
// hand-written monitors plus the shipped pLTL formulas.
// ---------------------------------------------------------------------

/// Seed-1 evidence (fingerprint, events_seen) per variant.
std::pair<std::uint64_t, std::uint64_t> pinned_mission(chaos::Variant v) {
  switch (v) {
    case chaos::Variant::Binary: return {0x8d942da66ca22df3ULL, 1'118'802};
    case chaos::Variant::RevisedBinary: return {0xbb41b158be3e1290ULL, 335'084};
    case chaos::Variant::TwoPhase: return {0xcc848a87e00c2bbcULL, 244'501};
    case chaos::Variant::Static: return {0x0c6c19d3c687468cULL, 199'365};
    case chaos::Variant::Expanding: return {0x8d7f0e5f88742b48ULL, 927'943};
    case chaos::Variant::Dynamic: return {0xa3c06d3b265ab744ULL, 755'185};
  }
  return {0, 0};
}

/// Each identical pass runs missions until it has processed this many
/// monitored events (2.5-4.5 s on one core of a 4-vCPU x86 VM).
constexpr double kMissionEventsPerPass = 9e6;
/// A mission's laps: this many allocations (~1250 monitored events,
/// under a millisecond on one core); see g_allocation_laps.
constexpr std::uint64_t kMissionLapAllocations = 1024;
/// Set-up generates one schedule per this many events of a variant's
/// share of the pass budget. Missions average 200k-1.1M events, so the
/// pool rarely runs out; the pass generates any further schedule itself.
/// A pool sized by the budget alone keeps set-up work the same for
/// every seed.
constexpr double kMissionEventsPerSchedule = 250e3;

class MissionWorkload final : public Workload {
 public:
  explicit MissionWorkload(const Options& options)
      : seed_(options.seed),
        out_of_spec_(options.canary == "out-of-spec-mission"),
        budget_(kMissionEventsPerPass) {
    if (options.canary == "dynamic-only") {
      variants_ = {chaos::Variant::Dynamic};
    } else {
      variants_.assign(std::begin(kMissionVariants),
                       std::end(kMissionVariants));
    }
    pool_ = static_cast<int>(std::ceil(
        budget_ / static_cast<double>(variants_.size()) /
        kMissionEventsPerSchedule));
  }

  void setup() override {
    // The schedules of the pass's missions, generated here and handed to
    // run_mission with generate = false.
    specs_.assign(variants_.size(), {});
    for (std::size_t v = 0; v < variants_.size(); ++v) {
      for (int k = 0; k < pool_; ++k) specs_[v].push_back(generate(v, k));
    }
    // run_mission's own set-up (formula compile, cluster and monitor
    // allocation, schedule_actions) runs at the start of every mission
    // inside the pass; a one-tick mission per variant times it here.
    for (const auto& specs : specs_) {
      chaos::MissionOptions options = specs.front();
      options.spec.horizon = 1;
      Span span("chaos.run_mission(1 tick)");
      chaos::run_mission(options);
    }
  }

  PassResult run_pass() override {
    // A mission runs until its cluster dies, so its work varies tenfold
    // with the seed. The pass therefore processes a fixed number of
    // monitored events: each step runs the next mission of the variant
    // with the fewest events so far, which keeps the variant mix equal
    // by work and overshoots the budget by one mission at most.
    PassResult pass;
    const std::size_t variants = variants_.size();
    std::vector<std::uint64_t> variant_events(variants, 0);
    std::vector<int> next(variants, 0);
    std::uint64_t events = 0;
    std::uint64_t sent = 0, delivered = 0, lost = 0;
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    while (static_cast<double>(events) < budget_ || pass.attempted < variants) {
      const std::size_t v = static_cast<std::size_t>(
          std::min_element(variant_events.begin(), variant_events.end()) -
          variant_events.begin());
      const int k = next[v]++;
      if (static_cast<std::size_t>(k) == specs_[v].size()) {
        specs_[v].push_back(generate(v, k));
      }
      chaos::MissionResult result;
      {
        Laps laps(pass.ops, kMissionLapAllocations);
        Span span("chaos.run_mission");
        g_allocation_laps = &laps;
        result = chaos::run_mission(specs_[v][static_cast<std::size_t>(k)]);
        g_allocation_laps = nullptr;
        laps.finish();
      }
      ++pass.attempted;
      if (!gate(result, k)) ++pass.failed;
      variant_events[v] += result.events_seen;
      events += result.events_seen;
      sent += result.net_stats.sent;
      delivered += result.net_stats.delivered;
      lost += result.net_stats.lost;
      pass.digest.add(result.fingerprint);
      pass.digest.add(result.events_seen);
    }
    pass.wall_s = seconds_since(start);
    pass.cpu_s = cpu_seconds() - cpu0;
    pass.work = static_cast<double>(events);
    // The last mission overshoots the budget by 0-28 %, as the seed has it.
    pass.time_scale = budget_ / pass.work;
    pass.counts["missions"] = pass.attempted;
    pass.counts["events_seen"] = events;
    pass.counts["sent"] = sent;
    pass.counts["delivered"] = delivered;
    pass.counts["lost"] = lost;
    return pass;
  }

  const char* work_unit() const override { return "monitored events"; }
  const char* op_name() const override {
    return "lap of 1024 allocations of a mission";
  }

  void layer_metrics(const PassResult& traced, Metrics& out) override {
    put(out, "sim.sent", static_cast<double>(traced.counts.at("sent")),
        "count");
    put(out, "sim.delivered",
        static_cast<double>(traced.counts.at("delivered")), "count");
    put(out, "sim.lost", static_cast<double>(traced.counts.at("lost")),
        "count");
    put(out, "chaos.events", traced.work, "count");
  }

 private:
  /// Zero violations from the monitors and the formulas, an in-spec
  /// schedule, a balanced integrity book; at the default seed, each
  /// variant's first mission reproduces its pinned fingerprint.
  bool gate(const chaos::MissionResult& result, int k) {
    char where[96];
    std::snprintf(where, sizeof where, "mission seed=%llu %s",
                  static_cast<unsigned long long>(result.spec.seed),
                  proto::to_string(result.spec.variant));
    bool ok = true;
    if (result.violations_total != 0 || result.formula_violations_total != 0) {
      std::string detail;
      for (const auto& violation : result.violations) {
        detail += " R" + std::to_string(violation.requirement) + " node " +
                  std::to_string(violation.node) + " at " +
                  std::to_string(violation.at) + ";";
      }
      failures.push_back(std::string(where) + ": " +
                         std::to_string(result.violations_total) +
                         " monitor / " +
                         std::to_string(result.formula_violations_total) +
                         " formula violation(s)" + detail);
      ok = false;
    }
    if (result.out_of_spec) {
      failures.push_back(std::string(where) + ": schedule is out of spec");
      ok = false;
    }
    if (!result.integrity.fail_safe()) {
      failures.push_back(std::string(where) + ": integrity book unbalanced");
      ok = false;
    }
    const auto pinned = pinned_mission(result.spec.variant);
    if (seed_ == 1 && k == 0 && !out_of_spec_ &&
        (result.fingerprint != pinned.first ||
         result.events_seen != pinned.second)) {
      char detail[128];
      std::snprintf(detail, sizeof detail,
                    ": fingerprint %016llx / %llu events, pinned %016llx / "
                    "%llu",
                    static_cast<unsigned long long>(result.fingerprint),
                    static_cast<unsigned long long>(result.events_seen),
                    static_cast<unsigned long long>(pinned.first),
                    static_cast<unsigned long long>(pinned.second));
      failures.push_back(std::string(where) + detail);
      ok = false;
    }
    return ok;
  }

  /// The k-th mission of variant v, its schedule generated.
  chaos::MissionOptions generate(std::size_t v, int k) const {
    chaos::MissionOptions options =
        mission_options(seed_, k, variants_[v], out_of_spec_);
    Span span("chaos.generate_schedule");
    options.spec.schedule =
        chaos::generate_schedule(options.spec, options.profile);
    options.generate = false;
    return options;
  }

  std::uint64_t seed_;
  bool out_of_spec_;
  double budget_;
  std::vector<chaos::Variant> variants_;
  int pool_;  ///< schedules per variant that set-up generates
  /// Per variant, the generated missions, in order.
  std::vector<std::vector<chaos::MissionOptions>> specs_;
};

// ---------------------------------------------------------------------
// scale: hb::ScaleCluster, static, n = 100,000, in-spec random delay,
// RequirementMonitor + SuspicionMonitor + AvailabilityStats attached;
// steady rounds, then one seeded member crash must be detected.
// ---------------------------------------------------------------------

/// Records the first 700k events of the n = 100k engine (two rounds
/// make ~1.4M) and replays them into each monitor alone: the rv.*
/// per-layer metrics on `scale`.
void scale_slice_metrics(std::uint64_t seed, Metrics& out) {
  Recorder recorder(700'000);
  {
    hb::ScaleCluster cluster(scale_config(seed));
    cluster.add_sink(&recorder);
    cluster.start();
    Span span("hb.ScaleCluster::run_until");
    cluster.run_until(2 * kScaleTmax);
  }
  const auto& stream = recorder.events();
  const hb::Time horizon = recorder.last_time();
  const proto::Timing timing{kScaleTmin, kScaleTmax};
  const auto bounds =
      rv::MonitorBounds::defaults(timing, hb::Variant::Static, true);

  auto measure = [&](const char* name, auto make) {
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
      auto sink = make();
      Span span("rv.replay");
      ns.push_back(replay(stream, sink.get(), horizon) * 1e9 /
                   static_cast<double>(stream.size()));
    }
    put(out, name, median(ns), "ns", ns.size());
  };
  measure("rv.requirement_ns_per_event", [&] {
    return std::make_unique<rv::RequirementMonitor>(
        rv::RequirementMonitor::Config{hb::Variant::Static, timing, true,
                                       kScaleN},
        bounds);
  });
  measure("rv.suspicion_ns_per_event", [&] {
    return std::make_unique<rv::SuspicionMonitor>(
        rv::SuspicionMonitor::Config{hb::Variant::Static, timing, kScaleN},
        bounds);
  });
  measure("rv.availability_ns_per_event",
          [&] { return std::make_unique<rv::AvailabilityStats>(kScaleN); });
  measure("rv.integrity_ns_per_event", [&] {
    return std::make_unique<rv::IntegrityMonitor>(
        rv::IntegrityMonitor::Config{8 * kScaleTmax, 16});
  });
  std::vector<double> empty_ns, one_ns;
  for (int rep = 0; rep < 3; ++rep) {
    Recorder counter(0);
    empty_ns.push_back(replay(stream, nullptr, horizon) * 1e9 /
                       static_cast<double>(stream.size()));
    one_ns.push_back(replay(stream, &counter, horizon) * 1e9 /
                     static_cast<double>(stream.size()));
  }
  put(out, "rv.chain_emit_ns_empty", median(empty_ns), "ns", empty_ns.size());
  put(out, "rv.chain_emit_ns_one", median(one_ns), "ns", one_ns.size());
}

/// Steady rounds of one pass (one round is 60-85 ms at n = 100k on a
/// 4-vCPU x86 VM).
constexpr int kScaleRoundsPerPass = 24;

class ScaleWorkload final : public Workload {
 public:
  explicit ScaleWorkload(const Options& options)
      : seed_(options.seed),
        rounds_(kScaleRoundsPerPass),
        tight_bound_(options.canary == "tight-detection") {
    victim_ = 1 + static_cast<int>(mix64(seed_ ^ 0xC0FFEEULL) % kScaleN);
    crash_at_ = rounds_ * kScaleTmax + 1 +
                static_cast<hb::Time>(mix64(seed_ ^ 0xBEEFULL) %
                                      (kScaleTmax - 1));
  }

  void setup() override {
    monitors_.reset();
    cluster_.reset();
    {
      Span span("hb.ScaleCluster::ScaleCluster");
      cluster_ = std::make_unique<hb::ScaleCluster>(scale_config(seed_));
    }
    Span span("rv.monitors");
    monitors_ = std::make_unique<ScaleMonitors>();
    monitors_->attach(*cluster_);
    cluster_->crash_participant_at(victim_, crash_at_);
  }

  PassResult run_pass() override {
    PassResult pass;
    hb::ScaleCluster& cluster = *cluster_;
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    cluster.start();
    std::uint64_t rounds_failed = 0;
    for (int r = 1; r <= rounds_; ++r) {
      const auto round_start = Clock::now();
      const double round_cpu0 = cpu_seconds();
      {
        Span span("hb.ScaleCluster::run_until");
        cluster.run_until(r * kScaleTmax);
      }
      const double round_s = seconds_since(round_start);
      pass.ops.push_back({round_s, cpu_seconds() - round_cpu0});
      // Lossless steady state: p[0] beats every member once per round;
      // run_until(r tmax) covers the rounds starting at 0 .. (r-1) tmax.
      const std::uint64_t want = static_cast<std::uint64_t>(r) * kScaleN;
      if (cluster.stats().beats != want) ++rounds_failed;
    }
    const std::uint64_t steady_beats = cluster.stats().beats;

    // The seeded crash: step round by round until p[0] detects it.
    const hb::Time allowance = kScaleTmin;  // one in-flight delivery
    const hb::Time bound =
        tight_bound_ ? kScaleTmin
                     : proto::coordinator_detection_bound(
                           proto::Timing{kScaleTmin, kScaleTmax}) +
                           allowance;
    hb::Time t = rounds_ * kScaleTmax;
    while (cluster.coordinator_status() == hb::Status::Active &&
           t < crash_at_ + bound + 2 * kScaleTmax) {
      t += kScaleTmax;
      Span span("hb.ScaleCluster::run_until");
      cluster.run_until(t);
    }
    cluster.sinks().finish(cluster.now());
    pass.wall_s = seconds_since(start);
    pass.cpu_s = cpu_seconds() - cpu0;

    const hb::Time inactivated = cluster.coordinator_inactivated_at();
    const hb::Time detection =
        inactivated == hb::kNever ? hb::kNever : inactivated - crash_at_;
    const std::size_t violations = monitors_->violations();
    pass.attempted = static_cast<std::uint64_t>(rounds_) + 1;
    pass.failed = rounds_failed;
    if (rounds_failed != 0) {
      failures.push_back(std::to_string(rounds_failed) +
                         " round(s) with an inexact beat count");
    }
    if (detection == hb::kNever || detection > bound || violations != 0) {
      ++pass.failed;
      failures.push_back(
          "crash of member " + std::to_string(victim_) + " at " +
          std::to_string(crash_at_) + ": detection " +
          (detection == hb::kNever ? std::string("never")
                                   : std::to_string(detection)) +
          " ticks (bound " + std::to_string(bound) + "), " +
          std::to_string(violations) + " monitor violation(s)");
    }
    pass.work = static_cast<double>(steady_beats);
    pass.digest.add(steady_beats);
    pass.digest.add(static_cast<std::uint64_t>(detection));
    pass.digest.add(cluster.network_stats().delivered);
    pass.counts["rounds"] = static_cast<std::uint64_t>(rounds_);
    pass.counts["beats"] = steady_beats;
    pass.counts["detection_ticks"] = static_cast<std::uint64_t>(detection);
    pass.counts["monitor_events"] = monitors_->events_seen();
    pass.counts["sent"] = cluster.network_stats().sent;
    pass.counts["delivered"] = cluster.network_stats().delivered;
    pass.counts["lost"] = cluster.network_stats().lost;
    return pass;
  }

  const char* work_unit() const override { return "beats"; }
  const char* op_name() const override { return "coordinator round"; }

  void layer_metrics(const PassResult& traced, Metrics& out) override {
    put(out, "sim.sent", static_cast<double>(traced.counts.at("sent")),
        "count");
    put(out, "sim.delivered",
        static_cast<double>(traced.counts.at("delivered")), "count");
    put(out, "sim.lost", static_cast<double>(traced.counts.at("lost")),
        "count");
    scale_slice_metrics(seed_, out);
  }

 private:
  std::uint64_t seed_;
  int rounds_;
  bool tight_bound_;
  int victim_ = 1;
  hb::Time crash_at_ = 0;
  // The monitors are sinks of the cluster: declared after it, they are
  // destroyed before it (setup() resets them in the same order).
  std::unique_ptr<hb::ScaleCluster> cluster_;
  std::unique_ptr<ScaleMonitors> monitors_;
};

}  // namespace

bool known_workload(const std::string& name) {
  return name == "mc_exhaustive" || name == "mc_reduced" ||
         name == "mission" || name == "scale";
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "mc_exhaustive") {
    return std::make_unique<McWorkload>(options, false, 7, std::vector<int>{6});
  }
  if (options.workload == "mc_reduced") {
    // The canary checks one unfixed Table-1 cell against the fixed row.
    if (options.canary == "fixed-expectation") {
      return std::make_unique<McWorkload>(options, true, 7,
                                          std::vector<int>{1});
    }
    return std::make_unique<McWorkload>(options, true, 7,
                                        std::vector<int>{1, 2, 3, 6, 7});
  }
  if (options.workload == "mission") {
    return std::make_unique<MissionWorkload>(options);
  }
  if (options.workload == "scale") {
    return std::make_unique<ScaleWorkload>(options);
  }
  return nullptr;
}

std::unique_ptr<Workload> make_mc_reference(const Options& options) {
  return std::make_unique<McWorkload>(options, true, 7, std::vector<int>{6});
}

}  // namespace perfbench
