// Chaos campaign harness: sweeps seeded fault schedules across all
// variants, checks the R1–R3 runtime monitors on every run, and
// delta-debugs any violating schedule to a minimal replayable artifact.
//
//   bench_chaos_campaign [--json] [--runs=N] [--threads=N]
//                        [--participants=N] [--out-of-spec] [--no-shrink]
//                        [--artifacts=DIR] [--replay=FILE] [--formulas]
//                        [--mission] [--ticks=N] [--corrupt=P]
//
// The default (in-spec) campaign keeps every fault inside the channel
// assumptions, so any reported violation is a real protocol bug and the
// process exits nonzero. --out-of-spec runs the negative control:
// delay/drift injection beyond the spec, where the monitors are
// *expected* to fire (exit is nonzero if they stay silent). --replay
// re-executes one serialized schedule and reports its violations.
// --mission runs one long-mission chaos run per variant (--ticks long,
// multi-phase setup/storm/recovery schedule, payload corruption armed
// at --corrupt) and reports integrity counters plus the wall seconds
// each simulated hour (3.6M ticks) costs. --formulas attaches the
// shipped pLTL monitors (r1/r2/r3/s2) next to the hand-written ones and
// reports their verdict counters; the default output is unchanged.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <chrono>

#include "chaos/campaign.hpp"
#include "chaos/mission.hpp"
#include "chaos/runner.hpp"
#include "rv/pltl/formulas.hpp"
#include "rv/suspicion.hpp"

namespace {

using namespace ahb;

struct Args {
  bool json = false;
  bool out_of_spec = false;
  bool shrink = true;
  bool mission = false;
  bool formulas = false;
  int runs = 30;
  int participants = 2;
  unsigned threads = 1;
  long long ticks = 10'000'000;
  double corrupt = 0.0;
  std::string artifacts_dir;
  std::string replay_file;
};

/// This binary's own flags only: the model-checker knobs of the table
/// benches (--compression, --symmetry, --por, --max-states) mean
/// nothing to a chaos run.
Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--json") == 0) {
      args.json = true;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      const int threads = std::atoi(arg + 10);
      if (threads > 0) args.threads = static_cast<unsigned>(threads);
    } else if (std::strcmp(arg, "--out-of-spec") == 0) {
      args.out_of_spec = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      args.shrink = false;
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      args.runs = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--participants=", 15) == 0) {
      args.participants = std::atoi(arg + 15);
    } else if (std::strncmp(arg, "--artifacts=", 12) == 0) {
      args.artifacts_dir = arg + 12;
    } else if (std::strncmp(arg, "--replay=", 9) == 0) {
      args.replay_file = arg + 9;
    } else if (std::strcmp(arg, "--mission") == 0) {
      args.mission = true;
    } else if (std::strcmp(arg, "--formulas") == 0) {
      args.formulas = true;
    } else if (std::strncmp(arg, "--ticks=", 8) == 0) {
      args.ticks = std::atoll(arg + 8);
    } else if (std::strncmp(arg, "--corrupt=", 10) == 0) {
      args.corrupt = std::atof(arg + 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json] [--threads=N] [--runs=N] "
                   "[--participants=N] [--out-of-spec] [--no-shrink] "
                   "[--artifacts=DIR] [--replay=FILE] [--formulas] "
                   "[--mission] [--ticks=N] [--corrupt=P]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return args;
}

int replay(const Args& args) {
  std::ifstream in(args.replay_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", args.replay_file.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  const auto spec = chaos::parse_run(text.str());
  if (!spec) {
    std::fprintf(stderr, "malformed schedule in %s\n",
                 args.replay_file.c_str());
    return 2;
  }
  const chaos::RunResult result = chaos::run_chaos(*spec);
  for (const auto& violation : result.violations) {
    std::printf("violation R%d node %d at %" PRId64 " (deadline %" PRId64
                "): %s\n",
                violation.requirement, violation.node, violation.at,
                violation.deadline, violation.detail.c_str());
  }
  std::printf("%s replay: %zu violation(s), %s schedule\n",
              args.replay_file.c_str(), result.violations.size(),
              result.out_of_spec ? "out-of-spec" : "in-spec");
  return 0;
}

void write_artifacts(const Args& args, const chaos::CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(args.artifacts_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.artifacts_dir.c_str(),
                 ec.message().c_str());
    return;
  }
  int index = 0;
  for (const auto& violating : result.violating) {
    char path[512];
    std::snprintf(path, sizeof path, "%s/chaos_violation_%03d.jsonl",
                  args.artifacts_dir.c_str(), index++);
    std::ofstream out(path);
    out << violating.artifact;
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", path);
      continue;
    }
    std::printf("wrote %s (%zu action(s))\n", path,
                violating.shrunk.schedule.actions.size());
  }
}

// Direct measurement of the monitors' per-event cost: record one
// representative faulty run's protocol events, then stream them through
// a fresh monitor stack in a timed loop. The denominator is the sum of
// the sinks' events_seen — the events that got past the interest masks.
double measure_monitor_ns_per_event(int participants) {
  chaos::RunSpec spec;
  spec.variant = chaos::Variant::Dynamic;
  spec.tmin = 4;
  spec.tmax = 10;
  spec.participants = participants;
  spec.seed = 5;
  spec.horizon = 2000;
  spec.schedule.actions = {
      {chaos::FaultKind::CrashParticipant, 100, 1, 0, 0, 0, 0, 0, 0},
  };
  const chaos::RunResult recorded = chaos::run_chaos(spec, nullptr,
                                                     /*record_trace=*/false,
                                                     /*record_events=*/true);
  if (recorded.events.empty()) return 0;

  rv::RequirementMonitor::Config monitor_config;
  monitor_config.variant = spec.variant;
  monitor_config.timing = spec.timing();
  monitor_config.fixed_bounds = spec.fixed_bounds;
  monitor_config.participants = spec.participants;
  rv::SuspicionMonitor::Config suspicion_config;
  suspicion_config.variant = spec.variant;
  suspicion_config.timing = spec.timing();
  suspicion_config.participants = spec.participants;
  const rv::MonitorBounds bounds = rv::MonitorBounds::defaults(
      spec.timing(), spec.variant, spec.fixed_bounds);

  constexpr int kReps = 500;
  std::uint64_t events = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kReps; ++rep) {
    rv::RequirementMonitor requirements{monitor_config, bounds};
    rv::SuspicionMonitor suspicion{suspicion_config, bounds};
    rv::AvailabilityStats availability{spec.participants};
    rv::SinkChain chain;
    chain.add(&requirements);
    chain.add(&suspicion);
    chain.add(&availability);
    for (const auto& event : recorded.events) chain.emit(event);
    chain.finish(spec.horizon);
    events += requirements.events_seen() + suspicion.events_seen() +
              availability.events_seen();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return events > 0 ? seconds * 1e9 / static_cast<double>(events) : 0;
}

constexpr double kTicksPerSimHour = 3'600'000.0;

// One long mission per variant: multi-phase generated schedule, all
// monitors streaming, corruption armed when requested. Exits nonzero if
// any in-spec mission reports a violation or fails the integrity
// fail-safe check (corrupted payloads must all be rejected).
int run_missions(const Args& args) {
  constexpr chaos::Variant kVariants[] = {
      chaos::Variant::Binary,   chaos::Variant::RevisedBinary,
      chaos::Variant::TwoPhase, chaos::Variant::Static,
      chaos::Variant::Expanding, chaos::Variant::Dynamic,
  };
  int exit_code = 0;
  for (const chaos::Variant variant : kVariants) {
    chaos::MissionOptions options;
    if (args.formulas) options.formulas = rv::pltl::shipped_monitor_specs();
    options.spec.variant = variant;
    options.spec.tmin = 4;
    options.spec.tmax = 10;
    options.spec.participants =
        proto::variant_is_multi(variant) ? args.participants : 1;
    options.spec.seed = 1;
    options.spec.horizon = static_cast<chaos::Time>(args.ticks);
    options.profile.cycles =
        static_cast<int>(std::max<long long>(args.ticks / 1'000'000, 1));
    options.profile.corrupt = args.corrupt;

    const auto start = std::chrono::steady_clock::now();
    const chaos::MissionResult result = chaos::run_mission(options);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double wall_s_per_sim_hour =
        wall_s * kTicksPerSimHour / static_cast<double>(args.ticks);

    const auto& integ = result.integrity;
    const bool clean = result.violations_total == 0 &&
                       result.formula_violations_total == 0 &&
                       integ.fail_safe();
    if (!result.out_of_spec && !clean) exit_code = 1;
    // Extra fields only when --formulas was passed, so the default
    // output stays byte-identical.
    char formula_json[64] = "";
    char formula_text[64] = "";
    if (args.formulas) {
      std::snprintf(formula_json, sizeof formula_json,
                    ", \"formula_violations\": %" PRIu64,
                    result.formula_violations_total);
      std::snprintf(formula_text, sizeof formula_text,
                    ", %" PRIu64 " formula violation(s)",
                    result.formula_violations_total);
    }
    if (args.json) {
      std::printf(
          "{\"bench\": \"chaos/mission\", \"variant\": \"%s\", "
          "\"ticks\": %" PRId64 ", \"violations\": %" PRIu64
          ", \"out_of_spec\": %s, \"corrupted\": %" PRIu64
          ", \"corrupted_delivered\": %" PRIu64 ", \"rejected\": %" PRIu64
          ", \"accepted\": %" PRIu64 ", \"spurious_rejections\": %" PRIu64
          ", \"integrity_high_water\": %zu, \"checkpoints\": %zu%s"
          ", \"fingerprint\": \"%016" PRIx64
          "\", \"wall_s_per_sim_hour\": %.3f}\n",
          proto::to_string(variant), result.spec.horizon,
          result.violations_total, result.out_of_spec ? "true" : "false",
          integ.corrupted, integ.corrupted_delivered, integ.rejected_corrupted,
          integ.accepted, integ.spurious_rejections,
          result.integrity_high_water, result.checkpoints.size(), formula_json,
          result.fingerprint, wall_s_per_sim_hour);
    } else {
      std::printf("mission %-13s %" PRId64 " ticks: %" PRIu64
                  " violation(s)%s, %" PRIu64 " corrupted / %" PRIu64
                  " rejected / %" PRIu64
                  " accepted, fingerprint %016" PRIx64
                  ", %.3f wall s per sim hour\n",
                  proto::to_string(variant), result.spec.horizon,
                  result.violations_total, formula_text, integ.corrupted,
                  integ.rejected_corrupted, integ.accepted, result.fingerprint,
                  wall_s_per_sim_hour);
    }
    for (const auto& violation : result.violations) {
      std::printf("violation R%d node %d at %" PRId64 ": %s\n",
                  violation.requirement, violation.node, violation.at,
                  violation.detail.c_str());
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.replay_file.empty()) return replay(args);
  if (args.mission) return run_missions(args);

  chaos::CampaignOptions options;
  options.runs_per_config = args.runs;
  options.participants = args.participants;
  options.out_of_spec = args.out_of_spec;
  options.threads = args.threads;
  options.shrink = args.shrink;
  if (args.formulas) options.formulas = rv::pltl::shipped_monitor_specs();

  const auto campaign_start = std::chrono::steady_clock::now();
  const chaos::CampaignResult result = chaos::run_campaign(options);
  const double campaign_wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    campaign_start)
          .count();
  const double wall_s_per_sim_hour =
      result.sim_ticks > 0 ? campaign_wall_s * kTicksPerSimHour /
                                 static_cast<double>(result.sim_ticks)
                           : 0;
  const char* profile = args.out_of_spec ? "out-of-spec" : "in-spec";
  const double monitor_ns = measure_monitor_ns_per_event(args.participants);
  const auto& avail = result.availability;
  const double detection_mean = avail.detection_mean();

  // Extra fields only when --formulas was passed, so the default output
  // stays byte-identical (and so does the campaign fingerprint: formula
  // verdicts are aggregated apart from the hand-written monitors').
  char formula_json[96] = "";
  if (args.formulas) {
    std::snprintf(formula_json, sizeof formula_json,
                  ", \"formula_violations\": %" PRIu64
                  ", \"formula_violating_runs\": %" PRIu64,
                  result.formula_violations, result.formula_violating_runs);
  }

  if (args.json) {
    std::printf(
        "{\"bench\": \"chaos/%s\", \"runs\": %" PRIu64
        ", \"violating_runs\": %" PRIu64 ", \"sent\": %" PRIu64
        ", \"delivered\": %" PRIu64 ", \"lost\": %" PRIu64
        ", \"blocked\": %" PRIu64 ", \"duplicated\": %" PRIu64
        ", \"reordered\": %" PRIu64 ", \"out_of_spec_delay\": %" PRIu64
        ", \"availability_up_fraction\": %.4f, \"recoveries\": %" PRIu64
        ", \"detections\": %" PRIu64 ", \"detection_mean\": %.1f"
        ", \"detection_max\": %" PRId64 ", \"monitor_ns_per_event\": %.1f"
        ", \"corrupted\": %" PRIu64 ", \"rejected\": %" PRIu64
        ", \"integrity_violations\": %" PRIu64
        ", \"wall_s_per_sim_hour\": %.3f%s"
        ", \"threads\": %u, \"fingerprint\": \"%016" PRIx64 "\"}\n",
        profile, result.runs, result.violating_runs, result.totals.sent,
        result.totals.delivered, result.totals.lost, result.totals.blocked,
        result.totals.duplicated, result.totals.reordered,
        result.totals.out_of_spec_delay, avail.up_fraction(),
        avail.recoveries, avail.detections, detection_mean,
        avail.detection_max, monitor_ns, result.integrity.corrupted,
        result.integrity.rejected_corrupted, result.integrity.violations,
        wall_s_per_sim_hour, formula_json, args.threads, result.fingerprint);
  } else {
    std::printf("chaos campaign (%s): %" PRIu64 " runs, %" PRIu64
                " violating, fingerprint %016" PRIx64 "\n",
                profile, result.runs, result.violating_runs,
                result.fingerprint);
    if (args.formulas) {
      std::printf("formulas: %" PRIu64 " violation(s) across %" PRIu64
                  " run(s)\n",
                  result.formula_violations, result.formula_violating_runs);
    }
    std::printf("availability: %.2f%% up, %" PRIu64 " recoveries, %" PRIu64
                " detections (mean %.1f, max %" PRId64
                " ticks); monitors cost %.1f ns/event\n",
                avail.up_fraction() * 100.0, avail.recoveries,
                avail.detections, detection_mean, avail.detection_max,
                monitor_ns);
  }

  for (const auto& violating : result.violating) {
    const auto& first = violating.violations.front();
    std::printf("violating run: variant=%s tmin=%" PRId64 " tmax=%" PRId64
                " seed=%" PRIu64 " -> R%d node %d at %" PRId64
                " (%zu -> %zu action(s) after shrink)\n",
                proto::to_string(violating.spec.variant), violating.spec.tmin,
                violating.spec.tmax, violating.spec.seed, first.requirement,
                first.node, first.at, violating.spec.schedule.actions.size(),
                violating.shrunk.schedule.actions.size());
    if (args.artifacts_dir.empty()) {
      std::fputs(violating.artifact.c_str(), stdout);
    }
  }
  if (!args.artifacts_dir.empty()) write_artifacts(args, result);

  // In-spec violations are bugs; an out-of-spec campaign that never
  // trips the monitors means the negative control is broken. Attached
  // formulas are held to the same standard as the hand-written
  // monitors: silent in spec, firing out of spec.
  if (!args.out_of_spec) {
    return result.violating_runs == 0 && result.formula_violations == 0 ? 0
                                                                        : 1;
  }
  if (args.formulas && result.formula_violating_runs == 0) return 1;
  return result.violating_runs > 0 ? 0 : 1;
}
