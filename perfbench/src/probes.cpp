// Per-layer probes of the traced run. Each probe drives one layer's
// public functions on an input recorded or generated from the seed and
// times the calls from outside. A layer the workload itself ran keeps
// the figures the workload reported (Workload::layer_metrics); every
// other layer is measured on its reference input, so each traced run
// reports every per-layer metric (README.md, "Per-layer metrics").
#include <algorithm>
#include <thread>

#include "bench.hpp"
#include "chaos/campaign.hpp"
#include "chaos/runner.hpp"
#include "inputs.hpp"
#include "mc/concurrent_store.hpp"
#include "mc/store.hpp"
#include "models/heartbeat_model.hpp"
#include "rv/integrity.hpp"
#include "rv/pltl/eval.hpp"
#include "rvtools.hpp"
#include "sim/timer_wheel.hpp"

namespace perfbench {

using namespace ahb;

namespace {

constexpr int kReps = 3;

bool has(const Metrics& out, const char* name) { return out.count(name) != 0; }

void put_absent(Metrics& out, const char* name, double value, const char* unit,
                std::size_t samples = 1) {
  if (!has(out, name)) put(out, name, value, unit, samples);
}

/// Median over kReps of a timed body returning its operation count:
/// nanoseconds per operation.
template <typename F>
double ns_per_op(const char* span_name, F&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = Clock::now();
    double ops = 0;
    {
      Span span(span_name);
      ops = static_cast<double>(body());
    }
    ns.push_back(seconds_since(start) * 1e9 / std::max(ops, 1.0));
  }
  return median(ns);
}

// ---- ta / mc ----------------------------------------------------------

/// Successor generation, canonicalization and store intern on the
/// static n=2 (6,7) watchdog model: the model of mc_exhaustive's
/// largest search, whose first 2^17 BFS states are the sample.
void probe_state_space(Metrics& out) {
  models::BuildOptions build;
  build.timing = {6, 7};
  build.participants = 2;
  build.r1_monitor = true;
  const auto model =
      models::HeartbeatModel::build(models::Flavor::Static, build);
  const ta::Network& net = model.net();
  const ta::StateCodec& codec = net.codec();

  constexpr std::size_t kSample = 1u << 17;
  std::vector<ta::State> sample;
  std::vector<ta::Slot> targets;  // successors of the sample, flattened
  {
    mc::StateStore seen(codec, ta::Compression::Collapse);
    ta::SuccessorScratch scratch;
    ta::State state = net.initial_state();
    seen.intern(state);
    for (std::uint32_t next = 0; next < seen.size() && sample.size() < kSample;
         ++next) {
      seen.load(next, state);
      sample.push_back(state);
      net.for_each_successor(state, scratch, [&](const ta::SuccessorView& v) {
        targets.insert(targets.end(), v.target.begin(), v.target.end());
        if (seen.size() < kSample) seen.intern(v.target);
      });
    }
  }
  const std::size_t stride = net.slot_count();
  const std::size_t target_count = targets.size() / stride;

  ta::SuccessorScratch scratch;
  std::uint64_t successors = 0;
  put(out, "ta.succ_ns", ns_per_op("ta.Network::for_each_successor", [&] {
        successors = 0;
        for (const ta::State& s : sample) {
          net.for_each_successor(
              s, scratch, [&](const ta::SuccessorView&) { ++successors; });
        }
        return sample.size();
      }),
      "ns", kReps);
  put(out, "ta.succ_per_state",
      static_cast<double>(successors) / static_cast<double>(sample.size()),
      "count");
  put(out, "ta.succ_reduced_ns",
      ns_per_op("ta.Network::for_each_successor_reduced", [&] {
        for (const ta::State& s : sample) {
          net.for_each_successor_reduced(s, scratch,
                                         [](const ta::SuccessorView&) {});
        }
        return sample.size();
      }),
      "ns", kReps);
  std::vector<ta::Slot> buffer(stride);
  put(out, "ta.canon_ns", ns_per_op("ta.StateCodec::canonicalize", [&] {
        for (const ta::State& s : sample) {
          std::copy(s.slots().begin(), s.slots().end(), buffer.begin());
          codec.canonicalize(buffer);
        }
        return sample.size();
      }),
      "ns", kReps);

  auto target = [&](std::size_t i) {
    return std::span<const ta::Slot>(targets.data() + i * stride, stride);
  };
  put(out, "mc.intern_ns", ns_per_op("mc.StateStore::intern", [&] {
        mc::StateStore store(codec, ta::Compression::Collapse);
        for (std::size_t i = 0; i < target_count; ++i) store.intern(target(i));
        return target_count;
      }),
      "ns", kReps);
  const double one = ns_per_op("mc.ConcurrentStateStore::intern", [&] {
    mc::ConcurrentStateStore store(codec, ta::Compression::Collapse);
    for (std::size_t i = 0; i < target_count; ++i) store.intern(target(i));
    return target_count;
  });
  // nproc threads on disjoint slices of the same successor stream; the
  // figure is wall time per intern.
  const unsigned threads = hardware_threads();
  const double many = ns_per_op("mc.ConcurrentStateStore::intern(nt)", [&] {
    mc::ConcurrentStateStore store(codec, ta::Compression::Collapse);
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t begin = target_count * t / threads;
        const std::size_t end = target_count * (t + 1) / threads;
        for (std::size_t i = begin; i < end; ++i) store.intern(target(i));
      });
    }
    for (auto& worker : workers) worker.join();
    return target_count;
  });
  put(out, "mc.cintern_ns_1t", one, "ns", kReps);
  put(out, "mc.cintern_ns_nt", many, "ns", kReps);
  put(out, "mc.cintern_scaling", one / many, "ratio");
}

// ---- hb / chaos / rv / rv/pltl on the mission stream -----------------

/// The mission workload's first mission of each variant at the run's
/// seed.
std::vector<chaos::MissionOptions> mission_set(std::uint64_t seed) {
  std::vector<chaos::MissionOptions> set;
  for (const chaos::Variant variant : kMissionVariants) {
    set.push_back(mission_options(seed, 0, variant));
  }
  return set;
}

struct RecordedMission {
  chaos::RunSpec spec;
  std::vector<RecordedEvent> events;
  sim::Time horizon = 0;
};

void probe_missions(const Options& options, Metrics& out) {
  auto set = mission_set(options.seed);

  std::vector<double> gen_s;
  for (int rep = 0; rep < 5 * kReps; ++rep) {
    const auto start = Clock::now();
    Span span("chaos.generate_schedule");
    for (auto& mission : set) {
      mission.spec.schedule =
          chaos::generate_schedule(mission.spec, mission.profile);
    }
    gen_s.push_back(seconds_since(start));
  }
  put(out, "chaos.schedule_gen_s", median(gen_s), "s", gen_s.size());

  const auto formulas = rv::pltl::shipped_monitor_specs();
  auto params_for = [](const chaos::RunSpec& spec) {
    return rv::pltl::BindParams{spec.variant, spec.timing(), spec.fixed_bounds,
                                spec.participants, 2};
  };
  std::vector<double> compile_s;
  for (int rep = 0; rep < 5 * kReps; ++rep) {
    const auto start = Clock::now();
    Span span("rv/pltl.make_monitor");
    for (const auto& mission : set) {
      for (const auto& formula : formulas) {
        (void)rv::pltl::make_monitor(formula, params_for(mission.spec));
      }
    }
    compile_s.push_back(seconds_since(start));
  }
  put(out, "pltl.compile_s", median(compile_s), "s", compile_s.size());

  // Work counts from the monitored missions, on workloads without them.
  if (!has(out, "chaos.events")) {
    std::uint64_t events = 0, sent = 0, delivered = 0, lost = 0;
    for (const auto& mission : set) {
      Span span("chaos.run_mission");
      const auto result = chaos::run_mission(mission);
      events += result.events_seen;
      sent += result.net_stats.sent;
      delivered += result.net_stats.delivered;
      lost += result.net_stats.lost;
    }
    put(out, "chaos.events", static_cast<double>(events), "count");
    put_absent(out, "sim.sent", static_cast<double>(sent), "count");
    put_absent(out, "sim.delivered", static_cast<double>(delivered), "count");
    put_absent(out, "sim.lost", static_cast<double>(lost), "count");
  }

  // Record each mission's stream (first 120k events) from the legacy
  // engine the mission runner drives, counting all protocol events.
  std::vector<RecordedMission> recorded;
  std::uint64_t protocol_events = 0;
  for (const auto& mission : set) {
    Recorder recorder(120'000);
    hb::Cluster cluster(chaos::cluster_config_for(mission.spec));
    cluster.add_sink(&recorder);
    chaos::schedule_actions(cluster, mission.spec);
    cluster.start();
    Span span("hb.Cluster::run_until");
    cluster.run_until(mission.spec.horizon);
    protocol_events += recorder.protocol_events();
    recorded.push_back({mission.spec, recorder.events(), recorder.last_time()});
  }
  // hb::Cluster alone: the same specs with no sink attached.
  put(out, "hb.cluster_ns_per_event", ns_per_op("hb.Cluster::run_until", [&] {
        for (const auto& mission : set) {
          hb::Cluster cluster(chaos::cluster_config_for(mission.spec));
          chaos::schedule_actions(cluster, mission.spec);
          cluster.start();
          cluster.run_until(mission.spec.horizon);
        }
        return protocol_events;
      }),
      "ns", kReps);

  // Each monitor alone on every recorded stream, per stream event.
  std::size_t stream_events = 0;
  for (const auto& mission : recorded) stream_events += mission.events.size();
  auto measure = [&](const char* span_name, auto make) {
    std::vector<double> seconds, ns;
    for (int rep = 0; rep < kReps; ++rep) {
      double total_s = 0;
      for (const auto& mission : recorded) {
        auto sink = make(mission.spec);
        Span span(span_name);
        total_s += replay(mission.events, sink.get(), mission.horizon);
      }
      seconds.push_back(total_s);
      ns.push_back(total_s * 1e9 / static_cast<double>(stream_events));
    }
    return std::pair{median(seconds), median(ns)};
  };
  auto bounds_for = [](const chaos::RunSpec& spec) {
    return rv::MonitorBounds::defaults(spec.timing(), spec.variant,
                                       spec.fixed_bounds);
  };
  const auto requirement = measure("rv.replay(requirement)", [&](const auto& spec) {
    return std::make_unique<rv::RequirementMonitor>(
        rv::RequirementMonitor::Config{spec.variant, spec.timing(),
                                       spec.fixed_bounds, spec.participants},
        bounds_for(spec));
  });
  const auto suspicion = measure("rv.replay(suspicion)", [&](const auto& spec) {
    return std::make_unique<rv::SuspicionMonitor>(
        rv::SuspicionMonitor::Config{spec.variant, spec.timing(),
                                     spec.participants},
        bounds_for(spec));
  });
  const auto availability =
      measure("rv.replay(availability)", [&](const auto& spec) {
        return std::make_unique<rv::AvailabilityStats>(spec.participants);
      });
  const auto integrity = measure("rv.replay(integrity)", [&](const auto& spec) {
    return std::make_unique<rv::IntegrityMonitor>(
        rv::IntegrityMonitor::Config{8 * spec.tmax, 16});
  });
  put_absent(out, "rv.requirement_ns_per_event", requirement.second, "ns",
             kReps);
  put_absent(out, "rv.suspicion_ns_per_event", suspicion.second, "ns", kReps);
  put_absent(out, "rv.availability_ns_per_event", availability.second, "ns",
             kReps);
  put_absent(out, "rv.integrity_ns_per_event", integrity.second, "ns", kReps);

  double formula_s = 0;
  for (const auto& formula : formulas) {
    const auto cost = measure("rv/pltl.replay", [&](const auto& spec) {
      return rv::pltl::make_monitor(formula, params_for(spec)).monitor;
    });
    formula_s += cost.first;
    const std::string name = "pltl." + formula.name + "_ns_per_event";
    put(out, name, cost.second, "ns", kReps);
  }
  // The formula stack against the hand-written R1-R3/S2 monitors it
  // restates, on the same streams: the ROADMAP's 1.1x gate before the
  // formulas may replace those monitors.
  put(out, "pltl.formula_vs_hand_ratio",
      formula_s / (requirement.first + suspicion.first), "ratio");

  if (!has(out, "rv.chain_emit_ns_empty")) {
    put(out, "rv.chain_emit_ns_empty", ns_per_op("rv.SinkChain::emit", [&] {
          for (const auto& mission : recorded) {
            replay(mission.events, nullptr, mission.horizon);
          }
          return stream_events;
        }),
        "ns", kReps);
    put(out, "rv.chain_emit_ns_one", ns_per_op("rv.SinkChain::emit(1)", [&] {
          for (const auto& mission : recorded) {
            Recorder counter(0);
            replay(mission.events, &counter, mission.horizon);
          }
          return stream_events;
        }),
        "ns", kReps);
  }
}

// ---- hb::ScaleCluster and sim::TimerWheel at n = 100k ----------------

constexpr int kProbeRounds = 12;

/// ns per beat over kProbeRounds steady rounds, with or without the
/// scale workload's monitor stack.
double scale_ns_per_beat(std::uint64_t seed, bool monitored) {
  hb::ScaleCluster cluster(scale_config(seed));
  ScaleMonitors monitors;
  if (monitored) monitors.attach(cluster);
  cluster.start();
  cluster.run_until(kScaleTmax);  // the first round warms the tables
  const std::uint64_t beats0 = cluster.stats().beats;
  const auto start = Clock::now();
  {
    Span span("hb.ScaleCluster::run_until");
    cluster.run_until((kProbeRounds + 1) * kScaleTmax);
  }
  const double seconds = seconds_since(start);
  return seconds * 1e9 / static_cast<double>(cluster.stats().beats - beats0);
}

/// TimerWheel driven with the scale engine's deadline pattern: every
/// round each member gets a delivery at now + delay in [0, tmin/2], and
/// each delivery cancels and re-arms the member's deadline.
double wheel_ns_per_op(std::uint64_t seed) {
  struct Payload {
    std::uint32_t node = 0;
    bool deadline = false;
  };
  using Wheel = sim::TimerWheel<Payload>;
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    Wheel wheel;
    std::vector<Wheel::Handle> deadline(kScaleN);
    const sim::Time lease = 2 * kScaleTmax;
    std::uint64_t ops = 0;
    const auto start = Clock::now();
    Span span("sim.TimerWheel");
    for (int node = 0; node < kScaleN; ++node) {
      deadline[node] = wheel.arm(lease, 1, {static_cast<std::uint32_t>(node), true});
      ++ops;
    }
    for (int round = 0; round < kProbeRounds; ++round) {
      const sim::Time now = round * kScaleTmax;
      for (int node = 0; node < kScaleN; ++node) {
        const sim::Time delay = static_cast<sim::Time>(
            mix64(seed + static_cast<std::uint64_t>(round) * kScaleN + node) %
            (kScaleTmin / 2 + 1));
        wheel.arm(now + delay, 0, {static_cast<std::uint32_t>(node), false});
        ++ops;
      }
      Wheel::Expired fired;
      while (wheel.pop(now + kScaleTmax - 1, fired)) {
        ++ops;
        if (fired.payload.deadline) continue;
        const std::uint32_t node = fired.payload.node;
        wheel.cancel(deadline[node]);
        deadline[node] = wheel.arm(fired.when + lease, 1, {node, true});
        ops += 2;
      }
    }
    ns.push_back(seconds_since(start) * 1e9 / static_cast<double>(ops));
  }
  return median(ns);
}

}  // namespace

void run_probes(const Options& options, Metrics& out,
                std::vector<std::string>& failures) {
  probe_state_space(out);
  if (!has(out, "mc.reach_s.r1")) {
    // The models and mc layers on their reference input: the reduced
    // search at (6,7), at one thread and at nproc.
    auto reference = make_mc_reference(options);
    reference->setup();
    const PassResult pass = reference->run_pass();
    reference->layer_metrics(pass, out);
    if (pass.failed != 0) reference->failures.push_back("reference search failed its gate");
    failures.insert(failures.end(), reference->failures.begin(),
                    reference->failures.end());
  }
  probe_missions(options, out);

  // Bare and monitored runs alternate so drift hits both alike.
  std::vector<double> bare, monitored;
  for (int rep = 0; rep < kReps; ++rep) {
    bare.push_back(scale_ns_per_beat(options.seed, false));
    monitored.push_back(scale_ns_per_beat(options.seed, true));
  }
  put(out, "hb.scale_ns_per_beat_bare", median(bare), "ns", kReps);
  put(out, "rv.sink_overhead_frac", median(monitored) / median(bare) - 1.0,
      "ratio", kReps);
  put(out, "sim.wheel_ns_per_op", wheel_ns_per_op(options.seed), "ns", kReps);
}

}  // namespace perfbench
