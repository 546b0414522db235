// perfbench: the repository's benchmark program.
//
//   perfbench --workload <mc_exhaustive|mc_reduced|mission|scale>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--canary <name>] [--git-sha <sha>]
//
// --trace 0 sets the workload up several times, runs its timed passes
// and reports the end-to-end metrics. --trace 1 reports the per-layer
// metrics instead: it runs untraced and traced passes in turn (their
// wall times give bench.trace_overhead_frac), records spans around
// every call into the program, runs the per-layer probes, and writes the
// spans to --trace-out. Either way every operation goes through the
// workload's correctness gate. The last stdout line is the result
// object; the line before it is the run header. Exit status is nonzero
// when any operation or check failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

Tracer* g_tracer = nullptr;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double quantile_wall_s(std::vector<OpSample> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end(),
            [](const OpSample& a, const OpSample& b) {
              return a.wall_s < b.wall_s;
            });
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1].wall_s;
}

Laps* g_allocation_laps = nullptr;

Laps::Laps(std::vector<OpSample>& out, std::uint64_t ticks_per_lap)
    : out_(out),
      ticks_per_lap_(ticks_per_lap),
      next_(ticks_per_lap),
      start_(Clock::now()),
      cpu_(cpu_seconds()) {}

void Laps::close() {
  // Recording a lap may allocate, which ticks the allocation laps again.
  closing_ = true;
  const auto now = Clock::now();
  const double cpu = cpu_seconds();
  out_.push_back({std::chrono::duration<double>(now - start_).count(),
                  cpu - cpu_});
  start_ = now;
  cpu_ = cpu;
  next_ = count_ + ticks_per_lap_;
  closing_ = false;
}

void put(Metrics& out, const std::string& name, double value, const char* unit,
         std::size_t samples) {
  out[name] = Metric{value, unit, samples};
}

// ---- Tracer ----------------------------------------------------------

int Tracer::open(const char* name) {
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  records_.push_back({name, now, now, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(static_cast<int>(records_.size() - 1));
  return stack_.back();
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Spans nest strictly (all open on the main thread), so the time
  // children cover is the sum of their durations.
  std::vector<double> child_s(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_s[static_cast<std::size_t>(r.parent)] += r.end_s - r.start_s;
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Totals& t = out[r.name];
    ++t.count;
    t.total_s += r.end_s - r.start_s;
    t.self_s += r.end_s - r.start_s - child_s[i];
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  char line[256];
  file << "{\"spans\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d}%s\n",
                  i, r.name, r.start_s, r.end_s, r.parent,
                  i + 1 < records_.size() ? "," : "");
    file << line;
  }
  file << "],\n\"totals\": {\n";
  const auto all = totals();
  std::size_t k = 0;
  for (const auto& [name, t] : all) {
    std::snprintf(line, sizeof line,
                  "  \"%s\": {\"count\": %zu, \"total_s\": %.9f, "
                  "\"self_s\": %.9f}%s\n",
                  name.c_str(), t.count, t.total_s, t.self_s,
                  ++k < all.size() ? "," : "");
    file << line;
  }
  file << "}}\n";
  return static_cast<bool>(file);
}

namespace {

// Set-up is timed in one window of kSetupReps repetitions before each
// pass. A fixed count, not a time window, keeps the heap's history, and
// with it peak_rss_mb, the same on every host.
constexpr int kSetupReps = 20;
// A timed run makes at least this many passes; see run().
constexpr int kMinPasses = 3;
// A traced run makes this many untraced and this many traced passes.
constexpr int kTracePasses = 3;

struct Args {
  Options options;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.options.seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.options.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--canary") {
      args.options.canary = value;
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && known_workload(args.options.workload);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// JSON has no NaN or infinity: a non-finite value prints as null,
/// and run() has already counted it as a failure.
void print_metrics_json(const Metrics& metrics, bool with_samples) {
  std::size_t k = 0;
  for (const auto& [name, m] : metrics) {
    if (with_samples) {
      std::printf("\"%s\": %zu", name.c_str(), m.samples);
    } else if (std::isfinite(m.value)) {
      std::printf("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(),
                  m.value, m.unit.c_str());
    } else {
      std::printf("\"%s\": {\"value\": null, \"unit\": \"%s\"}", name.c_str(),
                  m.unit.c_str());
    }
    if (++k < metrics.size()) std::printf(", ");
  }
}

/// The figures of a run's identical passes. Each operation's wall and
/// CPU time is its minimum over the passes; wall_s and cpu_s sum those
/// minima plus the least time a pass spends outside its operations.
/// Interference from the host only ever adds time, and on a shared
/// host it comes and goes within seconds, so the fastest repetition of
/// an operation is the steadiest estimate of its own cost.
struct Combined {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<OpSample> ops;  ///< per-operation minima
};

Combined combine(const std::vector<PassResult>& passes) {
  Combined out;
  std::size_t count = passes.front().ops.size();
  for (const PassResult& pass : passes) count = std::min(count, pass.ops.size());
  for (std::size_t i = 0; i < count; ++i) {
    OpSample op = passes.front().ops[i];
    for (const PassResult& pass : passes) {
      op.wall_s = std::min(op.wall_s, pass.ops[i].wall_s);
      op.cpu_s = std::min(op.cpu_s, pass.ops[i].cpu_s);
    }
    out.wall_s += op.wall_s;
    out.cpu_s += op.cpu_s;
    out.ops.push_back(op);
  }
  double rest_wall = passes.front().wall_s, rest_cpu = passes.front().cpu_s;
  for (const PassResult& pass : passes) {
    double wall = pass.wall_s, cpu = pass.cpu_s;
    for (std::size_t i = 0; i < count; ++i) {
      wall -= pass.ops[i].wall_s;
      cpu -= pass.ops[i].cpu_s;
    }
    rest_wall = std::min(rest_wall, wall);
    rest_cpu = std::min(rest_cpu, cpu);
  }
  out.wall_s += rest_wall;
  out.cpu_s += rest_cpu;
  return out;
}

}  // namespace

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "<mc_exhaustive|mc_reduced|mission|scale> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--canary <name>] [--git-sha <sha>]\n");
    return 2;
  }
  // glibc raises its mmap threshold whenever a large block is freed, so
  // where later large blocks come from, and with it the peak resident
  // set, would depend on the order of earlier searches: the seed's job
  // order moved peak_rss_mb by up to 18 %. The threshold is fixed at
  // glibc's initial value instead.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options& options = args.options;
  auto workload = make_workload(options);
  Metrics metrics;
  std::vector<PassResult> passes;
  std::vector<double> setup_s;  ///< the fastest set-up of each window
  std::vector<std::string> failures;
  // Operation latencies for the header's percentiles, and how many
  // timed operations they rest on.
  std::vector<OpSample> op_times;
  std::size_t op_samples = 0;
  Tracer tracer;

  if (!options.trace) {
    // Set-up costs well under a second: it is repeated in a window before
    // every pass. A window's figure is its fastest set-up, for the reason
    // combine() takes each operation's fastest pass, and setup_s is the
    // median over all windows. The last set-up of a window feeds the
    // pass.
    auto setup_window = [&] {
      double fastest = 0;
      for (int rep = 0; rep < kSetupReps; ++rep) {
        const auto start = Clock::now();
        workload->setup();
        const double took = seconds_since(start);
        fastest = rep == 0 ? took : std::min(fastest, took);
      }
      setup_s.push_back(fastest);
    };
    // The passes repeat identical work, operation for operation; see
    // combine() for how their figures are merged. They go on while the
    // next one, if it takes as long as the longest so far, still ends
    // within --seconds, so a run lasts about --seconds on any host.
    const auto run_start = Clock::now();
    double longest = 0;
    // The first set-up window and pass do all the work a run does; later
    // passes only repeat it. Peak memory is read after them, before the
    // number of passes, which depends on the host's speed, can matter.
    double peak_rss = 0;
    for (int p = 0; p < kMinPasses ||
                    seconds_since(run_start) + longest <= options.seconds;
         ++p) {
      const auto pass_start = Clock::now();
      setup_window();
      passes.push_back(workload->run_pass());
      longest = std::max(longest, seconds_since(pass_start));
      if (p == 0) peak_rss = peak_rss_mb();
      if (passes.back().digest.value != passes.front().digest.value ||
          passes.back().ops.size() != passes.front().ops.size()) {
        failures.push_back("pass " + std::to_string(p + 1) +
                           " produced different outputs");
      }
    }
    const Combined combined = combine(passes);
    op_times = combined.ops;
    op_samples = passes.size() * combined.ops.size();
    put(metrics, "setup_s", median(setup_s), "s", setup_s.size());
    const double scale = passes.front().time_scale;
    put(metrics, "wall_s", combined.wall_s * scale, "s", passes.size());
    put(metrics, "cpu_s", combined.cpu_s * scale, "s", passes.size());
    put(metrics, "work_per_s", passes.front().work / combined.wall_s, "1/s",
        passes.size());
    put(metrics, "peak_rss_mb", peak_rss, "MB");
  } else {
    // Untraced and traced passes in turn, kTracePasses of each, each
    // after its own set-up: the overhead compares the two kinds combined
    // as the timed runs combine their passes. Then the layer probes.
    std::vector<PassResult> untraced_passes, traced_passes;
    for (int p = 0; p < kTracePasses; ++p) {
      g_tracer = nullptr;
      workload->setup();
      untraced_passes.push_back(workload->run_pass());
      g_tracer = &tracer;
      {
        Span span("bench.setup");
        workload->setup();
      }
      Span span("bench.pass");
      traced_passes.push_back(workload->run_pass());
    }
    passes = untraced_passes;
    passes.insert(passes.end(), traced_passes.begin(), traced_passes.end());
    const double untraced_s = combine(untraced_passes).wall_s;
    const double traced_s = combine(traced_passes).wall_s;
    const PassResult& traced = passes.back();
    op_times = traced.ops;
    op_samples = traced.ops.size();
    for (const PassResult& pass : passes) {
      if (pass.digest.value != traced.digest.value) {
        failures.push_back("traced and untraced passes produced different "
                           "outputs");
        break;
      }
    }
    put(metrics, "bench.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s, "ratio", passes.size());
    {
      Span span("bench.layers");
      workload->layer_metrics(traced, metrics);
    }
    {
      Span span("bench.probes");
      run_probes(options, metrics, failures);
    }
    g_tracer = nullptr;
    if (!args.trace_out.empty() && !tracer.write(args.trace_out)) {
      failures.push_back("cannot write " + args.trace_out);
    }
  }

  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      failures.push_back("metric " + name + " is not finite");
    }
  }
  std::uint64_t attempted = 0, failed = 0;
  for (const PassResult& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed;
  }
  failures.insert(failures.begin(), workload->failures.begin(),
                  workload->failures.end());
  const bool correct = failed == 0 && failures.empty() && attempted > 0;
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", failure.c_str());
  }

  // Run header: provenance, sample counts, exact work counts, digest.
  std::printf("{\"header\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"git_sha\": \"%s\", "
              "\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"work_unit\": \"%s\", \"operation\": \"%s\", "
              "\"passes\": %zu, \"digest\": \"%016llx\", \"pass_wall_s\": [",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, json_escape(args.git_sha).c_str(),
              hardware_threads(), json_escape(__VERSION__).c_str(),
              PERFBENCH_BUILD_TYPE, workload->work_unit(),
              workload->op_name(), passes.size(),
              static_cast<unsigned long long>(passes.back().digest.value));
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::printf("%s%.6f", p > 0 ? ", " : "", passes[p].wall_s);
  }
  std::printf("], \"op_ms\": {\"p50\": %.6f, \"p90\": %.6f, "
              "\"samples\": %zu}, \"samples\": {",
              quantile_wall_s(op_times, 0.5) * 1e3,
              quantile_wall_s(op_times, 0.9) * 1e3, op_samples);
  print_metrics_json(metrics, true);
  std::printf("}, \"counts\": {");
  std::size_t k = 0;
  for (const auto& [name, value] : passes.back().counts) {
    std::printf("\"%s\": %llu%s", name.c_str(),
                static_cast<unsigned long long>(value),
                ++k < passes.back().counts.size() ? ", " : "");
  }
  std::printf("}, \"failures\": %zu}}\n", failures.size());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  print_metrics_json(metrics, false);
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }

