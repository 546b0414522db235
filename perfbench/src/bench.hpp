// Shared pieces of the benchmark program: clocks, statistics, metric
// records, the span tracer, and the Workload interface that the four
// workloads (workloads.cpp) implement. The per-layer probes of the
// traced run live in probes.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// User + system CPU time of this process so far.
double cpu_seconds();
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();
unsigned hardware_threads();

/// splitmix64 finalizer: derives independent input streams from the seed.
std::uint64_t mix64(std::uint64_t x);

double median(std::vector<double> values);

/// One timed operation: its wall and CPU time.
struct OpSample {
  double wall_s = 0;
  double cpu_s = 0;
};
/// The q-quantile (nearest rank) of the operations' wall times.
double quantile_wall_s(std::vector<OpSample> samples, double q);

/// Splits a deterministic computation into laps of `ticks_per_lap`
/// progress ticks and times each lap into `out`. Every pass of a run
/// repeats the same computation, so lap k covers the same work in every
/// pass, and combine() (main.cpp) can take each lap's fastest pass:
/// laps of a millisecond or so catch the host's calm moments, which
/// whole searches or missions of a second or more rarely do.
class Laps {
 public:
  Laps(std::vector<OpSample>& out, std::uint64_t ticks_per_lap);
  void tick() {
    if (++count_ == next_ && !closing_) close();
  }
  /// Closes the last, partial lap once the computation has returned.
  void finish() { close(); }

 private:
  void close();

  std::vector<OpSample>& out_;
  std::uint64_t ticks_per_lap_;
  std::uint64_t count_ = 0;
  std::uint64_t next_;
  bool closing_ = false;
  Clock::time_point start_;
  double cpu_;
};

/// While set, every allocation through operator new ticks these laps:
/// alloc.cpp replaces the global operator new with one that forwards to
/// malloc, as the default does, and counts. A mission allocates about
/// once per monitored event, in the same order on every pass, so its
/// allocations measure its progress.
extern Laps* g_allocation_laps;

/// FNV-1a fold of a workload's outputs: verdicts, state counts,
/// fingerprints, beat counts. Equal seeds must give equal digests,
/// traced or not.
struct Digest {
  std::uint64_t value = 1469598103934665603ULL;
  void add(std::uint64_t x) {
    for (int shift = 0; shift < 64; shift += 8) {
      value ^= (x >> shift) & 0xFF;
      value *= 1099511628211ULL;
    }
  }
};

struct Metric {
  double value = 0;
  std::string unit;
  std::size_t samples = 1;
};
using Metrics = std::map<std::string, Metric>;

// ---- spans -----------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are opened and
/// closed on the main thread around calls into the program's public
/// functions; each records its name, start, end and enclosing span.
class Tracer {
 public:
  struct Record {
    const char* name;
    double start_s;
    double end_s;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  Tracer() : origin_(Clock::now()) {}

  int open(const char* name);
  void close(int id);

  struct Totals {
    std::size_t count = 0;
    double total_s = 0;
    double self_s = 0;  ///< duration minus the time child spans cover
  };
  std::map<std::string, Totals> totals() const;

  /// Writes every span plus the per-name totals as JSON.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// Null in the untraced runs, so a Span costs one pointer test there.
extern Tracer* g_tracer;

class Span {
 public:
  explicit Span(const char* name) {
    if (g_tracer != nullptr) id_ = g_tracer->open(name);
  }
  ~Span() {
    if (id_ >= 0) g_tracer->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

// ---- workloads -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Gate canary: runs a deliberately wrong input or expectation that
  /// the workload's correctness gate must count as failed.
  std::string canary;
};

/// One execution of a workload's timed phase.
struct PassResult {
  double wall_s = 0;
  double cpu_s = 0;
  double work = 0;  ///< states / monitored events / beats
  /// The pass's nominal work over `work`, where the seed decides how far
  /// a pass overshoots its nominal work (mission): wall_s and cpu_s are
  /// reported for the nominal work, so they compare across seeds.
  double time_scale = 1;
  std::vector<OpSample> ops;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;
  /// Exact work counts published in the run header.
  std::map<std::string, std::uint64_t> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One complete set-up (model build, schedule generation, cluster and
  /// monitor allocation). Repeated; the last one feeds the passes.
  virtual void setup() = 0;
  /// One timed pass. Every pass of a run repeats the same operations.
  virtual PassResult run_pass() = 0;
  /// Unit of PassResult::work and what one operation is.
  virtual const char* work_unit() const = 0;
  virtual const char* op_name() const = 0;

  /// Per-layer metrics of the traced run that come from this workload's
  /// own execution (the traced pass and workload-specific reruns).
  virtual void layer_metrics(const PassResult& traced, Metrics& out) = 0;

  /// Correctness failures beyond per-operation failures (pinned
  /// evidence), human-readable.
  std::vector<std::string> failures;
};

std::unique_ptr<Workload> make_workload(const Options& options);
bool known_workload(const std::string& name);

/// The reduced search at (6,7): the reference input of the models
/// and mc layers on workloads that do not model-check.
std::unique_ptr<Workload> make_mc_reference(const Options& options);

/// Per-layer probes (probes.cpp): fills every per-layer metric the
/// workload did not already provide, from the layer's reference input.
void run_probes(const Options& options, Metrics& out,
                std::vector<std::string>& failures);

void put(Metrics& out, const std::string& name, double value,
         const char* unit, std::size_t samples = 1);

}  // namespace perfbench
