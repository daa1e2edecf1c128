// Shared pieces of the end-to-end benchmark: run arguments, sample
// statistics, clocks, the in-memory span log, the per-layer table, and the
// result line the benchmark prints last.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace caqe {
struct EngineStats;
}  // namespace caqe

namespace perfbench {

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 10.0;
  /// false: timed run (end-to-end metrics). true: traced run (per-layer
  /// metrics and the layer table).
  bool trace = false;
  /// Directory for recordings and span logs (created on demand).
  std::string out_dir = ".bench_out";
};

// ---- Sample statistics ----

/// Nearest-rank percentile (p in [0, 1]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// The highest percentile of {0.999, 0.99, 0.95, 0.9, 0.75, 0.5} that has
/// at least 10 of `n` samples beyond it (0.5 when none has).
double TailLevel(int64_t n);

/// How late a request generator sent each request: send minus due time,
/// clamped at zero, over the indices present in both vectors. Unsent
/// requests (send < 0) are skipped.
std::vector<double> Lateness(const std::vector<double>& due,
                             const std::vector<double>& sent);

/// num / den, or 0 when den is 0.
double Ratio(double num, double den);

/// `total` minus the sum of `parts` (the unattributed remainder of a layer
/// table).
double Residual(double total, const std::vector<double>& parts);

// ---- Clocks and process state ----

/// Monotonic wall clock, seconds.
double WallNow();
/// CPU time consumed by the calling thread, seconds.
double ThreadCpuNow();
/// CPU time consumed by all threads of the process, seconds.
double ProcessCpuNow();
/// Peak resident set size of the process so far, MB.
double PeakRssMb();
/// Current resident set size of the process, MB.
double RssMb();
/// CPUs this process may run on (what `nproc` prints).
int NumCpus();

// ---- Spans ----

/// One timed interval recorded from the benchmark's own code around a call
/// into a layer. `parent` is the id of the enclosing span (0 for a root);
/// `request` groups the spans of one request (-1 when not per request).
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = -1;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Append-only span store kept in memory during the run and written once
/// at exit. Single-threaded by design: only the thread that owns it
/// records.
class SpanLog {
 public:
  /// Records a finished span; returns its id.
  int64_t Add(std::string name, double start, double end, int64_t parent = 0,
              int64_t request = -1);
  /// Opens a span now; close it with End.
  int64_t Begin(std::string name, int64_t parent = 0, int64_t request = -1);
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- Layer table ----

/// Rows of wall seconds attributed to layers. The rows plus the residual sum
/// to `total_s` by construction.
struct LayerTable {
  std::string total_name;
  double total_s = 0.0;
  std::vector<std::pair<std::string, double>> rows;

  double residual() const;
  /// Fixed-width text rendering with each row's share of the total.
  std::string Render() const;
};

// ---- Results ----

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a timed run (--trace 0) reports, in output order. Every workload
/// reports each one.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Metrics a traced run (--trace 1) reports, in output order. A layer a
/// workload never enters reports 0.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Everything one run reports.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> values;
  /// Reasons the output checks failed (empty when correct).
  std::vector<std::string> errors;

  void Set(const std::string& name, double value) { values[name] = value; }
  /// 0 when the metric was never set.
  double Get(const std::string& name) const;
  /// Records a failed output check.
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Sets the metrics an engine report carries: the exec.* phase walls,
/// operation counts and their ratios, and region.coarse_ops/regions_built.
void SetEngineMetrics(const caqe::EngineStats& stats, RunResult& result);

/// The result line: {"correct", "attempted", "failed", "metrics"} with each
/// metric of the run's list (EndToEndMetrics or PerLayerMetrics) as
/// {"value", "unit"}, values printed with all their digits. A missing
/// end-to-end metric is a bug in the workload: the process aborts naming it.
std::string ResultJson(const RunResult& result, bool trace);

/// One JSON object of run provenance: nproc, build type, the runtime SIMD
/// ISA, the seed, the workload, plus `extra` key/value pairs (engine
/// thread count and knob values).
std::string ProvenanceJson(
    const RunArgs& args,
    const std::vector<std::pair<std::string, std::string>>& extra);

/// Creates `dir` (one level) if missing; returns false on failure.
bool EnsureDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
