#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/json_util.h"
#include "metrics/report.h"
#include "skyline/dominance_batch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1) + 0.5;
  const size_t index = std::min(static_cast<size_t>(std::max(rank, 0.0)),
                                samples.size() - 1);
  return samples[index];
}

double TailLevel(int64_t n) {
  for (const double level : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    // The epsilon absorbs rounding in 1 - level (100 * (1 - 0.9) < 10).
    if (static_cast<double>(n) * (1.0 - level) >= 10.0 - 1e-9) return level;
  }
  return 0.5;
}

std::vector<double> Lateness(const std::vector<double>& due,
                             const std::vector<double>& sent) {
  std::vector<double> late;
  const size_t n = std::min(due.size(), sent.size());
  late.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (sent[i] < 0.0) continue;
    late.push_back(std::max(0.0, sent[i] - due[i]));
  }
  return late;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double Residual(double total, const std::vector<double>& parts) {
  double sum = 0.0;
  for (const double part : parts) sum += part;
  return total - sum;
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double ProcessCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double RssMb() {
  long pages = 0;
  long resident = 0;
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0.0;
  const int read = std::fscanf(statm, "%ld %ld", &pages, &resident);
  std::fclose(statm);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

int64_t SpanLog::Add(std::string name, double start, double end,
                     int64_t parent, int64_t request) {
  Span span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanLog::Begin(std::string name, int64_t parent, int64_t request) {
  const double now = WallNow();
  return Add(std::move(name), now, now, parent, request);
}

void SpanLog::End(int64_t id) {
  spans_[static_cast<size_t>(id - 1)].end = WallNow();
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& span : spans_) {
    std::string name;
    caqe::JsonAppendString(name, span.name);
    std::fprintf(out,
                 "{\"id\":%lld,\"parent\":%lld,\"request\":%lld,\"name\":%s,"
                 "\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.request), name.c_str(),
                 span.start - origin, span.end - origin);
  }
  return std::fclose(out) == 0;
}

double LayerTable::residual() const {
  std::vector<double> parts;
  for (const auto& row : rows) parts.push_back(row.second);
  return Residual(total_s, parts);
}

std::string LayerTable::Render() const {
  std::string text;
  char line[160];
  const auto add = [&](const std::string& name, double seconds) {
    const double share = total_s > 0.0 ? 100.0 * seconds / total_s : 0.0;
    std::snprintf(line, sizeof(line), "  %-22s %12.6f s %7.2f%%\n",
                  name.c_str(), seconds, share);
    text += line;
  };
  for (const auto& row : rows) add(row.first, row.second);
  add("residual_s", residual());
  add(total_name + " (total)", total_s);
  return text;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"cpu_ms_per_req", "ms"},
      {"served_ratio", "ratio"}, {"satisfaction", "utility"},
      {"rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.status_rtt_p50_ms", "ms"},
      {"net.status_rtt_tail_ms", "ms"},
      {"net.front_door_s", "s"},
      {"net.parse_us_per_line", "us"},
      {"net.bytes_per_result", "bytes"},
      {"net.result_lines", "count"},
      {"net.err_replies", "count"},
      {"serve.create_s", "s"},
      {"serve.submit_us", "us"},
      {"serve.steps", "count"},
      {"serve.step_us_p50", "us"},
      {"serve.step_us_tail", "us"},
      {"serve.engine_s", "s"},
      {"serve.control_s", "s"},
      {"serve.control_ops", "count"},
      {"serve.admitted", "count"},
      {"serve.rejected", "count"},
      {"serve.deferrals", "count"},
      {"serve.expired", "count"},
      {"serve.cancelled", "count"},
      {"serve.completed", "count"},
      {"serve.admit_precision", "ratio"},
      {"serve.parked_dropped", "count"},
      {"exec.join_s", "s"},
      {"exec.eval_s", "s"},
      {"exec.discard_s", "s"},
      {"exec.core_other_s", "s"},
      {"exec.join_probes", "count"},
      {"exec.join_results", "count"},
      {"exec.dominance_cmps", "count"},
      {"exec.emitted", "count"},
      {"exec.regions_processed", "count"},
      {"exec.regions_discarded", "count"},
      {"exec.cmps_per_join_result", "ratio"},
      {"exec.emitted_per_join_result", "ratio"},
      {"exec.discard_ratio", "ratio"},
      {"partition.wall_s", "s"},
      {"region.build_s", "s"},
      {"region.prune_s", "s"},
      {"region.coarse_ops", "count"},
      {"region.regions_built", "count"},
      {"e2e.done_p50_ms", "ms"},
      {"e2e.goodput_rps", "1/s"},
      {"e2e.makespan_s", "s"},
      {"e2e.ttfr_p50_ms", "ms"},
      {"e2e.ttfr_tail_ms", "ms"},
      {"e2e.done_tail_ms", "ms"},
      {"e2e.pscore_per_req", "pscore"},
      {"e2e.failed_ratio", "ratio"},
      {"e2e.peak_rss_mb", "MB"},
      {"gen.lag_p99_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"residual_s", "s"},
      {"table.total_s", "s"},
  };
  return specs;
}

void SetEngineMetrics(const caqe::EngineStats& s, RunResult& result) {
  const auto count = [](int64_t v) { return static_cast<double>(v); };
  result.Set("exec.join_s", s.wall_join_seconds);
  result.Set("exec.eval_s", s.wall_eval_seconds);
  result.Set("exec.discard_s", s.wall_discard_seconds);
  result.Set("exec.join_probes", count(s.join_probes));
  result.Set("exec.join_results", count(s.join_results));
  result.Set("exec.dominance_cmps", count(s.dominance_cmps));
  result.Set("exec.emitted", count(s.emitted_results));
  result.Set("exec.regions_processed", count(s.regions_processed));
  result.Set("exec.regions_discarded", count(s.regions_discarded));
  result.Set("exec.cmps_per_join_result",
             Ratio(count(s.dominance_cmps), count(s.join_results)));
  result.Set("exec.emitted_per_join_result",
             Ratio(count(s.emitted_results), count(s.join_results)));
  result.Set("exec.discard_ratio",
             Ratio(count(s.regions_discarded),
                   count(s.regions_processed + s.regions_discarded)));
  result.Set("region.coarse_ops", count(s.coarse_ops));
  result.Set("region.regions_built", count(s.regions_built));
}

double RunResult::Get(const std::string& name) const {
  const auto it = values.find(name);
  return it == values.end() ? 0.0 : it->second;
}

std::string ResultJson(const RunResult& result, bool trace) {
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  char value[64];
  bool first = true;
  for (const MetricSpec& spec : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    if (!trace && result.values.count(spec.name) == 0) {
      std::fprintf(stderr, "perfbench: end-to-end metric %s was not set\n",
                   spec.name);
      std::abort();
    }
    if (!first) json += ", ";
    first = false;
    caqe::JsonAppendString(json, spec.name);
    std::snprintf(value, sizeof(value), "%.17g", result.Get(spec.name));
    json += std::string(": {\"value\": ") + value + ", \"unit\": ";
    caqe::JsonAppendString(json, spec.unit);
    json += "}";
  }
  json += "}}";
  return json;
}

std::string ProvenanceJson(
    const RunArgs& args,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", args.workload},
      {"seed", std::to_string(args.seed)},
      {"seconds", std::to_string(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"nproc", std::to_string(NumCpus())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"simd_isa", caqe::BatchKernelIsaName()},
  };
  fields.insert(fields.end(), extra.begin(), extra.end());
  std::string json = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) json += ", ";
    caqe::JsonAppendString(json, fields[i].first);
    json += ": ";
    caqe::JsonAppendString(json, fields[i].second);
  }
  json += "}";
  return json;
}

bool EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0) return true;
  struct stat info {};
  return errno == EEXIST && ::stat(dir.c_str(), &info) == 0 &&
         S_ISDIR(info.st_mode);
}

}  // namespace perfbench
