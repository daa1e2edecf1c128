// batch-large: seven subspace skyline-over-join queries over four output
// dims, submitted together to MakeEngine("CAQE")->Execute on two-million-row
// tables at join selectivity 1/N, results consumed through on_result.
//
// Timed run: Execute is called repeatedly (at least min_executes times,
// more while the window lasts) and every metric is a median over the calls.
// Traced run: one plain Execute, then the same work through the public
// steps Execute is built from (AdaptiveTargetRegions, PartitionForRegions
// twice, RunSharedCore), each under a span, which yields the layer table.
// Both runs check every query's result set against a reference skyline over
// the exact join, and that all calls report the same ReportHash.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "caqe/session.h"
#include "common/thread_pool.h"
#include "contracts/tracker.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "exec/shared_core.h"
#include "query/workload_generator.h"
#include "region/dependency_graph.h"
#include "region/region_builder.h"
#include "skyline/algorithms.h"
#include "workloads.h"

namespace perfbench {
namespace {

using caqe::ExecOptions;
using caqe::ExecutionReport;
using caqe::Table;
using caqe::Workload;

using Rows = std::vector<std::vector<double>>;

std::pair<Table, Table> MakeTables(const BatchConfig& config, uint64_t seed) {
  caqe::GeneratorConfig cfg;
  cfg.num_rows = config.rows;
  cfg.num_attrs = config.dims;
  cfg.join_selectivities = {1.0 / static_cast<double>(config.rows)};
  cfg.distribution = caqe::Distribution::kIndependent;
  cfg.seed = seed * 2 + 1;
  Table r = caqe::GenerateTable("R", cfg).value();
  cfg.seed = seed * 2 + 2;
  Table t = caqe::GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

/// FNV-1a digest of every deterministic report quantity (counters, virtual
/// time, per-query outcomes and utility traces; no wall_* field).
uint64_t ReportHash(const ExecutionReport& report) {
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  const caqe::EngineStats& s = report.stats;
  for (const int64_t v :
       {s.join_probes, s.join_results, s.dominance_cmps, s.coarse_ops,
        s.emitted_results, s.regions_built, s.regions_processed,
        s.regions_discarded}) {
    mix(static_cast<uint64_t>(v));
  }
  mix_double(s.virtual_seconds);
  mix_double(report.workload_pscore);
  mix_double(report.average_satisfaction);
  for (const caqe::QueryReport& query : report.queries) {
    mix(static_cast<uint64_t>(query.results));
    mix_double(query.pscore);
    mix_double(query.satisfaction);
    for (const caqe::UtilityTracePoint& point : query.utility_trace) {
      mix_double(point.time);
      mix_double(point.utility);
    }
  }
  return h;
}

/// Wall seconds from the start of an execution to each query's first and
/// last streamed result (-1 while none arrived).
struct StreamTimes {
  std::vector<double> first;
  std::vector<double> last;

  explicit StreamTimes(int queries)
      : first(queries, -1.0), last(queries, -1.0) {}

  std::function<void(int, double, double)> Callback(const double* start) {
    return [this, start](int query, double, double) {
      const double now = WallNow() - *start;
      if (first[query] < 0.0) first[query] = now;
      last[query] = now;
    };
  }
};

struct ExecuteRun {
  ExecutionReport report;
  double wall = 0.0;
  /// CPU time of all the process's threads over the call.
  double cpu = 0.0;
  StreamTimes times{0};
};

ExecuteRun TimedExecute(caqe::Engine& engine, const Table& r, const Table& t,
                        const Workload& workload,
                        const std::vector<caqe::Contract>& contracts,
                        ExecOptions options) {
  ExecuteRun run;
  run.times = StreamTimes(workload.num_queries());
  double start = 0.0;
  options.on_result = run.times.Callback(&start);
  const double cpu0 = ProcessCpuNow();
  start = WallNow();
  run.report = engine.Execute(r, t, workload, contracts, options).value();
  run.wall = WallNow() - start;
  run.cpu = ProcessCpuNow() - cpu0;
  return run;
}

/// The same work as SharedPlanEngine::Execute for the CAQE engine, issued
/// step by step from here so each layer's call can be timed.
struct DecomposedRun {
  ExecutionReport report;
  double total_s = 0.0;
  double partition_s = 0.0;
  double core_s = 0.0;
  StreamTimes times{0};
  std::optional<caqe::PartitionedTable> part_r;
  std::optional<caqe::PartitionedTable> part_t;
};

DecomposedRun TracedExecute(const Table& r, const Table& t,
                            const Workload& workload,
                            const std::vector<caqe::Contract>& contracts,
                            const ExecOptions& options, SpanLog& spans) {
  DecomposedRun run;
  run.times = StreamTimes(workload.num_queries());
  const int64_t root = spans.Begin("execute");
  const double start = spans.spans().back().start;

  CAQE_CHECK(workload.Validate(r, t).ok());
  const int num_threads = caqe::ResolveNumThreads(options.num_threads);
  std::unique_ptr<caqe::ThreadPool> pool_owner;
  if (num_threads > 1) {
    pool_owner = std::make_unique<caqe::ThreadPool>(num_threads - 1);
  }
  caqe::ThreadPool* const pool = pool_owner.get();

  double t0 = WallNow();
  const int target = caqe::AdaptiveTargetRegions(options, r, t, workload);
  double t1 = WallNow();
  spans.Add("adaptive_target_regions", t0, t1, root);
  run.part_r.emplace(
      caqe::PartitionForRegions(r, options, target, pool).value());
  double t2 = WallNow();
  spans.Add("partition_r", t1, t2, root);
  run.part_t.emplace(
      caqe::PartitionForRegions(t, options, target, pool).value());
  double t3 = WallNow();
  spans.Add("partition_t", t2, t3, root);
  run.partition_s = t3 - t0;

  caqe::SatisfactionTracker tracker(contracts);
  caqe::VirtualClock clock(options.cost);
  ExecutionReport& report = run.report;
  report.engine = "CAQE";
  report.queries.resize(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    report.queries[q].name = workload.query(q).name;
  }
  std::vector<int> identity(workload.num_queries());
  std::iota(identity.begin(), identity.end(), 0);

  // CoreOptions exactly as the CAQE engine derives them from ExecOptions.
  caqe::CoreOptions core;
  core.policy = caqe::SchedulePolicy::kContractDriven;
  core.num_threads = options.num_threads;
  core.pipeline_regions = options.pipeline_regions;
  core.coarse_index = options.coarse_index;
  core.compact_layout = options.compact_layout;
  core.join_index_cache_entries = options.join_index_cache_entries;
  core.pool = pool;
  core.coarse_prune = options.coarse_prune;
  core.feedback = options.feedback_enabled;
  core.tuple_discard = true;
  core.dva_mode = options.dva_mode;
  core.capture_results = options.capture_results;
  core.known_result_counts = options.known_result_counts;
  core.on_result = run.times.Callback(&start);

  t0 = WallNow();
  CAQE_CHECK(caqe::RunSharedCore(*run.part_r, *run.part_t, workload,
                                 identity, tracker, clock, report.stats,
                                 report.queries, core)
                 .ok());
  t1 = WallNow();
  spans.Add("run_shared_core", t0, t1, root);
  run.core_s = t1 - t0;

  for (int q = 0; q < workload.num_queries(); ++q) {
    const caqe::QuerySatisfaction& s = tracker.satisfaction(q);
    report.queries[q].pscore = s.pscore;
    report.queries[q].results = s.results;
    report.queries[q].satisfaction = s.average();
    for (const caqe::UtilitySample& sample : tracker.samples(q)) {
      report.queries[q].utility_trace.push_back(
          caqe::UtilityTracePoint{sample.time, sample.utility});
    }
  }
  report.workload_pscore = tracker.WorkloadPScore();
  report.average_satisfaction = tracker.WorkloadAverageSatisfaction();
  report.stats.virtual_seconds = clock.Now();
  pool_owner.reset();
  spans.End(root);
  run.total_s = spans.spans()[static_cast<size_t>(root - 1)].end - start;
  report.stats.wall_seconds = run.total_s;
  return run;
}

/// Projects full output rows onto a query's preference dims, sorted.
Rows SortedPreferenceRows(const std::vector<const double*>& rows,
                          const std::vector<int>& preference) {
  Rows out;
  out.reserve(rows.size());
  for (const double* row : rows) {
    std::vector<double> values;
    for (const int k : preference) values.push_back(row[k]);
    out.push_back(std::move(values));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every query's reference skyline (sorted preference rows) over the exact
/// equi-join, computed with the repository's BNL kernel.
std::vector<Rows> ReferenceSkylines(const Table& r, const Table& t,
                                    const Workload& workload) {
  std::vector<Rows> skylines(workload.num_queries());
  for (const int key : workload.DistinctJoinKeys()) {
    // Counting sort of T by key, then one pass over R.
    int32_t max_key = 0;
    for (int64_t row = 0; row < t.num_rows(); ++row) {
      max_key = std::max(max_key, t.key(row, key));
    }
    std::vector<int64_t> start(static_cast<size_t>(max_key) + 2, 0);
    for (int64_t row = 0; row < t.num_rows(); ++row) {
      ++start[static_cast<size_t>(t.key(row, key)) + 1];
    }
    for (size_t i = 1; i < start.size(); ++i) start[i] += start[i - 1];
    std::vector<int64_t> by_key(static_cast<size_t>(t.num_rows()));
    std::vector<int64_t> fill(start.begin(), start.end() - 1);
    for (int64_t row = 0; row < t.num_rows(); ++row) {
      int64_t& slot = fill[static_cast<size_t>(t.key(row, key))];
      by_key[static_cast<size_t>(slot++)] = row;
    }
    caqe::PointSet points(workload.num_output_dims());
    std::vector<double> values;
    for (int64_t row = 0; row < r.num_rows(); ++row) {
      const int32_t k = r.key(row, key);
      if (k < 0 || k > max_key) continue;
      for (int64_t i = start[static_cast<size_t>(k)];
           i < start[static_cast<size_t>(k) + 1]; ++i) {
        workload.Project(r, row, t, by_key[static_cast<size_t>(i)], values);
        points.Append(values);
      }
    }
    // One thread per query (at most nproc at a time): the check runs
    // outside the timed window, so it may use the whole machine.
    std::vector<int> queries;
    for (int q = 0; q < workload.num_queries(); ++q) {
      if (workload.query(q).join_key == key) queries.push_back(q);
    }
    const size_t width = static_cast<size_t>(NumCpus());
    for (size_t begin = 0; begin < queries.size(); begin += width) {
      std::vector<std::thread> threads;
      for (size_t i = begin; i < std::min(queries.size(), begin + width); ++i) {
        threads.emplace_back([&, q = queries[i]] {
          const std::vector<int>& preference = workload.query(q).preference;
          std::vector<const double*> rows;
          for (const int64_t id : caqe::BnlSkyline(points, preference)) {
            rows.push_back(points.row(id));
          }
          skylines[q] = SortedPreferenceRows(rows, preference);
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
  }
  return skylines;
}

/// Number of queries whose captured result set differs from the reference.
int CountWrongQueries(const ExecutionReport& report, const Workload& workload,
                      const std::vector<Rows>& reference,
                      RunResult& result) {
  int wrong = 0;
  for (int q = 0; q < workload.num_queries(); ++q) {
    std::vector<const double*> rows;
    for (const caqe::ReportedResult& tuple : report.queries[q].tuples) {
      rows.push_back(tuple.values.data());
    }
    if (SortedPreferenceRows(rows, workload.query(q).preference) !=
        reference[q]) {
      ++wrong;
      result.Fail("query " + workload.query(q).name +
                  ": result set differs from the reference skyline (" +
                  std::to_string(rows.size()) + " vs " +
                  std::to_string(reference[q].size()) + " rows)");
    }
  }
  return wrong;
}

/// Median over executions of the per-execution value `pick(times)`.
template <typename Pick>
double MedianOver(const std::vector<StreamTimes>& runs, Pick pick) {
  std::vector<double> values;
  for (const StreamTimes& times : runs) values.push_back(pick(times));
  return Percentile(values, 0.5);
}

double MaxOf(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

}  // namespace

BatchConfig BatchLargeConfig() { return BatchConfig{}; }

RunResult RunBatch(const RunArgs& args, const BatchConfig& config) {
  RunResult result;
  const int nproc = NumCpus();

  // Set-up: generating the input pair (the batch engine has no separate
  // set-up; partitioning and the region build run inside every Execute and
  // count in makespan_s).
  std::vector<double> setup_times;
  std::optional<std::pair<Table, Table>> tables;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    tables.reset();
    const double t0 = WallNow();
    tables.emplace(MakeTables(config, args.seed));
    setup_times.push_back(WallNow() - t0);
  }
  const Table& r = tables->first;
  const Table& t = tables->second;

  const Workload workload =
      caqe::MakeSubspaceWorkload(config.dims, 0, config.queries,
                                 caqe::PriorityPolicy::kUniform, args.seed)
          .value();
  const std::vector<caqe::Contract> contracts(workload.num_queries(),
                                              caqe::MakeLogDecayContract());
  ExecOptions options;
  options.num_threads = nproc;
  // Captured tuples are what the output check compares; the count is the
  // skyline size, so capturing costs nothing measurable.
  options.capture_results = true;

  std::printf("provenance: %s\n",
              ProvenanceJson(
                  args,
                  {{"engine", "CAQE"},
                   {"rows", std::to_string(config.rows)},
                   {"queries", std::to_string(config.queries)},
                   {"dims", std::to_string(config.dims)},
                   {"num_threads", std::to_string(options.num_threads)},
                   {"target_regions", std::to_string(options.target_regions)},
                   {"pipeline_regions", options.pipeline_regions ? "1" : "0"},
                   {"coarse_index", options.coarse_index ? "1" : "0"},
                   {"compact_layout", options.compact_layout ? "1" : "0"},
                   {"join_index_cache_entries",
                    std::to_string(options.join_index_cache_entries)},
                   {"calibrate", "n/a (serving only)"},
                   {"capture_results", "1"}})
                  .c_str());

  std::unique_ptr<caqe::Engine> engine = caqe::MakeEngine("CAQE").value();
  std::vector<ExecuteRun> runs;
  SpanLog spans;
  std::optional<DecomposedRun> traced;
  if (!args.trace) {
    const double window_start = WallNow();
    while (static_cast<int>(runs.size()) < config.min_executes ||
           WallNow() - window_start < args.seconds) {
      runs.push_back(TimedExecute(*engine, r, t, workload, contracts, options));
    }
  } else {
    // The first call in a process pays page faults the next ones do not, so
    // the untraced baseline is the second of two calls.
    for (int i = 0; i < 2; ++i) {
      runs.push_back(TimedExecute(*engine, r, t, workload, contracts, options));
    }
    traced.emplace(TracedExecute(r, t, workload, contracts, options, spans));
  }
  const double peak_rss_mb = PeakRssMb();

  // ---- Output checks (outside the timed window). ----
  const double check_start = WallNow();
  const std::vector<Rows> reference = ReferenceSkylines(r, t, workload);
  std::printf("reference check: %.3f s\n", WallNow() - check_start);
  const uint64_t hash = ReportHash(runs.front().report);
  for (const ExecuteRun& run : runs) {
    if (ReportHash(run.report) != hash) {
      result.Fail("ReportHash differs between Execute calls");
    }
  }
  int wrong =
      CountWrongQueries(runs.front().report, workload, reference, result);
  if (traced.has_value()) {
    if (ReportHash(traced->report) != hash) {
      result.Fail("traced run's ReportHash differs from the timed run's");
    }
    wrong += CountWrongQueries(traced->report, workload, reference, result);
  }
  const int64_t executions =
      static_cast<int64_t>(runs.size()) + (traced.has_value() ? 1 : 0);
  result.attempted = executions * workload.num_queries();
  result.failed = wrong;

  const ExecutionReport& report = runs.front().report;
  std::vector<StreamTimes> times;
  std::vector<double> walls;
  for (const ExecuteRun& run : runs) {
    times.push_back(run.times);
    walls.push_back(run.wall);
  }
  const double makespan = Percentile(walls, 0.5);
  std::printf("batch-large: %zu Execute calls, walls:", runs.size());
  for (const double wall : walls) std::printf(" %.4f", wall);
  std::printf(" s, cpu:");
  for (const ExecuteRun& run : runs) std::printf(" %.4f", run.cpu);
  std::printf(" s, hash=%016llx, results=%lld\n",
              static_cast<unsigned long long>(hash),
              static_cast<long long>(report.stats.emitted_results));

  const double done_p50_ms =
      1e3 * MedianOver(times, [](const StreamTimes& s) {
        return Percentile(s.last, 0.5);
      });
  if (!args.trace) {
    // Wall-clock figures: printed, not bounded (see e2e.* of the traced
    // run). On a shared host they move with the neighbours' load; the CPU
    // time of a call moves far less.
    std::printf("wall (median over calls): done_p50_ms=%.4f "
                "goodput_rps=%.4f makespan_s=%.4f\n",
                done_p50_ms, workload.num_queries() / makespan, makespan);
    std::vector<double> cpu_ms_per_query;
    for (const ExecuteRun& run : runs) {
      cpu_ms_per_query.push_back(1e3 * run.cpu / workload.num_queries());
    }
    result.Set("setup_s", Percentile(setup_times, 0.5));
    result.Set("cpu_ms_per_req", Percentile(cpu_ms_per_query, 0.5));
    result.Set("served_ratio",
               1.0 - static_cast<double>(wrong) /
                         static_cast<double>(workload.num_queries()));
    result.Set("satisfaction", report.average_satisfaction);
    // Execute releases its working set on return, so the batch figure is
    // the process peak over the calls.
    result.Set("rss_mb", peak_rss_mb);
    return result;
  }

  // ---- Layer table of the decomposed execution. ----
  const caqe::EngineStats& s = traced->report.stats;
  const double core_other =
      traced->core_s - (s.wall_region_build_seconds + s.wall_join_seconds +
                        s.wall_eval_seconds + s.wall_discard_seconds);
  LayerTable table;
  table.total_name = "execute";
  table.total_s = traced->total_s;
  table.rows = {{"partition.wall_s", traced->partition_s},
                {"region.build_s", s.wall_region_build_seconds},
                {"exec.join_s", s.wall_join_seconds},
                {"exec.eval_s", s.wall_eval_seconds},
                {"exec.discard_s", s.wall_discard_seconds},
                {"exec.core_other_s", core_other}};
  std::printf("layer table (batch-large, decomposed Execute):\n%s",
              table.Render().c_str());

  // The MQLA prune runs inside core_other; time it standalone on a fresh
  // region build over the same partitions.
  caqe::RegionCollection rc =
      caqe::BuildRegions(*traced->part_r, *traced->part_t, workload).value();
  const double prune_start = WallNow();
  const caqe::CoarsePruneStats prune = caqe::CoarseSkylinePrune(rc, workload);
  const double prune_s = WallNow() - prune_start;
  spans.Add("coarse_prune_standalone", prune_start, prune_start + prune_s);

  const double untraced = runs.back().wall;
  const double overhead_pct = 100.0 * (traced->total_s - untraced) / untraced;
  std::printf("trace overhead: traced %.4f s vs untraced %.4f s (%.2f%%); "
              "standalone prune %.4f s (%lld pairs pruned)\n",
              traced->total_s, untraced, overhead_pct, prune_s,
              static_cast<long long>(prune.pruned_pairs));

  SetEngineMetrics(s, result);
  result.Set("exec.core_other_s", core_other);
  result.Set("partition.wall_s", traced->partition_s);
  result.Set("region.build_s", s.wall_region_build_seconds);
  result.Set("region.prune_s", prune_s);
  // The tail of a seven-query batch is its slowest query: the time until
  // every query has produced its first (ttfr) or last (done) result. Taken
  // from the untraced baseline of this run; unbounded, like the serving
  // tails.
  result.Set("e2e.done_p50_ms", done_p50_ms);
  result.Set("e2e.goodput_rps", workload.num_queries() / makespan);
  result.Set("e2e.makespan_s", makespan);
  result.Set("e2e.ttfr_p50_ms",
             1e3 * Percentile(runs.back().times.first, 0.5));
  result.Set("e2e.peak_rss_mb", peak_rss_mb);
  result.Set("e2e.ttfr_tail_ms", 1e3 * MaxOf(runs.back().times.first));
  result.Set("e2e.done_tail_ms", 1e3 * MaxOf(runs.back().times.last));
  result.Set("e2e.pscore_per_req",
             runs.back().report.workload_pscore / workload.num_queries());
  result.Set("e2e.failed_ratio", Ratio(static_cast<double>(result.failed),
                                       static_cast<double>(result.attempted)));
  result.Set("trace.overhead_pct", overhead_pct);
  result.Set("residual_s", table.residual());
  result.Set("table.total_s", table.total_s);

  const std::string span_path = args.out_dir + "/batch-large-" +
                                std::to_string(args.seed) + ".spans.jsonl";
  if (!EnsureDir(args.out_dir) || !spans.WriteJsonl(span_path)) {
    std::fprintf(stderr, "warning: could not write %s\n", span_path.c_str());
  }
  return result;
}

}  // namespace perfbench
