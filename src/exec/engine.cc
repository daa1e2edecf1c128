#include "exec/engine.h"

#include <algorithm>
#include <cmath>

#include "obs/observability.h"

namespace caqe {

Result<PartitionedTable> PartitionForRegions(const Table& table,
                                             const EngineOptions& options,
                                             int target_regions,
                                             ThreadPool* pool) {
  int64_t target_cells = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(
             std::sqrt(static_cast<double>(target_regions)))));
  target_cells = std::max<int64_t>(
      1, std::min(target_cells, table.num_rows() / 8));
  if (options.partition_strategy == PartitionStrategy::kQuadTree) {
    return PartitionTableQuadTreeTarget(table, target_cells,
                                        /*max_depth=*/16, pool);
  }
  if (options.cells_per_dim > 0) {
    return PartitionTable(table, options.cells_per_dim);
  }
  return PartitionTableSlices(
      table, ChooseSliceVector(table.num_attrs(), target_cells));
}

namespace {

// Runs of key column `key` over the whole table (see AppendKeyRuns).
void TableKeyRuns(const Table& table, int key, std::vector<int32_t>& scratch,
                  std::vector<int32_t>* values, std::vector<int32_t>* counts) {
  const int64_t n = table.num_rows();
  std::vector<int32_t> keys(static_cast<size_t>(n));
  for (int64_t row = 0; row < n; ++row) {
    keys[static_cast<size_t>(row)] = table.key(row, key);
  }
  scratch.resize(static_cast<size_t>(n));
  AppendKeyRuns(keys.data(), n, scratch.data(), values, counts);
}

}  // namespace

int64_t ExactTotalJoinSize(const Table& r, const Table& t, int key) {
  std::vector<int32_t> scratch;
  std::vector<int32_t> r_keys;
  std::vector<int32_t> r_counts;
  TableKeyRuns(r, key, scratch, &r_keys, &r_counts);
  std::vector<int32_t> t_keys;
  std::vector<int32_t> t_counts;
  TableKeyRuns(t, key, scratch, &t_keys, &t_counts);
  return ExactJoinSize(r_keys, r_counts, t_keys, t_counts);
}

int AdaptiveTargetRegions(const EngineOptions& options, const Table& r,
                          const Table& t, const Workload& workload) {
  if (options.cells_per_dim > 0) return options.target_regions;
  int64_t max_join = 0;
  for (int key : workload.DistinctJoinKeys()) {
    max_join = std::max(max_join, ExactTotalJoinSize(r, t, key));
  }
  const int64_t by_work = std::max<int64_t>(16, max_join / 500);
  return static_cast<int>(
      std::min<int64_t>(options.target_regions, by_work));
}

Result<PartitionedInputs> PartitionInputs(const Table& r, const Table& t,
                                          const Workload& workload,
                                          const EngineOptions& options,
                                          ThreadPool* pool) {
  if (options.target_regions < 1) {
    return Status::InvalidArgument("target_regions must be at least 1, got " +
                                   std::to_string(options.target_regions));
  }
  const int target = AdaptiveTargetRegions(options, r, t, workload);
  Result<PartitionedTable> part_r =
      PartitionForRegions(r, options, target, pool);
  CAQE_RETURN_NOT_OK(part_r.status());
  Result<PartitionedTable> part_t =
      PartitionForRegions(t, options, target, pool);
  CAQE_RETURN_NOT_OK(part_t.status());
  return PartitionedInputs{std::move(part_r).value(),
                           std::move(part_t).value()};
}

UtilitySample ChargeResult(
    int q, int64_t tuple_id, const double* row, int width,
    SatisfactionTracker& tracker, VirtualClock& clock, EngineStats& stats,
    std::vector<QueryReport>& reports,
    const std::function<void(int query, double time, double utility)>&
        on_result) {
  const double now = clock.Now();
  const double utility = tracker.OnResult(q, now);
  clock.ChargeEmits(1);
  ++stats.emitted_results;
  if (on_result) on_result(q, now, utility);
  if (row != nullptr) {
    ReportedResult result;
    result.tuple_id = tuple_id;
    result.time = now;
    result.utility = utility;
    result.values.assign(row, row + width);
    reports[q].tuples.push_back(std::move(result));
  }
  return UtilitySample{now, utility};
}

BatchRun::BatchRun(std::string engine, const std::vector<Contract>& contracts,
                   int width, const ExecOptions& options)
    : options_(&options),
      wall_start_(std::chrono::steady_clock::now()),
      tracker_(contracts),
      clock_(options.cost),
      width_(width) {
  report_.engine = std::move(engine);
}

void BatchRun::Report(int q, int64_t tuple_id, const double* row) {
  ChargeResult(q, tuple_id, options_->capture_results ? row : nullptr,
               width_, tracker_, clock_, report_.stats, report_.queries,
               options_->on_result);
}

ExecutionReport BatchRun::Finish() {
  for (int q = 0; q < static_cast<int>(report_.queries.size()); ++q) {
    const QuerySatisfaction& s = tracker_.satisfaction(q);
    QueryReport& query = report_.queries[q];
    query.pscore = s.pscore;
    query.results = s.results;
    query.satisfaction = s.average();
    for (const UtilitySample& sample : tracker_.samples(q)) {
      query.utility_trace.push_back(
          UtilityTracePoint{sample.time, sample.utility});
    }
  }
  report_.workload_pscore = tracker_.WorkloadPScore();
  report_.average_satisfaction = tracker_.WorkloadAverageSatisfaction();
  report_.stats.virtual_seconds = clock_.Now();
  report_.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  if (options_->obs != nullptr) {
    RecordEngineStats(options_->obs->metrics, report_.stats,
                      "engine=\"" + report_.engine + "\"");
  }
  return std::move(report_);
}

}  // namespace caqe
