#include "exec/engine.h"

#include <algorithm>
#include <cmath>

namespace caqe {

int ChooseCellsPerDim(const EngineOptions& options, int num_attrs,
                      int64_t num_rows) {
  if (options.cells_per_dim > 0) return options.cells_per_dim;
  // Region count is (cells per table)^2, so aim each table at
  // sqrt(target_regions) cells: cells_per_dim = target^(1/(2d)).
  const double target = std::max(16, options.target_regions);
  int cpd = std::max(
      2, static_cast<int>(std::floor(
             std::pow(target, 1.0 / (2.0 * std::max(1, num_attrs))))));
  // Avoid over-partitioning tiny tables (aim for >= 8 rows per cell).
  while (cpd > 1 &&
         std::pow(cpd, num_attrs) * 8.0 > static_cast<double>(num_rows)) {
    --cpd;
  }
  return std::max(1, cpd);
}

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

}  // namespace caqe
