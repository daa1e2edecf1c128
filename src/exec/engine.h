// Abstract engine interface implemented by CAQE and every baseline.
#ifndef CAQE_EXEC_ENGINE_H_
#define CAQE_EXEC_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "contracts/utility.h"
#include "data/table.h"
#include "exec/options.h"
#include "metrics/report.h"
#include "partition/partitioner.h"
#include "query/query.h"

namespace caqe {

/// A multi-query execution strategy for skyline-over-join workloads.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Engine label used in reports ("CAQE", "S-JFSL", ...).
  virtual std::string name() const = 0;

  /// Executes `workload` over R and T, scoring results against
  /// `contracts[i]` for query i. Returns the execution report or an error
  /// for invalid inputs.
  virtual Result<ExecutionReport> Execute(
      const Table& r, const Table& t, const Workload& workload,
      const std::vector<Contract>& contracts, const ExecOptions& options) = 0;
};

/// Picks a grid granularity so that the number of cell pairs stays near
/// `options.target_regions` (used by every region-based engine).
int ChooseCellsPerDim(const EngineOptions& options, int num_attrs,
                      int64_t num_rows);

/// Exact equi-join output size of key column `key` between R and T: the
/// merge (ExactJoinSize) of the two tables' whole-table key runs, each built
/// by AppendKeyRuns' radix sort — O(|R| + |T|).
int64_t ExactTotalJoinSize(const Table& r, const Table& t, int key);

/// Partitions a table for region-based execution: honors an explicit
/// options.cells_per_dim, otherwise chooses a slice vector targeting
/// sqrt(target_regions) cells (bounded so cells keep >= 8 rows on average).
/// With a pool, the quad-tree strategy finalizes cells concurrently
/// (deterministic stripes — identical cells at any thread count).
Result<PartitionedTable> PartitionForRegions(const Table& table,
                                             const EngineOptions& options,
                                             int target_regions,
                                             ThreadPool* pool = nullptr);

/// Scales the region-count target down for small workloads so the coarse
/// machinery (region build, dependency graph, benefit scans) stays
/// proportional to the tuple-level work: aims for at least ~500 expected
/// join results per region, within [16, options.target_regions].
int AdaptiveTargetRegions(const EngineOptions& options, const Table& r,
                          const Table& t, const Workload& workload);

}  // namespace caqe

#endif  // CAQE_EXEC_ENGINE_H_
