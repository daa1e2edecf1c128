// Abstract engine interface implemented by CAQE and every baseline, and the
// pieces every engine's Execute shares: input partitioning, the one result
// charge and the batch run skeleton.
#ifndef CAQE_EXEC_ENGINE_H_
#define CAQE_EXEC_ENGINE_H_

#include <chrono>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
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

/// R and T partitioned for one region-based run.
struct PartitionedInputs {
  PartitionedTable r;
  PartitionedTable t;
};

/// Partitions both inputs of `workload` for region-based execution: one
/// AdaptiveTargetRegions target, then PartitionForRegions on each side
/// (sharing `pool`). Every region-based engine and the server start here.
/// Returns InvalidArgument when options.target_regions is below 1.
Result<PartitionedInputs> PartitionInputs(const Table& r, const Table& t,
                                          const Workload& workload,
                                          const EngineOptions& options,
                                          ThreadPool* pool = nullptr);

/// The charge of one reported result, shared by every engine (BatchRun's
/// Report and the region pipeline's emission), in this order: reads the
/// report time off `clock`, scores the result on `tracker`, charges one
/// emit to the clock, counts it in `stats`, streams (q, time, utility) to
/// `on_result` and, when `row` is non-null, captures the tuple — its id,
/// time, utility and `width` values — into `reports[q]`. Returns the
/// report time and utility.
UtilitySample ChargeResult(
    int q, int64_t tuple_id, const double* row, int width,
    SatisfactionTracker& tracker, VirtualClock& clock, EngineStats& stats,
    std::vector<QueryReport>& reports,
    const std::function<void(int query, double time, double utility)>&
        on_result);

/// The skeleton every batch Execute shares: the input checks, the wall
/// timer, the SatisfactionTracker, the VirtualClock and the report (engine
/// name and query names). The engine runs its strategy against tracker(),
/// clock() and report(), reports each result through Report() (or lets the
/// region pipeline charge it), and returns Finish().
class BatchRun {
 public:
  /// Checks `workload` against R and T and that there is one contract per
  /// query, then starts the wall timer. `AnyWorkload` is a skyline
  /// Workload or a TopKWorkload.
  template <typename AnyWorkload>
  static Result<BatchRun> Start(std::string engine, const Table& r,
                                const Table& t, const AnyWorkload& workload,
                                const std::vector<Contract>& contracts,
                                const ExecOptions& options) {
    CAQE_RETURN_NOT_OK(workload.Validate(r, t));
    if (static_cast<int>(contracts.size()) != workload.num_queries()) {
      return Status::InvalidArgument("one contract per query required");
    }
    BatchRun run(std::move(engine), contracts, workload.num_output_dims(),
                 options);
    run.report_.queries.resize(workload.num_queries());
    for (int q = 0; q < workload.num_queries(); ++q) {
      run.report_.queries[q].name = workload.query(q).name;
    }
    return run;
  }

  SatisfactionTracker& tracker() { return tracker_; }
  VirtualClock& clock() { return clock_; }
  ExecutionReport& report() { return report_; }

  /// Charges one result of query `q` (see ChargeResult): tuple `tuple_id`,
  /// whose row holds the workload's output dimensions and is captured when
  /// options.capture_results is set.
  void Report(int q, int64_t tuple_id, const double* row);

  /// Copies every query's pScore, result count, satisfaction and utility
  /// trace from the tracker into the report, stamps the virtual and wall
  /// seconds, records the engine counters into options.obs when one is
  /// attached, and hands the report over.
  ExecutionReport Finish();

 private:
  BatchRun(std::string engine, const std::vector<Contract>& contracts,
           int width, const ExecOptions& options);

  const ExecOptions* options_;
  std::chrono::steady_clock::time_point wall_start_;
  SatisfactionTracker tracker_;
  VirtualClock clock_;
  ExecutionReport report_;
  /// Values per reported row (the workload's output dimensions).
  int width_;
};

}  // namespace caqe

#endif  // CAQE_EXEC_ENGINE_H_
