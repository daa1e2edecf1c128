#include "baselines/progxe.h"

#include <memory>

#include "baselines/baseline_util.h"
#include "common/thread_pool.h"
#include "exec/shared_core.h"
#include "obs/observability.h"
#include "partition/partitioner.h"

namespace caqe {
namespace {

// Single-query projection of the workload: keeps only the output dimensions
// the query prefers (remapped to 0..d-1), its join key, and its priority.
Workload SliceWorkload(const Workload& workload, int q) {
  const SjQuery& query = workload.query(q);
  Workload sliced;
  std::vector<int> remapped;
  for (int k : query.preference) {
    remapped.push_back(sliced.AddOutputDim(workload.output_dim(k)));
  }
  SjQuery single = query;
  single.preference = remapped;
  sliced.AddQuery(std::move(single));
  return sliced;
}

}  // namespace

Result<ExecutionReport> ProgXeEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  CAQE_RETURN_NOT_OK(workload.Validate(r, t));
  if (static_cast<int>(contracts.size()) != workload.num_queries()) {
    return Status::InvalidArgument("one contract per query required");
  }
  const WallTimer timer;
  SatisfactionTracker tracker(contracts);
  VirtualClock clock(options.cost);

  ExecutionReport report;
  report.engine = name();
  report.queries.resize(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    report.queries[q].name = workload.query(q).name;
  }

  // One pool serves partitioning and every per-query core run.
  const std::unique_ptr<ThreadPool> pool_owner =
      MakeWorkerPool(options.num_threads);
  ThreadPool* const pool = pool_owner.get();

  // Input partitioning is query-independent; build it once (ProgXe
  // pre-partitions its inputs the same way).
  const int target_regions = AdaptiveTargetRegions(options, r, t, workload);
  Result<PartitionedTable> part_r =
      PartitionForRegions(r, options, target_regions, pool);
  CAQE_RETURN_NOT_OK(part_r.status());
  Result<PartitionedTable> part_t =
      PartitionForRegions(t, options, target_regions, pool);
  CAQE_RETURN_NOT_OK(part_t.status());

  CoreOptions core(options);
  core.policy = SchedulePolicy::kCountDriven;
  core.pool = pool;
  core.coarse_prune = true;  // ProgXe prunes its output space.
  core.feedback = false;     // Count-driven, not satisfaction-driven.

  // One independent run per query on the shared clock; joins, regions, and
  // skylines are all re-done per query.
  for (int q : workload.QueriesByPriority()) {
    const Workload sliced = SliceWorkload(workload, q);
    const std::vector<int> mapping = {q};
    CAQE_RETURN_NOT_OK(RunSharedCore(*part_r, *part_t, sliced, mapping,
                                     tracker, clock, report.stats,
                                     report.queries, core));
  }

  FinalizeReport(tracker, clock, timer, report);
  if (options.obs != nullptr) {
    RecordEngineStats(options.obs->metrics, report.stats);
  }
  return report;
}

}  // namespace caqe
