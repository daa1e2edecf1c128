#include "baselines/progxe.h"

#include <memory>

#include "common/thread_pool.h"
#include "exec/shared_core.h"

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
  Result<BatchRun> started =
      BatchRun::Start(name(), r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;

  // One pool serves partitioning and every per-query core run.
  const std::unique_ptr<ThreadPool> pool_owner =
      MakeWorkerPool(options.num_threads);
  ThreadPool* const pool = pool_owner.get();

  // Input partitioning is query-independent; build it once (ProgXe
  // pre-partitions its inputs the same way).
  Result<PartitionedInputs> parts =
      PartitionInputs(r, t, workload, options, pool);
  CAQE_RETURN_NOT_OK(parts.status());

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
    CAQE_RETURN_NOT_OK(RunSharedCore(parts->r, parts->t, sliced, mapping,
                                     run.tracker(), run.clock(),
                                     run.report().stats,
                                     run.report().queries, core));
  }
  return run.Finish();
}

}  // namespace caqe
