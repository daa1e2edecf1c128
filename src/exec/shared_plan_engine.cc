#include "exec/shared_plan_engine.h"

#include <memory>
#include <numeric>

#include "common/thread_pool.h"

namespace caqe {

Result<ExecutionReport> SharedPlanEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  Result<BatchRun> started =
      BatchRun::Start(name_, r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;

  // One pool serves partitioning and the execution core (the core only
  // creates its own when none is handed in).
  const std::unique_ptr<ThreadPool> pool_owner =
      MakeWorkerPool(options.num_threads);
  ThreadPool* const pool = pool_owner.get();
  Result<PartitionedInputs> parts =
      PartitionInputs(r, t, workload, options, pool);
  CAQE_RETURN_NOT_OK(parts.status());

  std::vector<int> identity(workload.num_queries());
  std::iota(identity.begin(), identity.end(), 0);

  CoreOptions core(options);
  core.policy = policy_;
  core.pool = pool;
  core.coarse_prune = coarse_prune_ && options.coarse_prune;
  core.feedback = feedback_ && options.feedback_enabled;
  core.tuple_discard = tuple_discard_;

  CAQE_RETURN_NOT_OK(RunSharedCore(parts->r, parts->t, workload, identity,
                                   run.tracker(), run.clock(),
                                   run.report().stats, run.report().queries,
                                   core));
  return run.Finish();
}

SharedPlanEngine MakeCaqeEngine() {
  return SharedPlanEngine("CAQE", SchedulePolicy::kContractDriven,
                          /*coarse_prune=*/true, /*feedback=*/true);
}

SharedPlanEngine MakeSJfslEngine() {
  return SharedPlanEngine("S-JFSL", SchedulePolicy::kStaticScan,
                          /*coarse_prune=*/false, /*feedback=*/false,
                          /*tuple_discard=*/false);
}

SharedPlanEngine MakeCaqeNoFeedbackEngine() {
  return SharedPlanEngine("CAQE-nofb", SchedulePolicy::kContractDriven,
                          /*coarse_prune=*/true, /*feedback=*/false);
}

SharedPlanEngine MakeCaqeNoPruneEngine() {
  return SharedPlanEngine("CAQE-noprune", SchedulePolicy::kContractDriven,
                          /*coarse_prune=*/false, /*feedback=*/true);
}

SharedPlanEngine MakeCaqeCountDrivenEngine() {
  return SharedPlanEngine("CAQE-count", SchedulePolicy::kCountDriven,
                          /*coarse_prune=*/true, /*feedback=*/false);
}

}  // namespace caqe
