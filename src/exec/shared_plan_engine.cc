#include "exec/shared_plan_engine.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/thread_pool.h"
#include "obs/observability.h"

namespace caqe {

Result<ExecutionReport> SharedPlanEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  CAQE_RETURN_NOT_OK(workload.Validate(r, t));
  if (static_cast<int>(contracts.size()) != workload.num_queries()) {
    return Status::InvalidArgument("one contract per query required");
  }
  const auto wall_start = std::chrono::steady_clock::now();

  // One pool serves partitioning and the execution core (the core only
  // creates its own when none is handed in).
  const std::unique_ptr<ThreadPool> pool_owner =
      MakeWorkerPool(options.num_threads);
  ThreadPool* const pool = pool_owner.get();

  const int target_regions = AdaptiveTargetRegions(options, r, t, workload);
  Result<PartitionedTable> part_r =
      PartitionForRegions(r, options, target_regions, pool);
  CAQE_RETURN_NOT_OK(part_r.status());
  Result<PartitionedTable> part_t =
      PartitionForRegions(t, options, target_regions, pool);
  CAQE_RETURN_NOT_OK(part_t.status());

  SatisfactionTracker tracker(contracts);
  VirtualClock clock(options.cost);
  ExecutionReport report;
  report.engine = name_;
  report.queries.resize(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    report.queries[q].name = workload.query(q).name;
  }

  std::vector<int> identity(workload.num_queries());
  std::iota(identity.begin(), identity.end(), 0);

  CoreOptions core(options);
  core.policy = policy_;
  core.pool = pool;
  core.coarse_prune = coarse_prune_ && options.coarse_prune;
  core.feedback = feedback_ && options.feedback_enabled;
  core.tuple_discard = tuple_discard_;

  CAQE_RETURN_NOT_OK(RunSharedCore(*part_r, *part_t, workload, identity,
                                   tracker, clock, report.stats,
                                   report.queries, core));

  for (int q = 0; q < workload.num_queries(); ++q) {
    const QuerySatisfaction& s = tracker.satisfaction(q);
    report.queries[q].pscore = s.pscore;
    report.queries[q].results = s.results;
    report.queries[q].satisfaction = s.average();
    for (const UtilitySample& sample : tracker.samples(q)) {
      report.queries[q].utility_trace.push_back(
          UtilityTracePoint{sample.time, sample.utility});
    }
  }
  report.workload_pscore = tracker.WorkloadPScore();
  report.average_satisfaction = tracker.WorkloadAverageSatisfaction();
  report.stats.virtual_seconds = clock.Now();
  report.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  if (options.obs != nullptr) {
    RecordEngineStats(options.obs->metrics, report.stats);
  }
  return report;
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
