#include "baselines/jfsl.h"

#include "baselines/baseline_util.h"
#include "skyline/algorithms.h"

namespace caqe {

Result<ExecutionReport> JfslEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  Result<BatchRun> started =
      BatchRun::Start(name(), r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;
  EngineStats& stats = run.report().stats;
  VirtualClock& clock = run.clock();
  SeedTrackerTotals(r, t, workload, options.known_result_counts,
                    run.tracker());

  for (int q : workload.QueriesByPriority()) {
    const SjQuery& query = workload.query(q);
    // Full join (with the query's selections), re-done per query.
    PointSet joined(workload.num_output_dims());
    FullJoinProjectForQuery(r, t, workload, q, joined, stats, clock);

    // Blocking skyline over the materialized join output in arrival order
    // (no presort — the source of JFSL's comparison blow-up in Fig. 10.b).
    int64_t cmps = 0;
    const std::vector<int64_t> sky =
        BnlSkyline(joined, query.preference, &cmps);
    stats.dominance_cmps += cmps;
    clock.ChargeDominanceCmps(cmps);

    // Everything is reported only now, when the query completes.
    for (int64_t id : sky) run.Report(q, id, joined.row(id));
  }

  return run.Finish();
}

}  // namespace caqe
