// Join and tracker helpers of the per-query baselines (JFSL, SSMJ, SSMJ+
// and Serial-TopK). The run itself — input checks, tracker, clock, the one
// result charge and the finished report — is BatchRun (exec/engine.h), so
// a baseline differs from CAQE only in when it reports a result.
#ifndef CAQE_BASELINES_BASELINE_UTIL_H_
#define CAQE_BASELINES_BASELINE_UTIL_H_

#include <vector>

#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "data/table.h"
#include "metrics/report.h"
#include "query/query.h"
#include "skyline/point_set.h"

namespace caqe {

/// Materializes the full equi-join of workload query `q` under its
/// selection ranges: probes a hash index over T and projects every match
/// through the workload's mapping functions into `out` (width =
/// workload.num_output_dims()), charging probes/results to `stats` and
/// `clock`.
void FullJoinProjectForQuery(const Table& r, const Table& t,
                             const Workload& workload, int q, PointSet& out,
                             EngineStats& stats, VirtualClock& clock);

/// Seeds the tracker's per-query result-cardinality totals: the caller's
/// known exact counts when provided (ExecOptions::known_result_counts),
/// otherwise the Buchta estimate over the query's exact join size.
void SeedTrackerTotals(const Table& r, const Table& t,
                       const Workload& workload,
                       const std::vector<double>& known_result_counts,
                       SatisfactionTracker& tracker);

}  // namespace caqe

#endif  // CAQE_BASELINES_BASELINE_UTIL_H_
