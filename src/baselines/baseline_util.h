// Shared helpers for the baseline engines.
#ifndef CAQE_BASELINES_BASELINE_UTIL_H_
#define CAQE_BASELINES_BASELINE_UTIL_H_

#include <chrono>
#include <vector>

#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "data/table.h"
#include "metrics/report.h"
#include "query/query.h"
#include "skyline/point_set.h"

namespace caqe {

/// Wall-clock stopwatch for engine runs.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Materializes the full equi-join of one query: probes a hash index over
/// T, projects every match through the workload's mapping functions into
/// `out` (width = workload.num_output_dims()), charging probes/results to
/// `stats` and `clock`.
void FullJoinProject(const Table& r, const Table& t, const Workload& workload,
                     int key, PointSet& out, EngineStats& stats,
                     VirtualClock& clock);

/// Like FullJoinProject but for workload query `q`: applies the query's
/// selection ranges in addition to its join predicate.
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

/// Copies tracker totals into the report's per-query entries and fills the
/// aggregate fields.
void FinalizeReport(const SatisfactionTracker& tracker,
                    const VirtualClock& clock, const WallTimer& timer,
                    ExecutionReport& report);

}  // namespace caqe

#endif  // CAQE_BASELINES_BASELINE_UTIL_H_
