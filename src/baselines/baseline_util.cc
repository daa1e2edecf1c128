#include "baselines/baseline_util.h"

#include <unordered_map>

#include "exec/engine.h"
#include "skyline/cardinality.h"

namespace caqe {

void FullJoinProjectForQuery(const Table& r, const Table& t,
                             const Workload& workload, int q, PointSet& out,
                             EngineStats& stats, VirtualClock& clock) {
  const SjQuery& query = workload.query(q);
  std::unordered_map<int32_t, std::vector<int64_t>> index;
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    index[t.key(row, query.join_key)].push_back(row);
  }
  stats.join_probes += t.num_rows();
  clock.ChargeJoinProbes(t.num_rows());

  std::vector<double> values;
  int64_t results = 0;
  for (int64_t row_r = 0; row_r < r.num_rows(); ++row_r) {
    ++stats.join_probes;
    const auto it = index.find(r.key(row_r, query.join_key));
    if (it == index.end()) continue;
    for (int64_t row_t : it->second) {
      if (!workload.SelectionsPass(q, r, row_r, t, row_t)) continue;
      workload.Project(r, row_r, t, row_t, values);
      out.Append(values);
      ++results;
    }
  }
  stats.join_results += results;
  clock.ChargeJoinProbes(r.num_rows());
  clock.ChargeJoinResults(results);
}

void SeedTrackerTotals(const Table& r, const Table& t,
                       const Workload& workload,
                       const std::vector<double>& known_result_counts,
                       SatisfactionTracker& tracker) {
  for (int q = 0; q < workload.num_queries(); ++q) {
    double total = 0.0;
    if (q < static_cast<int>(known_result_counts.size())) {
      total = known_result_counts[q];
    }
    if (total <= 0.0) {
      total = BuchtaSkylineCardinality(
          static_cast<double>(
              ExactTotalJoinSize(r, t, workload.query(q).join_key)),
          static_cast<int>(workload.query(q).preference.size()));
    }
    tracker.SetEstimatedTotal(q, total);
  }
}

}  // namespace caqe
