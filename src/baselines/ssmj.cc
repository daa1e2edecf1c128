#include "baselines/ssmj.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "baselines/baseline_util.h"
#include "skyline/algorithms.h"

namespace caqe {
namespace {

// Attribute indices of one table referenced by the query's preferred output
// dimensions (duplicates removed).
std::vector<int> SideDims(const Workload& workload, const SjQuery& query,
                          bool r_side) {
  std::vector<int> dims;
  for (int k : query.preference) {
    const MappingFunction& f = workload.output_dim(k);
    dims.push_back(r_side ? f.r_attr : f.t_attr);
  }
  std::sort(dims.begin(), dims.end());
  dims.erase(std::unique(dims.begin(), dims.end()), dims.end());
  return dims;
}

// Rows of `table` in `rows` that are locally non-dominated over `dims`
// (ties kept: equal tuples cannot dominate each other).
std::vector<int64_t> LocalSkyline(const Table& table,
                                  const std::vector<int64_t>& rows,
                                  const std::vector<int>& dims,
                                  int64_t* cmps) {
  PointSet points(static_cast<int>(dims.size()));
  points.Reserve(static_cast<int64_t>(rows.size()));
  std::vector<double> values(dims.size());
  for (int64_t row : rows) {
    for (size_t i = 0; i < dims.size(); ++i) {
      values[i] = table.attr(row, dims[i]);
    }
    points.Append(values);
  }
  std::vector<int> all_dims(dims.size());
  for (size_t i = 0; i < dims.size(); ++i) all_dims[i] = static_cast<int>(i);
  const std::vector<int64_t> sky = BnlSkyline(points, all_dims, cmps);
  std::vector<int64_t> result;
  result.reserve(sky.size());
  for (int64_t idx : sky) result.push_back(rows[idx]);
  return result;
}

// Shared skeleton of the two SSMJ variants: per query (priority order),
// group inputs by join key, materialize candidate combinations (optionally
// pruning each group's inputs to their local skylines first), run a
// sort-filter skyline, and emit at query completion.
Result<ExecutionReport> RunSsmj(const std::string& engine_name,
                                bool prune_group_inputs, const Table& r,
                                const Table& t, const Workload& workload,
                                const std::vector<Contract>& contracts,
                                const ExecOptions& options) {
  Result<BatchRun> started =
      BatchRun::Start(engine_name, r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;
  EngineStats& stats = run.report().stats;
  VirtualClock& clock = run.clock();
  SeedTrackerTotals(r, t, workload, options.known_result_counts,
                    run.tracker());

  for (int q : workload.QueriesByPriority()) {
    const SjQuery& query = workload.query(q);
    const int key = query.join_key;

    // Group both inputs by join key, dropping rows failing this query's
    // single-sided selections (the "sort" phase; charged as probes).
    auto side_passes = [&](bool on_r, const Table& table, int64_t row) {
      for (const SelectionRange& sel : query.selections) {
        if (sel.on_r != on_r) continue;
        const double v = table.attr(row, sel.attr);
        if (v < sel.lo || v > sel.hi) return false;
      }
      return true;
    };
    std::unordered_map<int32_t, std::vector<int64_t>> groups_r;
    std::unordered_map<int32_t, std::vector<int64_t>> groups_t;
    for (int64_t row = 0; row < r.num_rows(); ++row) {
      if (side_passes(true, r, row)) groups_r[r.key(row, key)].push_back(row);
    }
    for (int64_t row = 0; row < t.num_rows(); ++row) {
      if (side_passes(false, t, row)) groups_t[t.key(row, key)].push_back(row);
    }
    stats.join_probes += r.num_rows() + t.num_rows();
    clock.ChargeJoinProbes(r.num_rows() + t.num_rows());

    const std::vector<int> dims_r = SideDims(workload, query, true);
    const std::vector<int> dims_t = SideDims(workload, query, false);

    PointSet candidates(workload.num_output_dims());
    std::vector<double> values;
    int64_t local_cmps = 0;
    int64_t results = 0;
    for (const auto& [value, rows_r] : groups_r) {
      const auto it = groups_t.find(value);
      if (it == groups_t.end()) continue;
      const std::vector<int64_t>& left =
          prune_group_inputs ? LocalSkyline(r, rows_r, dims_r, &local_cmps)
                             : rows_r;
      std::vector<int64_t> pruned_right;
      if (prune_group_inputs) {
        pruned_right = LocalSkyline(t, it->second, dims_t, &local_cmps);
      }
      const std::vector<int64_t>& right =
          prune_group_inputs ? pruned_right : it->second;
      candidates.Reserve(candidates.size() +
                         static_cast<int64_t>(left.size() * right.size()));
      for (int64_t row_r : left) {
        for (int64_t row_t : right) {
          workload.Project(r, row_r, t, row_t, values);
          candidates.Append(values);
          ++results;
        }
      }
    }
    stats.join_results += results;
    stats.dominance_cmps += local_cmps;
    clock.ChargeJoinResults(results);
    clock.ChargeDominanceCmps(local_cmps);

    // Global skyline over the (sorted) candidates.
    const double n = static_cast<double>(candidates.size());
    const int64_t sort_ops = static_cast<int64_t>(n * std::log2(n + 1.0));
    stats.coarse_ops += sort_ops;
    clock.ChargeCoarseOps(sort_ops);
    int64_t cmps = 0;
    const std::vector<int64_t> sky =
        SfsSkyline(candidates, query.preference, &cmps);
    stats.dominance_cmps += cmps;
    clock.ChargeDominanceCmps(cmps);

    for (int64_t id : sky) run.Report(q, id, candidates.row(id));
  }

  return run.Finish();
}

}  // namespace

Result<ExecutionReport> SsmjEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  return RunSsmj(name(), /*prune_group_inputs=*/false, r, t, workload,
                 contracts, options);
}

Result<ExecutionReport> SsmjPlusEngine::Execute(
    const Table& r, const Table& t, const Workload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  return RunSsmj(name(), /*prune_group_inputs=*/true, r, t, workload,
                 contracts, options);
}

}  // namespace caqe
