#include "topk/topk_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "baselines/baseline_util.h"
#include "exec/engine.h"
#include "exec/join_kernel.h"
#include "optimizer/scheduler.h"
#include "region/region_builder.h"
#include "skyline/point_set.h"

namespace caqe {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Weighted score of a region's best feasible tuple for query q — an
// admissible lower bound under monotone mappings and non-negative weights.
double RegionScoreBound(const OutputRegion& region, const TopKQuery& query) {
  double bound = 0.0;
  for (size_t i = 0; i < query.weights.size(); ++i) {
    bound += query.weights[i] * region.lower[i];
  }
  return bound;
}

// Per-query candidate state: the best (k - emitted) results seen so far,
// ascending by score.
struct QueryState {
  std::multimap<double, int64_t> candidates;
  int64_t emitted = 0;
  int64_t k = 0;

  int64_t remaining() const { return k - emitted; }
  /// Score a new tuple must beat to matter; +inf while unsaturated.
  double KthBound() const {
    if (remaining() <= 0) return -kInf;  // Nothing can matter any more.
    if (static_cast<int64_t>(candidates.size()) < remaining()) return kInf;
    return candidates.rbegin()->first;
  }
};

}  // namespace

Result<ExecutionReport> ContractAwareTopKEngine::Execute(
    const Table& r, const Table& t, const TopKWorkload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  Result<BatchRun> started =
      BatchRun::Start(name(), r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;
  SatisfactionTracker& tracker = run.tracker();
  VirtualClock& clock = run.clock();
  EngineStats& stats = run.report().stats;

  // Regions are query-class agnostic: reuse the coarse join machinery.
  const Workload region_workload = workload.AsRegionWorkload();
  Result<PartitionedInputs> parts =
      PartitionInputs(r, t, region_workload, options);
  CAQE_RETURN_NOT_OK(parts.status());
  const PartitionedTable& part_r = parts->r;
  const PartitionedTable& part_t = parts->t;
  Result<RegionCollection> rc_result =
      BuildRegions(part_r, part_t, region_workload);
  CAQE_RETURN_NOT_OK(rc_result.status());
  RegionCollection rc = std::move(rc_result).value();
  stats.regions_built = static_cast<int64_t>(rc.regions.size());
  stats.coarse_ops += rc.coarse_ops;
  clock.ChargeCoarseOps(rc.coarse_ops);

  // Contract totals: a top-k query expects exactly min(k, join size)
  // results.
  std::vector<QueryState> states(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    states[q].k = workload.query(q).k;
    double total = 0.0;
    if (q < static_cast<int>(options.known_result_counts.size())) {
      total = options.known_result_counts[q];
    }
    if (total <= 0.0) {
      total = static_cast<double>(std::min<int64_t>(
          workload.query(q).k,
          rc.total_join_sizes[rc.slot_of_query[q]]));
    }
    tracker.SetEstimatedTotal(q, total);
  }

  std::vector<char> pending(rc.regions.size(), 0);
  int64_t pending_count = 0;
  for (const OutputRegion& region : rc.regions) {
    if (!region.rql.empty()) {
      pending[region.id] = 1;
      ++pending_count;
    }
  }

  // Precomputed per-(region, query) score bounds.
  std::vector<std::vector<double>> bounds(rc.regions.size());
  for (const OutputRegion& region : rc.regions) {
    bounds[region.id].resize(workload.num_queries(), kInf);
    region.rql.ForEach([&](int q) {
      bounds[region.id][q] = RegionScoreBound(region, workload.query(q));
      ++stats.coarse_ops;
    });
  }
  clock.ChargeCoarseOps(static_cast<int64_t>(rc.regions.size()));

  PointSet store(workload.num_output_dims());
  CellJoinKernel join_kernel(&part_r, &part_t);
  std::vector<double> weights(workload.num_queries(), 1.0);
  const std::vector<char> all_queries(workload.num_queries(), 1);

  auto emit = [&](int q, int64_t id) {
    ++states[q].emitted;
    run.Report(q, id, store.row(id));
  };

  // Estimated processing time of a region (RegionCost's probe and result
  // terms over the slots it serves, with heap maintenance as the
  // comparison term).
  auto estimate_cost = [&](const OutputRegion& region) {
    double probes = 0.0;
    double results = 0.0;
    for (uint32_t rest = rc.ServedSlots(region); rest != 0; rest &= rest - 1) {
      probes += static_cast<double>(region.rows_r + region.rows_t);
      results += static_cast<double>(region.join_sizes[std::countr_zero(rest)]);
    }
    const CostModel& cost = clock.cost_model();
    return cost.join_probe_seconds * probes +
           cost.join_result_seconds * results +
           cost.dominance_cmp_seconds * results * 8.0 +
           cost.schedule_seconds;
  };

  std::vector<JoinMatch> matches;
  std::vector<double> values;
  while (pending_count > 0) {
    // ---- Contract-driven pick: utility-weighted expected yield. ----
    int best_region = -1;
    double best_score = -kInf;
    for (const OutputRegion& region : rc.regions) {
      if (!pending[region.id]) continue;
      const double t_c = estimate_cost(region);
      double score = 0.0;
      region.rql.ForEach([&](int q) {
        ++stats.coarse_ops;
        const int64_t join_size =
            region.join_sizes[rc.slot_of_query[q]];
        const double expected = static_cast<double>(
            std::min<int64_t>(states[q].remaining(), join_size));
        if (expected <= 0.0) return;
        const double u = tracker.PreviewUtility(
            q, clock.Now() + t_c, static_cast<int64_t>(expected));
        // Better (smaller) bounds first among equal utility.
        score += weights[q] * expected * u /
                 (1.0 + bounds[region.id][q]);
      });
      if (score > best_score) {
        best_score = score;
        best_region = region.id;
      }
    }
    CAQE_CHECK(best_region >= 0);
    clock.ChargeScheduleSteps(1);
    OutputRegion& region = rc.regions[best_region];

    // ---- Tuple-level join + candidate maintenance. ----
    const uint32_t slots_mask = rc.ServedSlots(region);
    matches.clear();
    const int64_t probes_before = stats.join_probes;
    const int64_t results_before = stats.join_results;
    join_kernel.Join(rc, region, slots_mask, matches, stats);
    clock.ChargeJoinProbes(stats.join_probes - probes_before);
    clock.ChargeJoinResults(stats.join_results - results_before);

    int64_t heap_ops = 0;
    store.Reserve(store.size() + static_cast<int64_t>(matches.size()));
    for (const JoinMatch& match : matches) {
      workload.Project(part_r.table(), match.row_r, part_t.table(),
                       match.row_t, values);
      const int64_t id = store.Append(values);
      region.rql.ForEach([&](int q) {
        const int slot = rc.slot_of_query[q];
        if (((match.slot_mask >> slot) & 1) == 0) return;
        QueryState& state = states[q];
        ++heap_ops;
        const double score = workload.Score(q, store.row(id));
        if (score >= state.KthBound()) return;
        state.candidates.emplace(score, id);
        heap_ops += static_cast<int64_t>(
            std::log2(1.0 + static_cast<double>(state.candidates.size())));
        if (static_cast<int64_t>(state.candidates.size()) >
            state.remaining()) {
          state.candidates.erase(std::prev(state.candidates.end()));
        }
      });
    }
    stats.dominance_cmps += heap_ops;
    clock.ChargeDominanceCmps(heap_ops);

    pending[best_region] = 0;
    --pending_count;
    ++stats.regions_processed;

    // ---- Bound-based discarding + safe emission. ----
    int64_t coarse = 0;
    for (int q = 0; q < workload.num_queries(); ++q) {
      QueryState& state = states[q];
      // Discard pending regions that cannot affect this query any more.
      const double kth = state.KthBound();
      for (OutputRegion& other : rc.regions) {
        if (!pending[other.id] || !other.rql.Contains(q)) continue;
        ++coarse;
        if (bounds[other.id][q] >= kth) {
          other.rql.Remove(q);
          if (other.rql.empty()) {
            pending[other.id] = 0;
            --pending_count;
            ++stats.regions_discarded;
          }
        }
      }
      // Emit candidates no pending region can beat.
      double min_bound = kInf;
      for (const OutputRegion& other : rc.regions) {
        if (!pending[other.id] || !other.rql.Contains(q)) continue;
        ++coarse;
        min_bound = std::min(min_bound, bounds[other.id][q]);
      }
      while (!state.candidates.empty() && state.remaining() > 0 &&
             state.candidates.begin()->first <= min_bound) {
        const auto best = state.candidates.begin();
        emit(q, best->second);
        state.candidates.erase(best);
      }
    }
    stats.coarse_ops += coarse;
    clock.ChargeCoarseOps(coarse);

    // ---- Satisfaction feedback (Eq. 11). ----
    if (options.feedback_enabled) {
      ApplySatisfactionFeedback(tracker, all_queries, &weights);
    }
  }

  // Fewer than k results exist: drain what remains.
  for (int q = 0; q < workload.num_queries(); ++q) {
    QueryState& state = states[q];
    while (!state.candidates.empty() && state.remaining() > 0) {
      const auto best = state.candidates.begin();
      emit(q, best->second);
      state.candidates.erase(best);
    }
  }

  return run.Finish();
}

Result<ExecutionReport> SerialTopKEngine::Execute(
    const Table& r, const Table& t, const TopKWorkload& workload,
    const std::vector<Contract>& contracts, const ExecOptions& options) {
  Result<BatchRun> started =
      BatchRun::Start(name(), r, t, workload, contracts, options);
  CAQE_RETURN_NOT_OK(started.status());
  BatchRun& run = *started;
  VirtualClock& clock = run.clock();
  EngineStats& stats = run.report().stats;

  std::vector<int> order(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    order[q] = q;
    double total = 0.0;
    if (q < static_cast<int>(options.known_result_counts.size())) {
      total = options.known_result_counts[q];
    }
    if (total <= 0.0) {
      total = static_cast<double>(std::min<int64_t>(
          workload.query(q).k,
          ExactTotalJoinSize(r, t, workload.query(q).join_key)));
    }
    run.tracker().SetEstimatedTotal(q, total);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return workload.query(a).priority > workload.query(b).priority;
  });

  // The region workload projects over the same output dims; its queries
  // keep each join key and carry no selections, so the join below is the
  // top-k query's full join.
  const Workload projection = workload.AsRegionWorkload();

  for (int q : order) {
    const TopKQuery& query = workload.query(q);
    PointSet joined(workload.num_output_dims());
    FullJoinProjectForQuery(r, t, projection, q, joined, stats, clock);

    std::vector<std::pair<double, int64_t>> scored;
    scored.reserve(joined.size());
    for (int64_t i = 0; i < joined.size(); ++i) {
      scored.emplace_back(workload.Score(q, joined.row(i)), i);
    }
    const int64_t k =
        std::min<int64_t>(query.k, static_cast<int64_t>(scored.size()));
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end());
    const int64_t sort_ops = static_cast<int64_t>(
        static_cast<double>(scored.size()) *
        std::log2(1.0 + static_cast<double>(std::max<int64_t>(1, k))));
    stats.dominance_cmps += sort_ops;
    clock.ChargeDominanceCmps(sort_ops);

    for (int64_t i = 0; i < k; ++i) {
      const int64_t id = scored[i].second;
      run.Report(q, id, joined.row(id));
    }
  }

  return run.Finish();
}

}  // namespace caqe
