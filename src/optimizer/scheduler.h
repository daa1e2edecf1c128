// Contract-driven optimization (paper Section 5.3 and Algorithm 1).
//
// The scheduler iteratively picks the next output region for tuple-level
// processing. Candidates are the dependency-graph roots; each candidate is
// scored with the Cumulative Satisfaction Metric (Eq. 8):
//
//   CSM(R_c, t_c) = sum_i w_i * sum_{j=1..N_est^i(t_c)} utility_i(tau_j)
//
// where N_est is the progressiveness estimate (Eq. 10): the fraction of the
// region's output volume no pending region can dominate, times the Buchta
// cardinality estimate (Eq. 9), and t_c is RegionCost over the slots the
// region still serves. After every region the run-time satisfaction
// feedback adjusts the per-query weights (Eq. 11,
// ApplySatisfactionFeedback). Admission's cost previews and the top-k
// engine's feedback call the same two functions. N_est and t_c are cached
// between picks and recomputed exactly when their inputs change, so a pick
// evaluates only the utility preview and the weights (DESIGN.md §4).
#ifndef CAQE_OPTIMIZER_SCHEDULER_H_
#define CAQE_OPTIMIZER_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "query/query.h"
#include "region/dependency_graph.h"
#include "region/region_builder.h"

namespace caqe {

class Counter;
class Histogram;
struct Observability;

/// Eq. 8's t_c: the cost-model estimate (virtual seconds) of
/// tuple-processing `region` over the predicate slots set in `slots` —
/// per slot, probes over both cells' rows and the slot's exact join
/// output; then an n log n dominance term over the summed output, plus
/// one scheduling step. Slots are summed in ascending order.
double RegionCost(const OutputRegion& region, uint32_t slots,
                  const CostModel& cost);

/// Eq. 11 feedback: raises the weight of each query q with active[q] set by
/// (v_max - v_q) / sum of (v_max - v) over the active queries, where v is
/// the tracker's run-time satisfaction metric and v_max its maximum over
/// the active queries. Leaves the weights alone when every active query is
/// equally satisfied. `active` and `weights` hold one entry per query.
void ApplySatisfactionFeedback(const SatisfactionTracker& tracker,
                               const std::vector<char>& active,
                               std::vector<double>* weights);

/// Scheduling policy knobs (ablations flip these).
struct SchedulerOptions {
  /// Apply Eq. 11 weight feedback after every region (CAQE default). When
  /// off, weights stay at 1.
  bool feedback_enabled = true;
  /// Score regions with contract utilities (CAQE). When off, the benefit
  /// term degenerates to estimated result count per second — the
  /// count-driven policy of ProgXe+.
  bool contract_driven = true;
  /// Serving mode: the workload grows (grafted queries) and shrinks
  /// (retired queries) while regions can be re-activated by later grafts.
  /// Uses an edge-free dependency graph (lineage churn invalidates any
  /// precomputed ordering) and keeps removed regions re-activatable.
  bool dynamic_workload = false;
  /// Optional metrics bundle: PickNext records pick counts, scoring-scan
  /// ops, and the winning CSM score. Never feeds a scheduling decision.
  Observability* obs = nullptr;
};

/// Implements Algorithm 1's pick and feedback over a region collection
/// whose lineages and pending flags the engine mutates as tuple-level
/// processing discards work.
///
/// RegionPipeline drives the loop (see RegionPipeline::ProcessNext):
///   while (pipeline.pending_count() > 0) {
///     int rid = scheduler.PickNext(clock.Now());
///     ... process region rid, possibly discard others; each resolved
///     region's flag goes off, then scheduler.OnRegionRemoved(region) ...
///     scheduler.UpdateWeights();             // Eq. 11 feedback
///   }
class ContractDrivenScheduler {
 public:
  /// All pointers must outlive the scheduler. `rc` lineages may shrink
  /// during execution; the scheduler re-reads them and the `pending` flags
  /// (owned by the engine, one per region) on every scan.
  ContractDrivenScheduler(const RegionCollection* rc,
                          const std::vector<char>* pending,
                          const Workload* workload,
                          const SatisfactionTracker* tracker,
                          const CostModel* cost, SchedulerOptions options);

  /// Picks the pending dependency-graph root with the highest CSM at
  /// virtual time `now`. Coarse-op counts for the scoring scan accumulate
  /// into `coarse_ops` when non-null. Requires a pending region; the
  /// engine must eventually resolve the returned region.
  int PickNext(double now, int64_t* coarse_ops = nullptr);

  /// The engine cleared `region`'s pending flag (processed or discarded):
  /// removes it from the dependency graph. In dynamic mode the region
  /// stays re-activatable (graft-extended lineage may revive it).
  void OnRegionRemoved(int region);

  /// Dynamic mode only: a graft set `region`'s pending flag again.
  /// Invalidates the region's benefit-cache row.
  void OnRegionActivated(int region);

  /// Dynamic mode only: registers workload query `q` (new slot or a reused
  /// retired slot) with weight 1, growing per-query state as needed and
  /// invalidating the query's benefit-cache column.
  void AddQuery(int q);

  /// Dynamic mode only: deactivates query `q` and zeroes its weight.
  /// Survivors' weights are deliberately untouched, so retiring a query
  /// whose regions were never processed leaves the schedule identical to a
  /// run where it was never admitted (the serving layer's
  /// cancellation-equivalence guarantee).
  void RetireQuery(int q);

  /// Recomputes query weights from the tracker's run-time satisfaction
  /// metrics (Eq. 11). No-op when feedback is disabled.
  void UpdateWeights();

  double weight(int q) const { return weights_[q]; }

  /// Estimated virtual seconds to process `region` tuple-level: RegionCost
  /// over the slots it serves.
  double EstimateCost(int region) const;

  /// Progressiveness estimate N_est (Eq. 10) of `region` for query `q` —
  /// expected results emittable right after the region completes.
  double EstimateBenefit(int region, int q) const;

  /// CSM score (Eq. 8) of `region` at time `now`.
  double Csm(int region, double now) const;

 private:
  /// A benefit-cache entry: Eq. 10's N_est = (1 - frac) * Buchta(join size,
  /// |P_q|), where frac is the fraction of the region's output box (for
  /// query q) that the best feasible tuple of some *other* pending region
  /// serving q could dominate, and `witness` the maximizing region (-2:
  /// none; -1: not computed). The set of pending regions serving q only
  /// shrinks until the entry is invalidated, so frac — and N_est with it —
  /// is exact while the witness stays pending and serving q.
  struct Benefit {
    double n_est = 0.0;
    int witness = -1;
  };
  /// A t_c-cache entry: RegionCost over the served-slot mask `slots`. The
  /// cost reads only the region's fixed sizes and the mask, so it is exact
  /// while the region serves the same slots.
  struct Cost {
    uint32_t slots = 0;
    double t_c = -1.0;  // < 0: not computed.
  };

  double ComputeDominatedFrac(int region, int q, int* witness) const;
  /// The region's entry for q, recomputing frac and N_est together when the
  /// entry is stale. Requires a positive join size for q's slot.
  const Benefit& CachedBenefit(int region, int q) const;

  const RegionCollection* rc_;
  const std::vector<char>* pending_flags_;
  const Workload* workload_;
  const SatisfactionTracker* tracker_;
  const CostModel* cost_;
  SchedulerOptions options_;
  DependencyGraph dg_;
  /// PickNext's candidate list, refilled on every pick (keeps its capacity).
  std::vector<int> roots_;
  std::vector<double> weights_;
  /// Per-query activity mask (all 1 in batch mode; serving retires slots).
  std::vector<char> active_;
  /// Row-major [region][query] benefit cache; entries with a dead witness
  /// are recomputed lazily. `query_stride_` is the row width
  /// (== num_queries in batch mode; grows geometrically in dynamic mode).
  mutable std::vector<Benefit> benefit_cache_;
  int query_stride_ = 0;
  /// Per region: t_c for the last served-slot mask it was scored with.
  mutable std::vector<Cost> cost_cache_;
  mutable int64_t scan_ops_ = 0;
  /// Share of scan_ops_ spent inside dominated-fraction recomputation
  /// (candidate-region scans), as opposed to CSM root scoring. Purely an
  /// attribution split for metrics: the deterministic coarse-op total the
  /// engine charges is always scan_ops_.
  mutable int64_t domfrac_ops_ = 0;
  // Metrics resolved once at construction when options_.obs is attached.
  Counter* picks_counter_ = nullptr;
  Counter* scan_ops_counter_ = nullptr;
  Counter* csm_scan_ops_counter_ = nullptr;
  Counter* domfrac_scan_ops_counter_ = nullptr;
  Histogram* csm_hist_ = nullptr;
};

}  // namespace caqe

#endif  // CAQE_OPTIMIZER_SCHEDULER_H_
