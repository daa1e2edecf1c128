#include "serve/admission.h"

#include <algorithm>
#include <cmath>

#include "optimizer/scheduler.h"
#include "skyline/cardinality.h"

namespace caqe {

namespace {

/// Reject when the expected per-result utility over the request's
/// estimated service window falls below this floor.
constexpr double kMinExpectedUtility = 0.05;

}  // namespace

SelectionCoarse GraftTest(const SjQuery& query, const OutputRegion& region,
                          int slot, const PartitionedTable& part_r,
                          const PartitionedTable& part_t) {
  if (region.join_sizes[slot] <= 0) return SelectionCoarse::kDisjoint;
  return CoarseSelectionTest(query, part_r.cell(region.cell_r),
                             part_t.cell(region.cell_t));
}

double BacklogCost(const RegionCollection& rc,
                   const std::vector<char>& pending, const CostModel& cost) {
  double total = 0.0;
  for (const OutputRegion& region : rc.regions) {
    if (pending[region.id]) {
      total += RegionCost(region, rc.ServedSlots(region), cost);
    }
  }
  return total;
}

AdmissionEstimate EvaluateAdmission(const SjQuery& query,
                                    const Contract& contract,
                                    const AdmissionInput& in,
                                    int64_t* control_ops) {
  AdmissionEstimate est;
  const RegionCollection& rc = *in.rc;
  const ServeOptions& options = *in.options;

  // The server's predicate slots are fixed at startup; a query on a join
  // key outside that set has no regions to graft into. One control op per
  // slot the lookup compared (it stops at the match).
  const int slot = rc.SlotOfKey(query.join_key);
  *control_ops += slot >= 0
                      ? slot + 1
                      : static_cast<int64_t>(rc.predicate_slots.size());
  if (slot < 0) {
    est.decision = AdmissionDecision::kReject;
    est.reason = "no-predicate";
    return est;
  }

  // Walk the graftable lineage (GraftTest). Already-processed regions
  // count too — a graft resurrects them for reprocessing, so every arrival
  // sees the full data. Each region's own work is its cost on this one
  // slot.
  double own_cost = 0.0;
  double min_cost = 0.0;
  double join_total = 0.0;
  int64_t join_total_exact = 0;
  for (const OutputRegion& region : rc.regions) {
    ++*control_ops;
    if (GraftTest(query, region, slot, *in.part_r, *in.part_t) ==
        SelectionCoarse::kDisjoint) {
      continue;
    }
    const double region_cost =
        RegionCost(region, uint32_t{1} << slot, *in.cost);
    own_cost += region_cost;
    min_cost = est.lineage_regions == 0 ? region_cost
                                        : std::min(min_cost, region_cost);
    join_total += static_cast<double>(region.join_sizes[slot]);
    join_total_exact += region.join_sizes[slot];
    ++est.lineage_regions;
  }
  if (est.lineage_regions == 0) {
    if (options.admit_all && in.active_queries < options.max_active_queries &&
        in.slot_available) {
      // An admit-all server grafts even empty-lineage queries; they
      // complete immediately with zero results.
      est.decision = AdmissionDecision::kAdmit;
      est.reason = "admitted";
      return est;
    }
    est.decision = AdmissionDecision::kReject;
    est.reason = "no-data";
    return est;
  }

  const int dims = static_cast<int>(query.preference.size());
  est.estimated_results = BuchtaSkylineCardinality(join_total, dims);

  // Optimistic first result: the scheduler turns to the cheapest lineage
  // region immediately. Pessimistic finish: the entire admitted backlog
  // drains first, then all of the request's own regions run.
  const double waited = in.now - in.submit_time;
  const double backlog = BacklogCost(rc, *in.pending, *in.cost);
  ++*control_ops;
  est.est_first_seconds = waited + min_cost;
  est.est_finish_seconds = waited + backlog + own_cost;
  est.raw_first_seconds = est.est_first_seconds;
  est.raw_finish_seconds = est.est_finish_seconds;
  est.raw_estimated_results = est.estimated_results;
  est.raw_service_cost_seconds = backlog + own_cost;

  // Estimate -> observe feedback: scale the model's *cost* terms by the
  // workload bucket's learned time factor (the elapsed wait is known
  // exactly and never scaled). Time corrections apply before the deadline
  // and utility tests, so a calibration shift can flip either verdict
  // below — that is the point of re-previewing the deferred queue. The
  // cardinality factor deliberately does NOT feed the utility preview:
  // the floor is a per-result (cardinality-normalized) criterion, so only
  // the time basis answers "will results still pay when they land";
  // corrected cardinality serves progress pacing (the graft corrects the
  // tracker's total) and the reported estimate, applied after the preview.
  if (in.calibrator != nullptr) {
    const Calibrator::BucketKey bucket = Calibrator::KeyFor(
        dims, join_total_exact, est.lineage_regions, slot,
        !query.selections.empty());
    est.calibration_bucket = bucket.index;
    est.calibration_trusted = in.calibrator->Trusted(bucket);
    est.est_first_seconds =
        waited + in.calibrator->CorrectSeconds(bucket, min_cost);
    est.est_finish_seconds =
        waited + in.calibrator->CorrectSeconds(bucket, backlog + own_cost);
    ++*control_ops;
  }

  if (!options.admit_all) {
    if (in.deadline_seconds > 0.0 &&
        est.est_first_seconds >= in.deadline_seconds) {
      est.decision = AdmissionDecision::kReject;
      est.reason = "deadline";
      return est;
    }
    // Completion-feasibility: expiry retires a running request that has not
    // *finished* by its deadline, so a deadline arrival whose corrected
    // finish estimate overshoots the deadline is destined to expire —
    // admitting it burns a slot for a handful of decayed late results. Only
    // a trusted (converged) bucket may fire this: the raw pessimistic
    // finish would wholesale-reject viable deadline work, so this test is a
    // capability the estimate->observe loop unlocks rather than a static
    // policy tweak. The static controller (no calibrator) never reaches it.
    // The margin keeps borderline requests in play — an admitted request
    // still earns (decaying) utility right up to its expiry, so rejection
    // only pays when the corrected finish overshoots the deadline by
    // enough that those partial earnings are negligible.
    constexpr double kInfeasibilityMargin = 1.5;
    if (in.deadline_seconds > 0.0 && est.calibration_trusted &&
        est.est_finish_seconds >= kInfeasibilityMargin * in.deadline_seconds) {
      est.decision = AdmissionDecision::kReject;
      est.reason = "infeasible";
      return est;
    }
    // Preview the contract at both ends of the service window (Eq. 8's
    // utility model applied at admission time).
    ResultContext first_ctx;
    first_ctx.report_time = est.est_first_seconds;
    first_ctx.results_in_interval = 1;
    first_ctx.results_so_far = 1;
    first_ctx.estimated_total = std::max(1.0, est.estimated_results);
    ResultContext last_ctx;
    last_ctx.report_time = est.est_finish_seconds;
    last_ctx.results_in_interval = 1;
    last_ctx.results_so_far = static_cast<int64_t>(
        std::ceil(std::max(1.0, est.estimated_results)));
    last_ctx.estimated_total = std::max(1.0, est.estimated_results);
    const double u_first = contract->Utility(first_ctx);
    const double u_last = contract->Utility(last_ctx);
    est.expected_utility = 0.5 * (u_first + u_last);
    if (est.expected_utility < kMinExpectedUtility) {
      est.decision = AdmissionDecision::kReject;
      est.reason = "low-utility";
      return est;
    }
  }

  // Reported estimate picks up the cardinality correction only after the
  // preview (see the calibration comment above).
  if (in.calibrator != nullptr && est.calibration_bucket >= 0) {
    Calibrator::BucketKey bucket;
    bucket.index = est.calibration_bucket;
    est.estimated_results =
        in.calibrator->CorrectCardinality(bucket, est.estimated_results);
  }

  if (in.active_queries >= options.max_active_queries || !in.slot_available) {
    est.decision = AdmissionDecision::kDefer;
    est.reason = "capacity";
    return est;
  }
  est.decision = AdmissionDecision::kAdmit;
  est.reason = "admitted";
  return est;
}

}  // namespace caqe
