// Contract-aware admission control for the online serving layer.
//
// An arrival is scored against the *current* execution state: its would-be
// region lineage (every region whose predicate slot matches and whose cell
// boxes survive the coarse selection test — already-processed regions are
// resurrected and reprocessed for the newcomer, so every query sees the
// full data), the cost of its own work and the backlog of already-admitted
// work, both priced by the scheduler's t_c (RegionCost). The
// contract previews the utility a result would earn at the optimistic
// first-result time and at the pessimistic drain time; a request whose
// expected utility is below the policy floor — or whose deadline cannot be
// met even optimistically — is rejected outright, and a feasible request is
// deferred while the server is at capacity.
//
// Everything here is control-plane work: operations are counted in
// `control_ops` but never charged to the virtual clock, so admission
// decisions do not perturb the data-plane timeline (the cancellation-
// equivalence guarantee relies on this).
#ifndef CAQE_SERVE_ADMISSION_H_
#define CAQE_SERVE_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "common/virtual_clock.h"
#include "contracts/utility.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "region/region_builder.h"
#include "serve/calibration.h"
#include "serve/serving.h"

namespace caqe {

/// Everything the admission controller may look at when scoring one
/// arrival. All pointers are borrowed for the duration of the call.
struct AdmissionInput {
  const RegionCollection* rc = nullptr;
  const PartitionedTable* part_r = nullptr;
  const PartitionedTable* part_t = nullptr;
  /// Regions still awaiting tuple-level processing (the live backlog): the
  /// pipeline's pending flags.
  const std::vector<char>* pending = nullptr;
  const CostModel* cost = nullptr;
  /// Current virtual time and the request's arrival time (now >= submit).
  double now = 0.0;
  double submit_time = 0.0;
  /// Request deadline in seconds after submission; <= 0 disables.
  double deadline_seconds = 0.0;
  /// Currently running (admitted, unretired) queries.
  int active_queries = 0;
  /// Whether a workload slot is available for grafting.
  bool slot_available = true;
  /// Per-workload estimate calibrator (null = raw model estimates). The
  /// controller applies the bucket's correction factors to the service-time
  /// and cardinality estimates before the deadline and utility previews.
  const Calibrator* calibrator = nullptr;
  const ServeOptions* options = nullptr;
};

/// Admission verdict plus the estimates that produced it (surfaced in the
/// request report for post-hoc inspection).
struct AdmissionEstimate {
  AdmissionDecision decision = AdmissionDecision::kReject;
  /// Stable short reason: "admitted", "capacity", "no-predicate",
  /// "no-data", "deadline", "infeasible", "low-utility".
  const char* reason = "";
  /// Expected per-result utility over the estimated service window.
  double expected_utility = 0.0;
  /// Optimistic seconds (from submission) to the first result: the
  /// cheapest lineage region processed immediately.
  double est_first_seconds = 0.0;
  /// Pessimistic seconds (from submission) to the last result: the full
  /// current backlog plus all of the request's own work.
  double est_finish_seconds = 0.0;
  /// Regions the request's lineage would contain.
  int64_t lineage_regions = 0;
  /// Buchta (Eq. 9) estimate of the request's final result cardinality
  /// over its graftable join output.
  double estimated_results = 0.0;
  /// Uncorrected model outputs (equal to the est_* fields without a
  /// calibrator). The calibrator's completion samples compare observations
  /// against these, never against its own corrections.
  double raw_first_seconds = 0.0;
  double raw_finish_seconds = 0.0;
  double raw_estimated_results = 0.0;
  /// Uncorrected service-window cost (backlog + own work, *excluding* the
  /// already-elapsed wait) — the calibration target: at completion the
  /// observed admit-to-finish time divided by this is the ratio the
  /// bucket's time factor learns.
  double raw_service_cost_seconds = 0.0;
  /// Calibration bucket the estimates were corrected with (-1 = none).
  int calibration_bucket = -1;
  /// Whether that bucket had absorbed enough completions for its factors
  /// to be decision-grade (gates the completion-feasibility test).
  bool calibration_trusted = false;
};

/// Whether `region` joins `query`'s lineage on predicate slot `slot`:
/// kDisjoint (not graftable) when the region has no join output on the slot
/// or its cell boxes miss one of the query's selections, else the
/// CoarseSelectionTest verdict (kContained makes the region guaranteed for
/// the query). Admission estimates over exactly the regions a graft adds.
SelectionCoarse GraftTest(const SjQuery& query, const OutputRegion& region,
                          int slot, const PartitionedTable& part_r,
                          const PartitionedTable& part_t);

/// Virtual-seconds estimate of the live backlog: the summed RegionCost of
/// every pending region over the slots it serves (ServedSlots), in region
/// order.
double BacklogCost(const RegionCollection& rc,
                   const std::vector<char>& pending, const CostModel& cost);

/// Scores one arrival. Increments `*control_ops` by the number of
/// control-plane steps taken (region scans, cost sums).
AdmissionEstimate EvaluateAdmission(const SjQuery& query,
                                    const Contract& contract,
                                    const AdmissionInput& in,
                                    int64_t* control_ops);

}  // namespace caqe

#endif  // CAQE_SERVE_ADMISSION_H_
