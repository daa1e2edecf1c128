// Online serving layer types: requests, admission outcomes, and the
// deterministic serving report.
//
// The serving layer (src/serve/) keeps one CaqeServer alive over a fixed
// table pair and processes an *arrival trace* of contract-carrying
// skyline-over-join queries: each request is admitted, deferred, or
// rejected by a contract-aware admission controller; admitted queries are
// grafted into the running shared execution state without restarting
// in-flight regions; completed, expired, or cancelled queries are retired
// mid-run. Everything is driven by the deterministic VirtualClock, so a
// trace replays bit-identically at any thread count and with the SIMD
// kernels on or off — ServingReportText deliberately excludes every
// non-deterministic quantity (wall time, thread counts).
#ifndef CAQE_SERVE_SERVING_H_
#define CAQE_SERVE_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/options.h"
#include "metrics/report.h"

namespace caqe {

/// Admission controller verdict for one (query, contract) arrival.
enum class AdmissionDecision {
  /// Graft into the running workload now.
  kAdmit,
  /// Feasible but no capacity (active-query cap or no free workload slot);
  /// retried when capacity frees up.
  kDefer,
  /// Infeasible: no predicate slot, empty lineage, expected utility below
  /// the floor, or the deadline cannot be met.
  kReject,
};

const char* AdmissionDecisionName(AdmissionDecision decision);

/// Lifecycle state of one serving request.
enum class RequestStatus {
  /// Submitted; arrival event not yet processed.
  kQueued,
  /// Evaluated and parked by the admission controller awaiting capacity.
  kDeferred,
  /// Admitted and grafted; regions of its lineage are being processed.
  kRunning,
  /// All lineage regions resolved; the result stream is complete.
  kCompleted,
  /// Cancelled by the client before completion.
  kCancelled,
  /// Deadline passed before completion (or before admission).
  kExpired,
  /// Refused by the admission controller.
  kRejected,
};

const char* RequestStatusName(RequestStatus status);

/// Serving knobs: the shared engine knobs (EngineOptions; the server reads
/// every one of them) plus the scheduling and admission policy. Tuple-level
/// discarding is always on.
struct ServeOptions : EngineOptions {
  /// Region scheduling policy for admitted work. Contract-driven is the
  /// CAQE default; count-driven is the ProgXe+-style ablation the serving
  /// benchmark compares against. The static scan is batch-only (S-JFSL):
  /// CaqeServer::Create rejects it.
  SchedulePolicy policy = SchedulePolicy::kContractDriven;
  /// Bypass the utility/deadline rejection tests (structural rejects — an
  /// unknown join predicate — still apply). Capacity deferral still holds.
  bool admit_all = false;
  /// Self-tuning admission (see serve/calibration.h): completed requests
  /// feed observed-vs-estimated ratios back into per-workload correction
  /// factors, corrected estimates drive the deadline/utility previews, and
  /// calibration shifts re-preview the deferred queue. Changes admission
  /// *timing* only, never emitted-result correctness; reports remain
  /// byte-identical across thread counts and live-vs-replay (the
  /// calibrator updates on the serial driver step).
  bool calibrate = false;
  /// Defer arrivals while this many queries are running.
  int max_active_queries = 16;
};

/// Final per-request outcome, embedded in the ServingReport.
struct RequestReport {
  int request_id = -1;
  std::string name;
  RequestStatus status = RequestStatus::kQueued;
  /// Arrival (virtual) time of the request.
  double submit_time = 0.0;
  /// Time of the final admission decision (admit or reject); -1 if the
  /// request never got one (cancelled while deferred).
  double decision_time = -1.0;
  /// Time the request left the system (completed/cancelled/expired/
  /// rejected); -1 while running (never in a final report).
  double finish_time = -1.0;
  /// Seconds from submission to the first streamed result; -1 if none.
  double time_to_first_result = -1.0;
  /// Times the admission controller deferred the request.
  int defers = 0;
  /// Results streamed to the request's callback.
  int64_t results = 0;
  /// pScore (Eq. 7) over the streamed results.
  double pscore = 0.0;
  /// Average utility per streamed result.
  double satisfaction = 0.0;
  /// Admission-time expected per-result utility estimate.
  double expected_utility = 0.0;
  /// Live regions grafted into the request's lineage at admission.
  int64_t lineage_regions = 0;
  /// Parked (accepted but unemitted) candidates dropped at retirement.
  int64_t parked_dropped = 0;
  /// Stable short reason string for the admission outcome.
  std::string reason;
};

/// Outcome of one CaqeServer::Run over a submitted trace.
struct ServingReport {
  /// Per-request outcomes, by request id.
  std::vector<RequestReport> requests;
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  int64_t completed = 0;
  /// admitted / submitted (0 when nothing was submitted).
  double admission_rate = 0.0;
  /// Sum of per-request pScores (the serving analogue of Eq. 6).
  double cumulative_pscore = 0.0;
  /// Virtual time when the trace drained.
  double finish_vtime = 0.0;
  /// Control-plane operations (admission scans, graft/retire lineage
  /// edits, completion checks). Deliberately *not* charged to the virtual
  /// clock: retiring a query must leave the survivors' timeline identical
  /// to a run where it was never admitted.
  int64_t control_ops = 0;
  /// Data-plane operation counters (identical across thread counts except
  /// the wall_* fields, which the report text excludes).
  EngineStats stats;
};

/// One deterministic line describing a request's final outcome. Two runs
/// produce byte-identical lines iff the request's observable outcome
/// matched.
std::string RequestReportLine(const RequestReport& request);

/// Deterministic multi-line rendering of the full report: summary counters,
/// data-plane stats (excluding wall times), then one RequestReportLine per
/// request. Byte-identical across thread counts and SIMD builds.
std::string ServingReportText(const ServingReport& report);

/// Assigns quantized, strictly increasing virtual timestamps to wall-clock
/// arrivals. A live front-end cannot use wall time for contract scoring
/// (it would break the determinism contract), so each ingested event is
/// stamped with the next free multiple of `quantum` strictly above the
/// engine's current virtual time (an event stamped at the current clock
/// would fire live after the sweeps of the step that left the clock there,
/// but before them on replay). The quantum index (not the double) is
/// what session recorders persist: `index * quantum` is re-computed
/// bit-identically on replay, which is what makes a recorded wall-clock
/// session byte-diffable against its virtual-clock replay.
class ArrivalQuantizer {
 public:
  explicit ArrivalQuantizer(double quantum = kDefaultQuantum);

  /// Smallest unused quantum index whose time is > `virtual_now`.
  /// Strictly increasing across calls.
  int64_t Next(double virtual_now);

  double TimeOf(int64_t index) const { return index * quantum_; }
  double quantum() const { return quantum_; }

  static constexpr double kDefaultQuantum = 1e-6;

 private:
  double quantum_;
  int64_t last_ = -1;
};

}  // namespace caqe

#endif  // CAQE_SERVE_SERVING_H_
