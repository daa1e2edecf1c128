// CaqeServer: a long-lived contract-aware serving loop over one table pair.
//
// The server is created once over tables (R, T) with a fixed set of output
// dimensions and join-key predicates. Clients Submit() queries with
// progressiveness contracts (and optionally Cancel() them); Run() then
// replays the arrival trace to completion on the deterministic virtual
// clock, streaming each admitted query's results to its callback as the
// emission manager releases them.
//
// ## Startup: the bootstrap region build
//
// Regions exist only for (cell pair, predicate) combinations some query's
// predicate matched at build time, so the server builds its region
// collection once at startup over a *bootstrap workload* — one synthetic
// full-coverage query per configured join key — then clears every region's
// lineage. The bootstrap queries' workload slots become the server's free
// slot pool; grafted queries reuse them (Workload::SetQuery), keeping
// QuerySet bitmasks dense.
//
// ## Grafting and retirement
//
// Admission (see serve/admission.h) walks the regions; a graft splices the
// new query into the running shared state: region lineages extend, with
// non-pending regions (discarded by pruning, or already processed for
// earlier queries) resurrected for reprocessing so every query sees the
// full data, a fresh plan group and shared skyline evaluator attach to the
// pipeline, and the scheduler, satisfaction tracker, and emission manager
// register the slot — all without touching in-flight regions. Retirement (completion, expiry,
// cancellation) reverses the graft: lineage pruned, plan-group membership
// dropped, scheduler weight zeroed, parked emissions discarded.
//
// ## Determinism
//
// Data-plane work (joins, skyline evaluation, emission) charges the virtual
// clock exactly as in batch mode and is bit-identical across thread counts
// and SIMD builds. Control-plane work (admission, graft, retire, completion
// scans) is counted in control_ops but never charged, which yields the
// cancellation-equivalence guarantee: retiring a query whose regions were
// never processed leaves every survivor's report byte-identical to a run
// where that query was never admitted.
#ifndef CAQE_SERVE_SERVER_H_
#define CAQE_SERVE_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "contracts/utility.h"
#include "data/table.h"
#include "exec/region_pipeline.h"
#include "metrics/report.h"
#include "optimizer/scheduler.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "region/region_builder.h"
#include "serve/admission.h"
#include "serve/calibration.h"
#include "serve/serving.h"
#include "skyline/point_set.h"

namespace caqe {

class ContractEventLog;

class CaqeServer {
 public:
  /// Streaming consumer of one request's results: (request id, tuple id,
  /// virtual report time, contract utility). Invoked synchronously from
  /// Run() in emission order. store().row(tuple id) reads the result's
  /// values for every streamed id, during and after Run().
  using ResultCallback =
      std::function<void(int request_id, int64_t tuple_id, double vtime,
                         double utility)>;

  /// Builds a server over the table pair: registers `output_dims` as the
  /// global output space, accepts queries on any join key in `join_keys`
  /// (deduplicated, sorted), partitions the inputs, and runs the bootstrap
  /// region build. Returns InvalidArgument for empty dimension/key sets,
  /// the batch-only static-scan policy, or tables the bootstrap workload
  /// fails to validate against.
  static Result<std::unique_ptr<CaqeServer>> Create(
      Table r, Table t, std::vector<MappingFunction> output_dims,
      std::vector<int> join_keys, ServeOptions options);

  /// Enqueues a query arrival at virtual time `arrival_time` (>= 0).
  /// `deadline_seconds` (> 0) retires the query unconditionally that many
  /// seconds after arrival. Returns the request id. Must be called before
  /// Run(). CHECK-fails on a query SubmitLive would reject as malformed
  /// (see ValidateQuery); an unknown join key is still admitted to the
  /// trace and rejected at admission ("no-predicate").
  int Submit(SjQuery query, Contract contract, double arrival_time,
             double deadline_seconds = 0.0, ResultCallback callback = nullptr);

  /// Enqueues a cancellation of `request_id` at virtual time `cancel_time`.
  /// Cancelling a request that already finished by then is a no-op.
  /// Must be called before Run().
  Status Cancel(int request_id, double cancel_time);

  /// Replays the submitted trace to completion and returns the serving
  /// report. Callable once.
  Result<ServingReport> Run();

  /// ---- Live (wall-clock) incremental serving ----
  ///
  /// A wall-clock front-end cannot submit-then-Run: arrivals trickle in
  /// while the engine makes progress. BeginLive switches the server into an
  /// incremental mode where arrivals are ingested mid-run with *quantized
  /// virtual* timestamps (see ArrivalQuantizer) and the caller drives the
  /// engine one step at a time. Each StepLive executes exactly one
  /// iteration of Run()'s loop body, so a live session whose
  /// (kind, vtime, order) event sequence is recorded and replayed through
  /// Submit()+Run() produces a byte-identical ServingReport — the
  /// record/replay determinism oracle the net layer byte-diffs.

  /// Switches to live mode. Must be called before any Submit/Run and at
  /// most once.
  Status BeginLive();

  /// Ingests an arrival at quantized virtual time `arrival_vtime`, which
  /// must be >= the current virtual time and >= every previously ingested
  /// event time (ArrivalQuantizer guarantees both). Validates the query
  /// shape (see ValidateQuery) and returns InvalidArgument instead of
  /// CHECK-failing — hostile wire input must never abort the server.
  Result<int> SubmitLive(SjQuery query, Contract contract,
                         double arrival_vtime, double deadline_seconds = 0.0,
                         ResultCallback callback = nullptr);

  /// Ingests a cancellation at quantized virtual time `cancel_vtime` (same
  /// monotonicity requirements as SubmitLive).
  Status CancelLive(int request_id, double cancel_vtime);

  /// Executes one serving-loop iteration: fire due events, run the control
  /// sweeps, process one region if any is pending. Returns false — without
  /// mutating anything, control_ops included — when there is no due event
  /// and no pending work, so an idle poll loop may call it freely.
  bool StepLive();

  /// Drains remaining work (forced retry of still-deferred requests, final
  /// emission flush) and returns the serving report. Callable once; no
  /// SubmitLive/CancelLive/StepLive may follow.
  Result<ServingReport> FinishLive();

  /// Live-mode observers of a wall-clock front-end. `on_decision` fires
  /// when a request receives an admission verdict (including every
  /// re-evaluation of a deferred request), `on_finish` when it reaches a
  /// terminal status (completed/cancelled/expired/rejected); both run
  /// synchronously on the driver thread. Observers are write-only with
  /// respect to the engine: they must not call back into the server, and
  /// attaching them never changes a report byte — a recorded live session
  /// replayed without observers produces the identical ServingReportText.
  using DecisionObserver = std::function<void(
      int request_id, AdmissionDecision decision, const char* reason)>;
  using FinishObserver =
      std::function<void(int request_id, RequestStatus status)>;

  /// Installs the live-mode observers. Call before the first StepLive.
  void SetLiveObservers(DecisionObserver on_decision,
                        FinishObserver on_finish) {
    on_decision_ = std::move(on_decision);
    on_finish_ = std::move(on_finish);
  }

  /// Current virtual time (live mode: what the quantizer stamps against).
  double VirtualNow() const { return clock_.Now(); }

  /// Lifecycle status of a submitted request.
  RequestStatus request_status(int request_id) const {
    return requests_[static_cast<size_t>(request_id)].status;
  }

  /// Output dimensions of the global output space (preference indices of
  /// submitted queries must stay below this).
  int num_output_dims() const { return workload_.num_output_dims(); }

  /// Output values of every tuple a query accepted, by tuple id — which
  /// covers every id a ResultCallback streams. Tuple ids are running join
  /// match counts, so the store holds a sparse, ascending subset of them.
  const TupleStore& store() const { return pipeline_->store(); }

  /// Plan groups the pipeline holds: one per live grafted request, since a
  /// group is erased when its last member retires.
  int64_t num_plan_groups() const { return pipeline_->num_plan_groups(); }

  int num_requests() const { return static_cast<int>(requests_.size()); }

  /// Introspection snapshot of one request for /statusz, /tracez, and the
  /// TRACE verb. For a running request, results/pscore read the live
  /// tracker state; for finished ones, the frozen report fields.
  struct RequestBrief {
    int id = -1;
    std::string name;
    RequestStatus status = RequestStatus::kQueued;
    int64_t results = 0;
    double pscore = 0.0;
    double submit_time = 0.0;
    /// Id of the request's root "request" span (0 before arrival fired or
    /// without an Observability attached).
    uint64_t root_span = 0;
  };
  RequestBrief BriefOf(int request_id) const;

  /// Most recently submitted request whose query name is `name`; -1 when
  /// no request matches.
  int FindRequestByName(std::string_view name) const;

  /// The admission-estimate calibrator (null unless options.calibrate).
  /// Read-only: the bench's tightening gate and /statusz read factors and
  /// the error series here.
  const Calibrator* calibrator() const {
    return calibrator_.has_value() ? &*calibrator_ : nullptr;
  }

  /// Deterministic /statusz calibration table: "calibration: off\n" or the
  /// calibrator's per-bucket factor table.
  std::string CalibrationStatusText() const;

 private:
  struct RequestState {
    int id = -1;
    SjQuery query;
    Contract contract;
    ResultCallback callback;
    double submit_time = 0.0;
    double deadline_seconds = 0.0;
    RequestStatus status = RequestStatus::kQueued;
    /// Workload slot while running; -1 otherwise.
    int slot = -1;
    double decision_time = -1.0;
    double finish_time = -1.0;
    double time_to_first_result = -1.0;
    int defers = 0;
    /// The latest admission decision's estimate, kept whole: the graft,
    /// the calibrator's completion sample, the finish event and the
    /// request report read it. A forced drain reject overwrites its reason.
    AdmissionEstimate estimate;
    int64_t parked_dropped = 0;
    int64_t results = 0;
    double pscore = 0.0;
    double satisfaction = 0.0;
    /// Causal span ids (0 = none yet): the root "request" span and the
    /// latest admission/graft spans — parents for downstream spans and the
    /// contract events' causal links (DESIGN.md §15).
    uint64_t root_span = 0;
    uint64_t decision_span = 0;
    uint64_t graft_span = 0;
  };

  struct TraceEvent {
    enum class Kind { kArrival, kCancel };
    double time = 0.0;
    int seq = 0;
    Kind kind = Kind::kArrival;
    int request_id = -1;
  };

  CaqeServer(Table r, Table t, ServeOptions options);

  /// Query shape checks shared by Submit and SubmitLive: a non-empty,
  /// in-range, duplicate-free preference, and selections on attributes
  /// their side's table has (the bounds Workload::Validate applies).
  /// Unknown join keys pass; admission rejects them as "no-predicate".
  Status ValidateQuery(const SjQuery& query) const;
  /// Appends the arrival event and the request record; returns the id.
  int Enqueue(SjQuery query, Contract contract, double arrival_time,
              double deadline_seconds, ResultCallback callback);

  Status Bootstrap(std::vector<MappingFunction> output_dims,
                   std::vector<int> join_keys);

  void HandleArrival(RequestState& request);
  void HandleCancel(RequestState& request);
  /// Re-evaluates deferred requests when capacity may have freed. Static
  /// controller: stable id (FIFO) order. Calibrated: corrected expected
  /// utility order, id tie-break (the freed slot goes to the deferred
  /// request whose contract still pays the most).
  void RetryDeferred();
  /// Calibration-shift re-preview: re-scores the deferred queue in stable
  /// id order under the shifted correction factors and commits only
  /// *upgrades* (defer -> admit). A preview that now says reject is not
  /// committed — the wait-inflated estimate will deliver that verdict at
  /// the next genuine capacity event via RetryDeferred, and downgrading
  /// here would let a mid-saturation shift discard requests the static
  /// controller would have served. Appends one repreview event (with
  /// before/after estimates and the upgrade flag) per request.
  void RepreviewDeferred();
  /// Side-effect-free admission score of `request` at the current virtual
  /// time (counts control_ops, mutates nothing else).
  AdmissionEstimate PreviewAdmission(const RequestState& request);
  /// Retires running/deferred requests whose deadline passed.
  void CheckExpiry();
  /// Retires running requests with no live region left in their lineage.
  void CheckCompletion();
  /// Admission verdict for `request` at the current virtual time.
  AdmissionDecision Decide(RequestState& request);
  /// Splices an admitted request into the running shared state.
  Status Graft(RequestState& request);
  /// Reverses the graft and finalizes the request's report fields.
  void Retire(RequestState& request, RequestStatus final_status);
  int ActiveQueries() const;
  bool SlotAvailable() const;
  /// One iteration of the serving loop (shared by Run and StepLive).
  bool StepInternal();
  /// Drain tail shared by Run and FinishLive: forced deferred retry, final
  /// emission flush, report assembly.
  Result<ServingReport> Finish();
  /// Appends the request's finish event and fires on_finish, for a request
  /// that just reached a terminal status. `ran_slot` is the workload slot a
  /// retired request ran in (-1 when it never ran).
  void NotifyFinished(const RequestState& request, int ran_slot = -1);

  ServeOptions options_;
  /// Live-mode observers (see SetLiveObservers); empty by default.
  DecisionObserver on_decision_;
  FinishObserver on_finish_;
  Table r_;
  Table t_;
  Workload workload_;
  std::unique_ptr<ThreadPool> pool_owner_;
  ThreadPool* pool_ = nullptr;
  std::optional<PartitionedTable> part_r_;
  std::optional<PartitionedTable> part_t_;
  RegionCollection rc_;
  std::optional<SatisfactionTracker> tracker_;
  VirtualClock clock_;
  EngineStats stats_;
  std::vector<QueryReport> query_reports_;
  std::unique_ptr<RegionPipeline> pipeline_;
  /// Reads the pipeline's pending flags; set up with it in Bootstrap.
  std::optional<ContractDrivenScheduler> scheduler_;
  /// Identity map workload slot -> tracker/report index.
  std::vector<int> identity_;
  /// Free workload slots, ascending.
  std::vector<int> free_slots_;
  /// slot -> id of the request currently running there (-1 when free).
  std::vector<int> slot_request_;
  std::vector<RequestState> requests_;
  std::vector<TraceEvent> events_;
  int64_t control_ops_ = 0;
  /// Event log resolved once in Bootstrap (null without an Observability).
  /// Appends happen only on the serial driver thread at virtual timestamps,
  /// which is what makes every view of it (the ledger minus wall_us, the
  /// health and exec streams) byte-identical between a live session and
  /// its replay.
  ContractEventLog* event_log_ = nullptr;
  /// Admission-estimate calibrator (engaged by options.calibrate). Updated
  /// only from the serial driver step — same rule as the event log — which is
  /// what keeps calibrated reports byte-identical across thread counts and
  /// live-vs-replay.
  std::optional<Calibrator> calibrator_;
  /// Set when a calibration shift lands; consumed at the start of the next
  /// driver step *after* that step's arrivals have fired, so a repreview
  /// upgrade only claims capacity fresh arrivals left behind (arrival
  /// priority maximizes pScore — young contracts decay fastest).
  bool repreview_pending_ = false;
  // Metrics resolved once in Bootstrap when options_.obs is attached.
  // Observations are virtual-time quantities, so both histograms are
  // deterministic across thread counts.
  Histogram* ttfr_hist_ = nullptr;
  Histogram* svc_err_hist_ = nullptr;
  // caqe_calib_* instruments (null without obs or without calibrate).
  Histogram* calib_raw_err_hist_ = nullptr;
  Histogram* calib_corr_err_hist_ = nullptr;
  Counter* calib_observations_ = nullptr;
  Counter* calib_repreviews_ = nullptr;
  Counter* calib_upgrades_ = nullptr;
  Counter* calib_shifts_ = nullptr;
  bool ran_ = false;
  /// Live (wall-clock) incremental mode: events are ingested mid-run.
  bool live_ = false;
  /// FinishLive already produced the report.
  bool finished_ = false;
  /// Next unprocessed entry of events_ (Run's former local cursor; a member
  /// so StepLive can resume).
  size_t cursor_ = 0;
  /// Set when capacity may have freed (a slot returned); gates deferred
  /// retries so they happen exactly when something could have changed.
  bool capacity_freed_ = false;
  /// Scratch for the calibrated deferred-promotion order:
  /// (corrected expected utility, request id), sorted utility-descending
  /// with id tie-break. Member so the capacity survives across retries.
  std::vector<std::pair<double, int>> retry_order_;
  int64_t admitted_count_ = 0;
};

}  // namespace caqe

#endif  // CAQE_SERVE_SERVER_H_
