#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/engine.h"
#include "obs/observability.h"
#include "serve/admission.h"

namespace caqe {

CaqeServer::CaqeServer(Table r, Table t, ServeOptions options)
    : options_(std::move(options)),
      r_(std::move(r)),
      t_(std::move(t)),
      clock_(options_.cost) {}

Result<std::unique_ptr<CaqeServer>> CaqeServer::Create(
    Table r, Table t, std::vector<MappingFunction> output_dims,
    std::vector<int> join_keys, ServeOptions options) {
  if (output_dims.empty()) {
    return Status::InvalidArgument("at least one output dimension required");
  }
  std::sort(join_keys.begin(), join_keys.end());
  join_keys.erase(std::unique(join_keys.begin(), join_keys.end()),
                  join_keys.end());
  if (join_keys.empty()) {
    return Status::InvalidArgument("at least one join key required");
  }
  if (options.policy == SchedulePolicy::kStaticScan) {
    return Status::InvalidArgument(
        "the static-scan policy is batch-only (S-JFSL)");
  }
  std::unique_ptr<CaqeServer> server(
      new CaqeServer(std::move(r), std::move(t), std::move(options)));
  CAQE_RETURN_NOT_OK(
      server->Bootstrap(std::move(output_dims), std::move(join_keys)));
  return server;
}

Status CaqeServer::Bootstrap(std::vector<MappingFunction> output_dims,
                             std::vector<int> join_keys) {
  for (const MappingFunction& f : output_dims) workload_.AddOutputDim(f);
  std::vector<int> all_dims(workload_.num_output_dims());
  for (int k = 0; k < workload_.num_output_dims(); ++k) all_dims[k] = k;
  // One synthetic full-coverage query per configured join key: regions only
  // exist for predicates some build-time query matched, so the bootstrap
  // workload makes every (cell pair, key) region materialize. The synthetic
  // slots are cleared right after the build and become the free slot pool.
  for (size_t i = 0; i < join_keys.size(); ++i) {
    workload_.AddQuery(SjQuery{"__bootstrap" + std::to_string(i),
                               join_keys[i], all_dims, 1.0, {}});
  }
  CAQE_RETURN_NOT_OK(workload_.Validate(r_, t_));

  // The pool is created before partitioning so the quad-tree build and the
  // region build share it.
  pool_owner_ = MakeWorkerPool(options_.num_threads);
  pool_ = pool_owner_.get();

  Result<PartitionedInputs> parts =
      PartitionInputs(r_, t_, workload_, options_, pool_);
  CAQE_RETURN_NOT_OK(parts.status());
  part_r_.emplace(std::move(parts->r));
  part_t_.emplace(std::move(parts->t));

  Result<RegionCollection> rc =
      BuildRegions(*part_r_, *part_t_, workload_, {.pool = pool_});
  CAQE_RETURN_NOT_OK(rc.status());
  rc_ = std::move(rc).value();
  stats_.regions_built += static_cast<int64_t>(rc_.regions.size());
  stats_.coarse_ops += rc_.coarse_ops;
  clock_.ChargeCoarseOps(rc_.coarse_ops);

  // Clear the bootstrap lineages: the server starts with no live work.
  for (OutputRegion& region : rc_.regions) {
    region.rql = QuerySet();
    region.guaranteed = QuerySet();
  }
  for (QuerySet& queries : rc_.queries_of_slot) queries = QuerySet();

  const int slots = workload_.num_queries();
  std::vector<Contract> placeholders(
      slots, MakeTimeStepContract(1.0));  // Rebound on every graft.
  tracker_.emplace(std::move(placeholders));
  query_reports_.resize(slots);
  identity_.resize(slots);
  for (int q = 0; q < slots; ++q) identity_[q] = q;
  slot_request_.assign(slots, -1);
  free_slots_.resize(slots);
  for (int q = 0; q < slots; ++q) free_slots_[q] = q;

  auto on_emit = [this](int query, int64_t id, double time, double utility) {
    const int request_id = slot_request_[query];
    if (request_id < 0) return;
    RequestState& request = requests_[request_id];
    if (request.time_to_first_result < 0.0) {
      request.time_to_first_result = time - request.submit_time;
      if (ttfr_hist_ != nullptr) {
        ttfr_hist_->Observe(request.time_to_first_result);
      }
      // Emission runs synchronously on the driver thread, so this append
      // keeps the log's serial order (and replay determinism).
      if (event_log_ != nullptr) {
        event_log_->Append({.kind = ContractEventKind::kFirstResult,
                            .request_id = request_id,
                            .vtime = time,
                            .parent = request.graft_span,
                            .results = 1});
      }
    }
    if (request.callback) request.callback(request_id, id, time, utility);
  };
  event_log_ = Observability::Events(options_.obs);
  if (options_.calibrate) calibrator_.emplace();
  if (options_.obs != nullptr) {
    ttfr_hist_ = &options_.obs->metrics.histogram(
        "caqe_serve_time_to_first_result_vseconds",
        ExponentialBuckets(1e-4, 4.0, 14));
    svc_err_hist_ = &options_.obs->metrics.histogram(
        "caqe_serve_service_time_relative_error", RelativeErrorBuckets());
    if (calibrator_.has_value()) {
      MetricsRegistry& metrics = options_.obs->metrics;
      calib_raw_err_hist_ = &metrics.histogram(
          "caqe_calib_raw_relative_error", RelativeErrorBuckets());
      calib_corr_err_hist_ = &metrics.histogram(
          "caqe_calib_corrected_relative_error", RelativeErrorBuckets());
      calib_observations_ =
          &metrics.counter("caqe_calib_observations_total");
      calib_repreviews_ = &metrics.counter("caqe_calib_repreviews_total");
      calib_upgrades_ = &metrics.counter("caqe_calib_upgrades_total");
      calib_shifts_ = &metrics.counter("caqe_calib_shifts_total");
    }
  }
  // With every lineage cleared, no region starts pending.
  pipeline_ = std::make_unique<RegionPipeline>(
      &*part_r_, &*part_t_, &workload_, &rc_, &*tracker_, &clock_, &stats_,
      &query_reports_, pool_, CoreOptions(options_), std::move(on_emit));
  pipeline_->SetGlobalQueryIds(identity_);

  SchedulerOptions sched_options;
  sched_options.feedback_enabled = options_.feedback_enabled;
  sched_options.contract_driven =
      options_.policy == SchedulePolicy::kContractDriven;
  sched_options.dynamic_workload = true;
  sched_options.obs = options_.obs;
  scheduler_.emplace(&rc_, &pipeline_->pending(), &workload_, &*tracker_,
                     &clock_.cost_model(), sched_options);
  // The bootstrap slots start dormant: no weight, no Eq. 11 share.
  for (int q = 0; q < slots; ++q) scheduler_->RetireQuery(q);
  pipeline_->set_scheduler(&*scheduler_);
  return Status::OK();
}

int CaqeServer::Submit(SjQuery query, Contract contract, double arrival_time,
                       double deadline_seconds, ResultCallback callback) {
  CAQE_CHECK(!ran_);
  CAQE_CHECK(contract != nullptr);
  CAQE_CHECK(ValidateQuery(query).ok());
  return Enqueue(std::move(query), std::move(contract),
                 std::max(0.0, arrival_time), deadline_seconds,
                 std::move(callback));
}

Status CaqeServer::ValidateQuery(const SjQuery& query) const {
  if (query.preference.empty()) {
    return Status::InvalidArgument("empty preference");
  }
  std::vector<int> sorted = query.preference;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 0 || sorted[i] >= workload_.num_output_dims()) {
      return Status::InvalidArgument("preference dimension out of range: " +
                                     std::to_string(sorted[i]));
    }
    if (i > 0 && sorted[i] == sorted[i - 1]) {
      return Status::InvalidArgument("duplicate preference dimension: " +
                                     std::to_string(sorted[i]));
    }
  }
  // Admission's coarse selection test indexes the leaf cells' bounds by
  // attribute, so an attribute past its table's width is rejected here.
  for (const SelectionRange& sel : query.selections) {
    const Table& side = sel.on_r ? r_ : t_;
    if (sel.attr < 0 || sel.attr >= side.num_attrs()) {
      return Status::InvalidArgument(
          std::string("selection attribute out of range: ") +
          (sel.on_r ? "r:" : "t:") + std::to_string(sel.attr));
    }
  }
  return Status::OK();
}

int CaqeServer::Enqueue(SjQuery query, Contract contract, double arrival_time,
                        double deadline_seconds, ResultCallback callback) {
  RequestState request;
  request.id = static_cast<int>(requests_.size());
  request.query = std::move(query);
  request.contract = std::move(contract);
  request.callback = std::move(callback);
  request.submit_time = arrival_time;
  request.deadline_seconds = deadline_seconds;
  events_.push_back(TraceEvent{request.submit_time,
                               static_cast<int>(events_.size()),
                               TraceEvent::Kind::kArrival, request.id});
  requests_.push_back(std::move(request));
  return requests_.back().id;
}

Status CaqeServer::Cancel(int request_id, double cancel_time) {
  if (ran_) return Status::FailedPrecondition("server already ran");
  if (request_id < 0 || request_id >= static_cast<int>(requests_.size())) {
    return Status::InvalidArgument("unknown request id: " +
                                   std::to_string(request_id));
  }
  events_.push_back(TraceEvent{std::max(0.0, cancel_time),
                               static_cast<int>(events_.size()),
                               TraceEvent::Kind::kCancel, request_id});
  return Status::OK();
}

CaqeServer::RequestBrief CaqeServer::BriefOf(int request_id) const {
  const RequestState& request = requests_[static_cast<size_t>(request_id)];
  RequestBrief brief;
  brief.id = request.id;
  brief.name = request.query.name;
  brief.status = request.status;
  brief.submit_time = request.submit_time;
  brief.root_span = request.root_span;
  if (request.slot >= 0 && tracker_.has_value()) {
    const QuerySatisfaction& sat = tracker_->satisfaction(request.slot);
    brief.results = sat.results;
    brief.pscore = sat.pscore;
  } else {
    brief.results = request.results;
    brief.pscore = request.pscore;
  }
  return brief;
}

int CaqeServer::FindRequestByName(std::string_view name) const {
  for (int i = static_cast<int>(requests_.size()) - 1; i >= 0; --i) {
    if (requests_[static_cast<size_t>(i)].query.name == name) return i;
  }
  return -1;
}

int CaqeServer::ActiveQueries() const {
  int active = 0;
  for (int request_id : slot_request_) {
    if (request_id >= 0) ++active;
  }
  return active;
}

bool CaqeServer::SlotAvailable() const {
  return !free_slots_.empty() ||
         workload_.num_queries() < QuerySet::kMaxQueries;
}

void CaqeServer::NotifyFinished(const RequestState& request, int ran_slot) {
  // Single point every terminal transition passes through (retire, reject,
  // cancel-before-admission, expiry, forced drain reject): the terminal
  // event with estimate-vs-observed service time lands here.
  if (event_log_ != nullptr) {
    const bool finished = request.finish_time >= 0.0;
    event_log_->Append(
        {.kind = ContractEventKind::kFinish,
         .request_id = request.id,
         .query = ran_slot,
         .vtime = finished ? request.finish_time : clock_.Now(),
         .parent = request.graft_span != 0
                       ? request.graft_span
                       : (request.decision_span != 0 ? request.decision_span
                                                     : request.root_span),
         .phase = RequestStatusName(request.status),
         .reason = request.estimate.reason,
         .results = request.results,
         .count = request.parked_dropped,
         .pscore = request.pscore,
         .est_finish_seconds = request.estimate.est_finish_seconds,
         .observed_seconds =
             finished ? request.finish_time - request.submit_time : 0.0,
         .expected_utility = request.estimate.expected_utility});
  }
  if (on_finish_) on_finish_(request.id, request.status);
}

AdmissionEstimate CaqeServer::PreviewAdmission(const RequestState& request) {
  AdmissionInput in;
  in.rc = &rc_;
  in.part_r = &*part_r_;
  in.part_t = &*part_t_;
  in.pending = &pipeline_->pending();
  in.cost = &clock_.cost_model();
  in.now = clock_.Now();
  in.submit_time = request.submit_time;
  in.deadline_seconds = request.deadline_seconds;
  in.active_queries = ActiveQueries();
  in.slot_available = SlotAvailable();
  in.calibrator = calibrator_.has_value() ? &*calibrator_ : nullptr;
  in.options = &options_;
  return EvaluateAdmission(request.query, request.contract, in,
                           &control_ops_);
}

AdmissionDecision CaqeServer::Decide(RequestState& request) {
  // Admission is control-plane: the span is wall-only and the counters are
  // observability-only, never charged to the virtual clock.
  TraceSpan span(Observability::Spans(options_.obs), "admission", "serve");
  span.set_query(request.id);
  span.set_parent(request.root_span, request.root_span);
  request.decision_span = span.id();
  const AdmissionEstimate est = PreviewAdmission(request);
  request.estimate = est;
  if (options_.obs != nullptr) {
    options_.obs->metrics
        .counter(std::string("caqe_serve_admission_decisions_total{"
                             "decision=\"") +
                 AdmissionDecisionName(est.decision) + "\",reason=\"" +
                 est.reason + "\"}")
        .Inc();
  }
  if (event_log_ != nullptr) {
    event_log_->Append({.kind = ContractEventKind::kDecision,
                        .request_id = request.id,
                        .vtime = clock_.Now(),
                        .span = request.decision_span,
                        .parent = request.root_span,
                        .phase = AdmissionDecisionName(est.decision),
                        .reason = est.reason,
                        .est_first_seconds = est.est_first_seconds,
                        .est_finish_seconds = est.est_finish_seconds,
                        .expected_utility = est.expected_utility});
  }
  switch (est.decision) {
    case AdmissionDecision::kAdmit: {
      request.decision_time = clock_.Now();
      const Status grafted = Graft(request);
      CAQE_CHECK(grafted.ok());
      request.status = RequestStatus::kRunning;
      ++admitted_count_;
      break;
    }
    case AdmissionDecision::kDefer:
      request.status = RequestStatus::kDeferred;
      ++request.defers;
      break;
    case AdmissionDecision::kReject:
      request.decision_time = clock_.Now();
      request.finish_time = clock_.Now();
      request.status = RequestStatus::kRejected;
      break;
  }
  if (on_decision_) {
    on_decision_(request.id, est.decision, est.reason);
  }
  if (est.decision == AdmissionDecision::kReject) NotifyFinished(request);
  return est.decision;
}

Status CaqeServer::Graft(RequestState& request) {
  TraceSpan span(Observability::Spans(options_.obs), "graft", "serve");
  span.set_query(request.id);
  span.set_parent(request.decision_span != 0 ? request.decision_span
                                             : request.root_span,
                  request.root_span);
  request.graft_span = span.id();
  const int pslot = rc_.SlotOfKey(request.query.join_key);
  CAQE_CHECK(pslot >= 0);  // Admission rejects unknown predicates.

  // Acquire a workload slot: lowest free slot, else append a new one.
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.front();
    free_slots_.erase(free_slots_.begin());
    workload_.SetQuery(slot, request.query);
    rc_.slot_of_query[slot] = pslot;
    tracker_->ResetQuery(slot, request.contract, request.submit_time);
    query_reports_[slot] = QueryReport{};
  } else {
    CAQE_CHECK(workload_.num_queries() < QuerySet::kMaxQueries);
    slot = workload_.AddQuery(request.query);
    rc_.slot_of_query.push_back(pslot);
    identity_.push_back(slot);
    slot_request_.push_back(-1);
    query_reports_.push_back(QueryReport{});
    const int tracker_slot =
        tracker_->AddQuery(request.contract, request.submit_time);
    CAQE_CHECK(tracker_slot == slot);
    pipeline_->SetGlobalQueryIds(identity_);
  }
  query_reports_[slot].name = request.query.name;
  rc_.queries_of_slot[pslot].Add(slot);

  // Extend the lineage over the regions admission counted (GraftTest).
  // Non-pending regions — discarded by earlier pruning or already
  // processed — are resurrected for reprocessing; their stale lineage is
  // cleared first so the rerun feeds only the newcomer (the old members
  // already consumed those tuples).
  int64_t live = 0;
  for (OutputRegion& region : rc_.regions) {
    ++control_ops_;
    const SelectionCoarse coarse =
        GraftTest(request.query, region, pslot, *part_r_, *part_t_);
    if (coarse == SelectionCoarse::kDisjoint) continue;
    if (!pipeline_->pending()[region.id]) {
      region.rql = QuerySet();
      region.guaranteed = QuerySet();
      pipeline_->ReviveRegion(region.id);
    }
    region.rql.Add(slot);
    if (coarse == SelectionCoarse::kContained) region.guaranteed.Add(slot);
    ++live;
  }
  CAQE_DCHECK(live == request.estimate.lineage_regions);

  // Admission's result estimate (calibrated servers' is corrected, so the
  // tracker's Eq. 7 denominators improve together with admission).
  tracker_->SetEstimatedTotal(
      slot, std::max(1.0, request.estimate.estimated_results));

  scheduler_->AddQuery(slot);
  CAQE_RETURN_NOT_OK(pipeline_->AddPlanGroup(pslot, {slot}));
  // After the lineage extension, so the witness scan list holds exactly
  // this query's regions.
  pipeline_->emission().AddQuery(slot);

  slot_request_[slot] = request.id;
  request.slot = slot;
  span.set_arg("lineage_regions", live);
  if (event_log_ != nullptr) {
    // The graft's (results, pscore, weight) is the baseline the request's
    // first region step is audited against.
    const QuerySatisfaction& sat = tracker_->satisfaction(slot);
    event_log_->SetName(request.id, request.query.name);
    event_log_->Append(
        {.kind = ContractEventKind::kGraft,
         .request_id = request.id,
         .query = slot,
         .vtime = clock_.Now(),
         .span = request.graft_span,
         .parent = request.decision_span != 0 ? request.decision_span
                                              : request.root_span,
         .results = sat.results,
         .count = live,
         .pscore = sat.pscore,
         .weight = scheduler_->weight(slot)});
  }
  return Status::OK();
}

void CaqeServer::Retire(RequestState& request, RequestStatus final_status) {
  TraceSpan span(Observability::Spans(options_.obs), "retire", "serve");
  span.set_query(request.id);
  span.set_parent(request.graft_span != 0 ? request.graft_span
                                          : request.root_span,
                  request.root_span);
  const int slot = request.slot;
  CAQE_CHECK(slot >= 0);
  const double now = clock_.Now();

  // Prune the lineage; regions left with an empty lineage stop being
  // schedulable (but stay graftable for future arrivals).
  for (OutputRegion& region : rc_.regions) {
    ++control_ops_;
    if (!region.rql.Contains(slot)) continue;
    region.rql.Remove(slot);
    region.guaranteed.Remove(slot);
    if (region.rql.empty() && pipeline_->pending()[region.id]) {
      pipeline_->ResolveRegion(region.id);
    }
  }
  rc_.queries_of_slot[rc_.slot_of_query[slot]].Remove(slot);

  // Parked candidates of a retired query are dropped, never emitted.
  std::vector<int64_t> flushed;
  pipeline_->emission().RetireQuery(slot, &flushed);
  request.parked_dropped = static_cast<int64_t>(flushed.size());
  pipeline_->RemoveQueryFromGroups(slot);
  scheduler_->RetireQuery(slot);

  const QuerySatisfaction& satisfaction = tracker_->satisfaction(slot);
  request.results = satisfaction.results;
  request.pscore = satisfaction.pscore;
  request.satisfaction = satisfaction.average();
  request.finish_time = now;
  request.status = final_status;

  slot_request_[slot] = -1;
  request.slot = -1;
  free_slots_.insert(
      std::lower_bound(free_slots_.begin(), free_slots_.end(), slot), slot);
  capacity_freed_ = true;
  // Estimate -> observe feedback (engine state, independent of obs): a
  // completion folds its observed/estimated ratios into the workload
  // bucket's correction factors. Retire runs on the serial driver thread,
  // which is what keeps calibrated reports replay-identical.
  const AdmissionEstimate& est = request.estimate;
  if (calibrator_.has_value() && final_status == RequestStatus::kCompleted &&
      est.calibration_bucket >= 0 && est.raw_service_cost_seconds > 0.0 &&
      request.decision_time >= 0.0) {
    Calibrator::BucketKey bucket;
    bucket.index = est.calibration_bucket;
    Calibrator::CompletionSample sample;
    // Observed admit-to-finish service time against the admitting
    // decision's predicted service-window cost: same basis the correction
    // factors scale, so the EWMA converges on model error, not queue wait.
    sample.raw_est_seconds = est.raw_service_cost_seconds;
    sample.observed_seconds = now - request.decision_time;
    sample.raw_est_results = est.raw_estimated_results;
    sample.observed_results = request.results;
    const int64_t shifts_before = calibrator_->shifts();
    calibrator_->ObserveCompletion(bucket, sample);
    if (options_.obs != nullptr && !calibrator_->error_series().empty()) {
      const Calibrator::ErrorSample& err = calibrator_->error_series().back();
      calib_raw_err_hist_->Observe(err.raw_abs_rel_error);
      calib_corr_err_hist_->Observe(err.corrected_abs_rel_error);
      calib_observations_->Inc();
      if (calibrator_->shifts() > shifts_before) calib_shifts_->Inc();
      const std::string label = Calibrator::BucketLabel(bucket);
      MetricsRegistry& metrics = options_.obs->metrics;
      metrics.gauge("caqe_calib_time_factor{bucket=\"" + label + "\"}")
          .Set(static_cast<double>(calibrator_->time_factor(bucket)) /
               static_cast<double>(Calibrator::kOne));
      metrics.gauge("caqe_calib_card_factor{bucket=\"" + label + "\"}")
          .Set(static_cast<double>(calibrator_->card_factor(bucket)) /
               static_cast<double>(Calibrator::kOne));
    }
  }
  if (options_.obs != nullptr) {
    options_.obs->metrics
        .counter(std::string("caqe_serve_retired_total{status=\"") +
                 RequestStatusName(final_status) + "\"}")
        .Inc();
    // Estimation quality: completed requests compare the admission-time
    // service estimate against the observed (virtual) service time.
    if (final_status == RequestStatus::kCompleted &&
        svc_err_hist_ != nullptr && est.est_finish_seconds > 0.0) {
      const double observed = now - request.submit_time;
      svc_err_hist_->Observe((observed - est.est_finish_seconds) /
                             est.est_finish_seconds);
    }
  }
  NotifyFinished(request, slot);
}

void CaqeServer::HandleArrival(RequestState& request) {
  if (request.status != RequestStatus::kQueued) return;  // Pre-cancelled.
  // Root of the request's causal tree: admission (and through it graft and
  // the later contract events) parents under this span. Arrivals fire at
  // event time on the driver thread, so span ids and event order are
  // identical between a live session and its replay.
  TraceSpan root(Observability::Spans(options_.obs), "request", "serve");
  root.set_query(request.id);
  request.root_span = root.id();
  if (event_log_ != nullptr) {
    event_log_->Append({.kind = ContractEventKind::kArrival,
                        .request_id = request.id,
                        .vtime = clock_.Now(),
                        .span = request.root_span});
  }
  Decide(request);
}

void CaqeServer::HandleCancel(RequestState& request) {
  if (event_log_ != nullptr) {
    // Status *before* the transition: what the cancel interrupted.
    event_log_->Append({.kind = ContractEventKind::kCancel,
                        .request_id = request.id,
                        .vtime = clock_.Now(),
                        .parent = request.root_span,
                        .phase = RequestStatusName(request.status)});
  }
  switch (request.status) {
    case RequestStatus::kQueued:
    case RequestStatus::kDeferred:
      request.status = RequestStatus::kCancelled;
      request.finish_time = clock_.Now();
      NotifyFinished(request);
      break;
    case RequestStatus::kRunning:
      Retire(request, RequestStatus::kCancelled);
      break;
    case RequestStatus::kCompleted:
    case RequestStatus::kCancelled:
    case RequestStatus::kExpired:
    case RequestStatus::kRejected:
      break;  // Already finished; cancellation is a no-op.
  }
}

void CaqeServer::RetryDeferred() {
  if (!capacity_freed_) return;
  capacity_freed_ = false;
  if (!calibrator_.has_value()) {
    for (RequestState& request : requests_) {
      if (request.status != RequestStatus::kDeferred) continue;
      ++control_ops_;
      Decide(request);
    }
    return;
  }
  // Calibrated promotion order: with decision-grade utility previews the
  // freed slot goes to the deferred request whose corrected expected
  // utility is highest, not merely the oldest (FIFO is the only sane order
  // for the static controller — its raw previews compress toward the
  // pessimistic end and would shuffle by bias, not value). Previews are
  // deterministic and ties break on request id, so the promotion order is
  // identical across threads and on replay.
  retry_order_.clear();
  for (RequestState& request : requests_) {
    if (request.status != RequestStatus::kDeferred) continue;
    ++control_ops_;
    const AdmissionEstimate preview = PreviewAdmission(request);
    retry_order_.emplace_back(preview.expected_utility, request.id);
  }
  std::sort(retry_order_.begin(), retry_order_.end(),
            [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  for (const std::pair<double, int>& entry : retry_order_) {
    RequestState& request = requests_[static_cast<size_t>(entry.second)];
    if (request.status != RequestStatus::kDeferred) continue;
    ++control_ops_;
    Decide(request);
  }
}

void CaqeServer::RepreviewDeferred() {
  // A calibration shift can flip an earlier defer into an admit — re-score
  // the deferred queue in stable request-id order so the upgrade order is
  // deterministic, and commit only the upgrades. A preview that now says
  // reject stays deferred: the regular capacity-event retry delivers that
  // verdict, and committing it here would let one mid-saturation shift
  // discard requests the static controller would have served.
  for (RequestState& request : requests_) {
    if (request.status != RequestStatus::kDeferred) continue;
    ++control_ops_;
    const double before_first = request.estimate.est_first_seconds;
    const double before_finish = request.estimate.est_finish_seconds;
    const AdmissionEstimate preview = PreviewAdmission(request);
    const bool upgraded = preview.decision == AdmissionDecision::kAdmit;
    if (upgraded) {
      const AdmissionDecision committed = Decide(request);
      CAQE_CHECK(committed == AdmissionDecision::kAdmit);
    }
    if (calib_repreviews_ != nullptr) calib_repreviews_->Inc();
    if (upgraded && calib_upgrades_ != nullptr) calib_upgrades_->Inc();
    if (event_log_ != nullptr) {
      event_log_->Append({.kind = ContractEventKind::kRepreview,
                          .request_id = request.id,
                          .vtime = clock_.Now(),
                          .parent = request.root_span,
                          .phase = AdmissionDecisionName(preview.decision),
                          .reason = preview.reason,
                          .count = upgraded ? 1 : 0,
                          .est_first_seconds = preview.est_first_seconds,
                          .est_finish_seconds = preview.est_finish_seconds,
                          .est_first_before_seconds = before_first,
                          .est_finish_before_seconds = before_finish});
    }
  }
}

std::string CaqeServer::CalibrationStatusText() const {
  if (!calibrator_.has_value()) return "calibration: off\n";
  return calibrator_->StatusText();
}

void CaqeServer::CheckExpiry() {
  const double now = clock_.Now();
  for (RequestState& request : requests_) {
    if (request.deadline_seconds <= 0.0) continue;
    if (request.status != RequestStatus::kRunning &&
        request.status != RequestStatus::kDeferred) {
      continue;
    }
    ++control_ops_;
    if (now < request.submit_time + request.deadline_seconds) continue;
    if (request.status == RequestStatus::kRunning) {
      Retire(request, RequestStatus::kExpired);
    } else {
      request.status = RequestStatus::kExpired;
      request.finish_time = now;
      NotifyFinished(request);
    }
  }
}

void CaqeServer::CheckCompletion() {
  QuerySet live;
  const std::vector<char>& pending = pipeline_->pending();
  for (const OutputRegion& region : rc_.regions) {
    ++control_ops_;
    if (pending[region.id]) live = live.Union(region.rql);
  }
  for (RequestState& request : requests_) {
    if (request.status != RequestStatus::kRunning) continue;
    ++control_ops_;
    if (!live.Contains(request.slot)) {
      Retire(request, RequestStatus::kCompleted);
    }
  }
}

bool CaqeServer::StepInternal() {
  // Idle: no due or future event and no pending region. Return without
  // touching anything — a wall-clock poll loop calls this speculatively,
  // and an idle step that swept the control plane would inflate control_ops
  // relative to the virtual-clock replay.
  const bool idle = pipeline_->pending_count() == 0;
  if (idle && cursor_ >= events_.size()) return false;
  // Idle server with queued events: jump straight to the next arrival/
  // cancel.
  if (idle) {
    clock_.AdvanceTo(events_[cursor_].time);
  }
  // Fire every due event in (time, submission order).
  while (cursor_ < events_.size() && events_[cursor_].time <= clock_.Now()) {
    const TraceEvent& event = events_[cursor_++];
    RequestState& request = requests_[event.request_id];
    if (event.kind == TraceEvent::Kind::kArrival) {
      HandleArrival(request);
    } else {
      HandleCancel(request);
    }
  }
  // A calibration shift from the previous step's completions re-previews
  // the deferred queue now — after this step's arrivals, before the
  // capacity retry — so an upgrade only claims capacity the fresh arrivals
  // left behind.
  if (repreview_pending_) {
    repreview_pending_ = false;
    RepreviewDeferred();
  }
  RetryDeferred();
  CheckExpiry();
  CheckCompletion();
  // Completions inside CheckCompletion may have shifted the calibration
  // factors past the hysteresis; latch the flag here, still on the serial
  // driver step, so live and replayed runs re-preview at the same point in
  // the event sequence.
  if (calibrator_.has_value() && calibrator_->TakeShift()) {
    repreview_pending_ = true;
  }

  if (pipeline_->pending_count() > 0) {
    const int rid = pipeline_->ProcessNext("serve");
    // Every live request's contract state after the step, keyed by
    // *request id* (workload slots are reused across requests; request ids
    // are not). The log keeps the steps that moved (see
    // ContractEventLog::Append).
    if (event_log_ != nullptr) {
      const double now = clock_.Now();
      for (int slot = 0; slot < static_cast<int>(slot_request_.size());
           ++slot) {
        const int request_id = slot_request_[slot];
        if (request_id < 0) continue;
        const QuerySatisfaction& sat = tracker_->satisfaction(slot);
        event_log_->Append(
            {.kind = ContractEventKind::kRegionStep,
             .request_id = request_id,
             .region = rid,
             .vtime = now,
             .parent = requests_[request_id].graft_span,
             .results = sat.results,
             .pscore = sat.pscore,
             .weight = scheduler_->weight(slot)});
      }
    }
  }
  return true;
}

Result<ServingReport> CaqeServer::Run() {
  if (ran_) return Status::FailedPrecondition("CaqeServer::Run called twice");
  ran_ = true;

  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.seq < b.seq;
                   });
  while (StepInternal()) {
  }
  return Finish();
}

Status CaqeServer::BeginLive() {
  if (ran_) return Status::FailedPrecondition("server already ran");
  if (!requests_.empty()) {
    return Status::FailedPrecondition(
        "BeginLive requires an empty submission queue");
  }
  ran_ = true;
  live_ = true;
  return Status::OK();
}

Result<int> CaqeServer::SubmitLive(SjQuery query, Contract contract,
                                   double arrival_vtime,
                                   double deadline_seconds,
                                   ResultCallback callback) {
  if (!live_ || finished_) {
    return Status::FailedPrecondition("server not accepting live arrivals");
  }
  if (contract == nullptr) {
    return Status::InvalidArgument("contract required");
  }
  // Wire input is validated, never CHECKed: a malformed query must produce
  // an error reply, not abort the server (Workload::SetQuery aborts on
  // out-of-range preferences).
  CAQE_RETURN_NOT_OK(ValidateQuery(query));
  if (arrival_vtime < clock_.Now() ||
      (!events_.empty() && arrival_vtime < events_.back().time)) {
    return Status::InvalidArgument(
        "live arrival time must be monotone (quantize with "
        "ArrivalQuantizer)");
  }
  return Enqueue(std::move(query), std::move(contract), arrival_vtime,
                 deadline_seconds, std::move(callback));
}

Status CaqeServer::CancelLive(int request_id, double cancel_vtime) {
  if (!live_ || finished_) {
    return Status::FailedPrecondition("server not accepting live events");
  }
  if (request_id < 0 || request_id >= static_cast<int>(requests_.size())) {
    return Status::InvalidArgument("unknown request id: " +
                                   std::to_string(request_id));
  }
  if (cancel_vtime < clock_.Now() ||
      (!events_.empty() && cancel_vtime < events_.back().time)) {
    return Status::InvalidArgument(
        "live cancel time must be monotone (quantize with "
        "ArrivalQuantizer)");
  }
  events_.push_back(TraceEvent{cancel_vtime,
                               static_cast<int>(events_.size()),
                               TraceEvent::Kind::kCancel, request_id});
  return Status::OK();
}

bool CaqeServer::StepLive() {
  CAQE_CHECK(live_ && !finished_);
  return StepInternal();
}

Result<ServingReport> CaqeServer::FinishLive() {
  if (!live_) return Status::FailedPrecondition("server not in live mode");
  if (finished_) {
    return Status::FailedPrecondition("CaqeServer::FinishLive called twice");
  }
  return Finish();
}

Result<ServingReport> CaqeServer::Finish() {
  finished_ = true;
  while (true) {
    while (StepInternal()) {
    }
    // The original Run loop's terminal iteration still swept the control
    // plane once before discovering there was nothing left — that sweep is
    // what completes a request whose final region was processed in the last
    // productive step. StepInternal's idle path is deliberately
    // mutation-free (see StepLive), so the sweep lives here.
    RetryDeferred();
    CheckExpiry();
    CheckCompletion();
    // The drain has no fresh arrivals to give priority to, so a shift's
    // re-preview runs immediately instead of waiting for the next step.
    if (calibrator_.has_value() && calibrator_->TakeShift()) {
      repreview_pending_ = true;
    }
    if (repreview_pending_) {
      repreview_pending_ = false;
      RepreviewDeferred();
    }
    if (pipeline_->pending_count() > 0 || cursor_ < events_.size()) continue;
    // No live work and no future events. Give still-deferred requests one
    // forced retry (capacity must be free now); whatever still defers —
    // e.g. a zero-capacity configuration — is rejected so the loop drains.
    bool any_deferred = false;
    for (const RequestState& request : requests_) {
      if (request.status == RequestStatus::kDeferred) any_deferred = true;
    }
    if (!any_deferred) break;
    capacity_freed_ = true;
    RetryDeferred();
    for (RequestState& request : requests_) {
      if (request.status != RequestStatus::kDeferred) continue;
      request.decision_time = clock_.Now();
      request.finish_time = clock_.Now();
      request.status = RequestStatus::kRejected;
      request.estimate.reason = "capacity";
      NotifyFinished(request);
    }
  }
  CAQE_RETURN_NOT_OK(pipeline_->FinalDrain());

  ServingReport report;
  report.submitted = static_cast<int64_t>(requests_.size());
  report.admitted = admitted_count_;
  for (const RequestState& request : requests_) {
    RequestReport out;
    out.request_id = request.id;
    out.name = request.query.name;
    out.status = request.status;
    out.submit_time = request.submit_time;
    out.decision_time = request.decision_time;
    out.finish_time = request.finish_time;
    out.time_to_first_result = request.time_to_first_result;
    out.defers = request.defers;
    out.results = request.results;
    out.pscore = request.pscore;
    out.satisfaction = request.satisfaction;
    out.expected_utility = request.estimate.expected_utility;
    out.lineage_regions = request.estimate.lineage_regions;
    out.parked_dropped = request.parked_dropped;
    out.reason = request.estimate.reason;
    report.requests.push_back(std::move(out));
    switch (request.status) {
      case RequestStatus::kCompleted:
        ++report.completed;
        break;
      case RequestStatus::kCancelled:
        ++report.cancelled;
        break;
      case RequestStatus::kExpired:
        ++report.expired;
        break;
      case RequestStatus::kRejected:
        ++report.rejected;
        break;
      default:
        break;
    }
    report.cumulative_pscore += request.pscore;
  }
  report.admission_rate =
      report.submitted > 0
          ? static_cast<double>(report.admitted) /
                static_cast<double>(report.submitted)
          : 0.0;
  report.finish_vtime = clock_.Now();
  report.control_ops = control_ops_;
  report.stats = stats_;
  report.stats.virtual_seconds = clock_.Now();
  if (options_.obs != nullptr) {
    MetricsRegistry& metrics = options_.obs->metrics;
    RecordEngineStats(metrics, report.stats);
    metrics.gauge("caqe_serve_admission_rate").Set(report.admission_rate);
    metrics.gauge("caqe_serve_finish_vtime_seconds").Set(report.finish_vtime);
    metrics.counter("caqe_serve_control_ops_total").Inc(report.control_ops);
    metrics.counter("caqe_serve_submitted_total").Inc(report.submitted);
  }
  return report;
}

}  // namespace caqe
