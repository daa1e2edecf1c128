#include "exec/region_pipeline.h"

#include <algorithm>
#include <bit>
#include <map>
#include <string>
#include <tuple>
#include <utility>

#include "common/alloc_hook.h"
#include "exec/engine.h"
#include "obs/observability.h"
#include "region/region_dominance.h"

namespace caqe {
namespace {

/// Regions the alloc accounting treats as warmup: caches and reusable
/// scratch discover their high-water marks here. Past the window
/// the steady counters measure the residual churn the alloc gate bounds.
constexpr int64_t kWarmupRegions = 32;

// The fork grain of a region step (DESIGN.md §7). Handing a chunk to a pool
// worker costs about 5 us of CPU (a wake-up and a queue handoff, measured
// on a 4-vCPU Xeon), so a phase forks only into chunks that each carry
// about 100 us of single-thread work or more: the fork then costs under ~5%
// of what it spreads. Each grain is that chunk in its phase's own unit.

/// A step forks at all only from this many matches x (1 + active plan
/// groups): below it no phase has two chunks of work.
constexpr int64_t kForkMinStepWork = 4096;
/// Projection: matches per chunk (~65 ns each).
constexpr int64_t kProjectChunkMatches = 2048;
/// Plan-group evaluation: match x group inserts per chunk (~13 ns each).
constexpr int64_t kEvalChunkInserts = 8192;
/// One query's discard scan: region x tuple tests per chunk (~7 ns each).
constexpr int64_t kDiscardChunkTests = 32768;

}  // namespace

std::string PlanGroupSelectionKey(const SjQuery& query) {
  std::vector<SelectionRange> sorted = query.selections;
  std::sort(sorted.begin(), sorted.end(),
            [](const SelectionRange& a, const SelectionRange& b) {
              return std::tie(a.on_r, a.attr, a.lo, a.hi) <
                     std::tie(b.on_r, b.attr, b.lo, b.hi);
            });
  std::string key;
  for (const SelectionRange& sel : sorted) {
    key += (sel.on_r ? "r" : "t") + std::to_string(sel.attr) + ":" +
           std::to_string(sel.lo) + ".." + std::to_string(sel.hi) + ";";
  }
  return key;
}

RegionPipeline::RegionPipeline(const PartitionedTable* part_r,
                               const PartitionedTable* part_t,
                               const Workload* workload, RegionCollection* rc,
                               SatisfactionTracker* tracker,
                               VirtualClock* clock, EngineStats* stats,
                               std::vector<QueryReport>* reports,
                               ThreadPool* pool, const CoreOptions& options,
                               EmitCallback on_emit)
    : part_r_(part_r),
      part_t_(part_t),
      workload_(workload),
      rc_(rc),
      tracker_(tracker),
      clock_(clock),
      stats_(stats),
      reports_(reports),
      pool_(pool),
      options_(options),
      on_emit_(std::move(on_emit)),
      kernel_(part_r, part_t),
      store_(workload->num_output_dims()),
      block_(workload->num_output_dims()),
      emission_(workload, rc, &store_, &pending_) {
  // Configure the kernel before any join: the layout and cache bound are
  // fixed for the pipeline's life.
  kernel_.set_compact_layout(options_.compact_layout);
  kernel_.set_cache_capacity(options_.join_index_cache_entries);
  events_ = Observability::Events(options_.obs);
  if (options_.obs != nullptr) {
    // Resolve hot-path metrics once; observations are virtual-time deltas,
    // so the histograms are identical across thread counts.
    region_service_hist_ = &options_.obs->metrics.histogram(
        "caqe_region_service_virtual_seconds",
        ExponentialBuckets(1e-6, 4.0, 12));
    emission_latency_hist_ = &options_.obs->metrics.histogram(
        "caqe_emission_latency_virtual_seconds",
        ExponentialBuckets(1e-6, 4.0, 12));
    kernel_.SetObsCounters(
        &options_.obs->metrics.counter("caqe_join_index_builds_total"),
        &options_.obs->metrics.counter("caqe_join_index_evictions_total"));
    if (AllocHookActive()) {
      alloc_regions_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_regions_total");
      alloc_warmup_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_warmup_allocs_total");
      alloc_steady_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_allocs_total");
      alloc_steady_regions_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_regions_total");
      alloc_phase_join_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_join_total");
      alloc_phase_eval_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_eval_total");
      alloc_phase_discard_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_discard_total");
      alloc_phase_emission_counter_ =
          &options_.obs->metrics.counter("caqe_alloc_steady_emission_total");
    }
    constexpr const char* kPhaseNames[kNumPhases] = {"project", "evaluate",
                                                      "discard"};
    for (int p = 0; p < kNumPhases; ++p) {
      const std::string label =
          std::string("{phase=\"") + kPhaseNames[p] + "\"}";
      fork_counters_[p] = &options_.obs->metrics.counter(
          "caqe_region_phase_forks_total" + label);
      serial_counters_[p] = &options_.obs->metrics.counter(
          "caqe_region_phase_serial_total" + label);
    }
  }
  pending_.assign(rc_->regions.size(), 0);
  for (const OutputRegion& region : rc_->regions) {
    if (region.rql.empty()) continue;
    pending_[region.id] = 1;
    ++pending_count_;
  }
  accepted_events_.resize(workload_->num_queries());
  evicted_events_.resize(workload_->num_queries());
  discard_tests_.resize(rc_->regions.size(), 0);
  discard_hits_.resize(rc_->regions.size(), 0);
}

void RegionPipeline::ResolveRegion(int rid) {
  CAQE_DCHECK(pending_[rid]);
  pending_[rid] = 0;
  --pending_count_;
  if (scheduler_ != nullptr) scheduler_->OnRegionRemoved(rid);
}

void RegionPipeline::ReviveRegion(int rid) {
  // Only a server graft revives a region, and a server always schedules;
  // the static scan's forward-only cursor relies on this.
  CAQE_DCHECK(scheduler_ != nullptr && !pending_[rid]);
  pending_[rid] = 1;
  ++pending_count_;
  scheduler_->OnRegionActivated(rid);
}

int RegionPipeline::ProcessNext(const char* span_category) {
  CAQE_CHECK(pending_count_ > 0);
  // Control-thread heap traffic of the whole step — pick, region, weight
  // feedback — measured when the alloc interposer is linked in
  // (bench/tests). Snapshot before any work.
  AllocCounts alloc_before{};
  if (alloc_regions_counter_ != nullptr) alloc_before = ThreadAllocCounts();
  int rid = -1;
  if (scheduler_ != nullptr) {
    int64_t pick_ops = 0;
    rid = scheduler_->PickNext(clock_->Now(), &pick_ops);
    stats_->coarse_ops += pick_ops;
    clock_->ChargeCoarseOps(pick_ops);
  } else {
    while (static_cursor_ < static_cast<int>(pending_.size()) &&
           !pending_[static_cursor_]) {
      ++static_cursor_;
    }
    CAQE_CHECK(static_cursor_ < static_cast<int>(pending_.size()));
    rid = static_cursor_;
  }
  {
    // Umbrella span: the phase spans parent under it, so each step is one
    // connected causal tree and tree-sticky sampling keeps or drops it
    // whole.
    TraceSpan step_span(Observability::Spans(options_.obs), "process_region",
                        span_category);
    step_span.set_region(rid);
    ProcessRegion(rid, step_span.id());
  }
  if (scheduler_ != nullptr) scheduler_->UpdateWeights();
  ++regions_accounted_;
  if (alloc_regions_counter_ != nullptr) {
    // Warmup steps grow caches and scratch capacities; past the window the
    // steady counters measure the residual churn the alloc gate bounds
    // (allocs/region = steady_allocs_total / steady_regions_total).
    const int64_t delta = static_cast<int64_t>(ThreadAllocCounts().allocs -
                                               alloc_before.allocs);
    alloc_regions_counter_->Inc();
    if (regions_accounted_ <= kWarmupRegions) {
      alloc_warmup_counter_->Inc(delta);
    } else {
      alloc_steady_counter_->Inc(delta);
      alloc_steady_regions_counter_->Inc();
    }
  }
  return rid;
}

void RegionPipeline::EnsureQueryCapacity() {
  const size_t n = static_cast<size_t>(workload_->num_queries());
  if (accepted_events_.size() < n) {
    accepted_events_.resize(n);
    evicted_events_.resize(n);
  }
}

Status RegionPipeline::BuildPlanGroups() {
  for (int s = 0; s < static_cast<int>(rc_->predicate_slots.size()); ++s) {
    if (rc_->queries_of_slot[s].empty()) continue;
    // Partition the slot's queries by identical selections.
    std::map<std::string, std::vector<int>> by_selection;
    rc_->queries_of_slot[s].ForEach([&](int q) {
      by_selection[PlanGroupSelectionKey(workload_->query(q))].push_back(q);
    });
    for (auto& [key, members] : by_selection) {
      (void)key;
      CAQE_RETURN_NOT_OK(AddPlanGroup(s, std::move(members)));
    }
  }
  return Status::OK();
}

Status RegionPipeline::AddPlanGroup(int slot, std::vector<int> queries) {
  // Groups live behind unique_ptr so the evaluator's pointer into the
  // group's cuboid stays valid.
  auto group = std::make_unique<PlanGroup>();
  group->slot = slot;
  group->queries = std::move(queries);
  for (int q : group->queries) group->query_set.Add(q);
  group->selections = workload_->query(group->queries.front()).selections;
  std::vector<Subspace> prefs;
  for (int q : group->queries) {
    prefs.push_back(Subspace::FromDims(workload_->query(q).preference));
  }
  Result<MinMaxCuboid> cuboid = MinMaxCuboid::Build(prefs);
  CAQE_RETURN_NOT_OK(cuboid.status());
  group->cuboid = std::move(cuboid).value();
  group->evaluator = std::make_unique<SharedSkylineEvaluator>(
      &group->cuboid, options_.dva_mode);
  groups_.push_back(std::move(group));
  return Status::OK();
}

void RegionPipeline::RemoveQueryFromGroups(int q) {
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    PlanGroup& group = **it;
    if (!group.query_set.Contains(q)) continue;
    group.query_set.Remove(q);
    if (group.query_set.empty()) {
      // No member can ever receive events again (serving grafts always
      // form new groups), so the group goes. Group order reaches no
      // output: a query's events come from the one group holding it, and
      // comparison counts are summed.
      groups_.erase(it);
      return;
    }
    QuerySet active_locals;
    for (size_t local = 0; local < group.queries.size(); ++local) {
      if (group.query_set.Contains(group.queries[local])) {
        active_locals.Add(static_cast<int>(local));
      }
    }
    group.evaluator->ReleaseQueries(active_locals);
    return;
  }
}

void RegionPipeline::EmitResult(int q, int64_t id) {
  const int global_q = global_query_ids_[q];
  const UtilitySample charged = ChargeResult(
      global_q, id, options_.capture_results ? store_.row(id) : nullptr,
      store_.width(), *tracker_, *clock_, *stats_, *reports_,
      options_.on_result);
  if (on_emit_) on_emit_(global_q, id, charged.time, charged.utility);
  if (emission_latency_hist_ != nullptr) {
    emission_latency_hist_->Observe(charged.time - region_vstart_);
  }
}

void RegionPipeline::CountFork(ForkPhase phase, bool forked) {
  Counter* const counter =
      forked ? fork_counters_[phase] : serial_counters_[phase];
  if (counter != nullptr) counter->Inc();
}

int64_t RegionPipeline::EvaluateGroup(PlanGroup& group, int64_t base_id,
                                      int64_t num_matches) {
  int64_t cmps = 0;
  for (int64_t i = 0; i < num_matches; ++i) {
    const JoinMatch& match = matches_[i];
    if (((match.slot_mask >> group.slot) & 1) == 0) continue;
    // The group's common selections must hold for this join pair.
    bool passes = true;
    for (const SelectionRange& sel : group.selections) {
      const double v = sel.on_r
                           ? part_r_->table().attr(match.row_r, sel.attr)
                           : part_t_->table().attr(match.row_t, sel.attr);
      if (v < sel.lo || v > sel.hi) {
        passes = false;
        break;
      }
    }
    if (!passes) continue;
    const int64_t id = base_id + i;
    const SharedInsertOutcome& outcome =
        group.evaluator->InsertReusing(block_.row(i), id, &cmps);
    outcome.accepted.ForEach([&](int local) {
      const int q = group.queries[local];
      // Retired members keep their cuboid node alive until the whole group
      // retires; drop their events (no-op in the batch path).
      if (!group.query_set.Contains(q)) return;
      accepted_events_[q].push_back(id);
    });
    for (const auto& [local, evicted_id] : outcome.evictions) {
      const int q = group.queries[local];
      if (!group.query_set.Contains(q)) continue;
      evicted_events_[q].push_back(evicted_id);
    }
  }
  return cmps;
}

void RegionPipeline::ProcessRegion(int rid, uint64_t step_span) {
  CAQE_DCHECK(pending_[rid]);
  // Per-phase attribution of the step's heap traffic (see ProcessNext), for
  // the steady window only: warmup growth is expected and uninteresting;
  // the phase split tells the alloc gate where any residual steady churn
  // lives.
  const bool steady_accounting =
      alloc_regions_counter_ != nullptr && regions_accounted_ >= kWarmupRegions;
  AllocCounts phase_mark{};
  if (steady_accounting) phase_mark = ThreadAllocCounts();
  const auto take_phase = [&](Counter* phase_counter) {
    if (!steady_accounting) return;
    const AllocCounts now = ThreadAllocCounts();
    phase_counter->Inc(static_cast<int64_t>(now.allocs - phase_mark.allocs));
    phase_mark = now;
  };
  EnsureQueryCapacity();
  clock_->ChargeScheduleSteps(1);
  region_vstart_ = clock_->Now();
  if (events_ != nullptr) {
    events_->Append({.kind = ContractEventKind::kRegionScheduled,
                     .region = rid,
                     .vtime = region_vstart_});
  }
  OutputRegion& region = rc_->regions[rid];
  EngineStats& stats = *stats_;
  const Workload& workload = *workload_;
  TraceSink* const spans = Observability::Spans(options_.obs);

  // ---- One fork decision for the step (DESIGN.md §7). ----
  // The region feeds the plan groups whose slot it serves and whose members
  // its lineage holds; neither changes during the step. The step's size is
  // its matches times one pass for projection plus one per active group.
  // The matches are the region's join size over the served slots, exact
  // from the region build, so the decision precedes the join. A small step
  // never wakes the pool; in a large one each phase still forks only into
  // chunks of its own grain.
  const uint32_t slots_mask = rc_->ServedSlots(region);
  active_groups_.clear();
  for (const auto& group : groups_) {
    if (((slots_mask >> group->slot) & 1) == 0) continue;
    if (!region.rql.Intersects(group->query_set)) continue;
    active_groups_.push_back(group.get());
  }
  const int64_t num_groups = static_cast<int64_t>(active_groups_.size());
  int64_t step_matches = 0;
  for (uint32_t rest = slots_mask; rest != 0; rest &= rest - 1) {
    step_matches += region.join_sizes[std::countr_zero(rest)];
  }
  ThreadPool* const step_pool =
      step_matches * (1 + num_groups) >= kForkMinStepWork ? pool_ : nullptr;

  // ---- Tuple-level join over the slots still serving queries. ----
  matches_.clear();
  {
    TraceSpan span(spans, "join", "pipeline", &stats.wall_join_seconds);
    span.set_region(rid);
    span.set_parent(step_span, step_span);
    const int64_t probes_before = stats.join_probes;
    const int64_t results_before = stats.join_results;
    kernel_.Join(*rc_, region, slots_mask, matches_, stats, step_pool);
    clock_->ChargeJoinProbes(stats.join_probes - probes_before);
    clock_->ChargeJoinResults(stats.join_results - results_before);
    span.set_arg("join_results", stats.join_results - results_before);
  }
  take_phase(alloc_phase_join_counter_);

  // ---- Project and evaluate over the shared cuboid plans. ----
  for (auto& events : accepted_events_) events.clear();
  for (auto& events : evicted_events_) events.clear();
  const int64_t cmps_before = stats.dominance_cmps;
  const int64_t num_matches = static_cast<int64_t>(matches_.size());
  // Tuple ids count join matches across the pipeline's life: match i of
  // this region is tuple base_id + i, and block_ row i holds its values.
  const int64_t base_id = next_tuple_id_;
  next_tuple_id_ += num_matches;
  {
    TraceSpan span(spans, "eval", "pipeline", &stats.wall_eval_seconds);
    span.set_region(rid);
    span.set_parent(step_span, step_span);
    // Project every match into the region's row block first (rows are
    // disjoint, so chunks project concurrently). The block keeps its
    // capacity across regions and grows geometrically past it (a resize
    // of the cleared block alone would reallocate to the exact size at
    // every new largest region).
    block_.Clear();
    block_.Reserve(num_matches);
    block_.AppendUninitialized(num_matches);
    const int project_chunks =
        NumChunks(step_pool, num_matches, kProjectChunkMatches);
    CountFork(kProjectPhase, project_chunks > 1);
    if (project_scratch_.size() < static_cast<size_t>(project_chunks)) {
      project_scratch_.resize(project_chunks);
    }
    RunChunks(step_pool, project_chunks, [&](int c) {
      const auto [begin, end] = ChunkRange(num_matches, project_chunks, c);
      std::vector<double>& values = project_scratch_[c];
      for (int64_t i = begin; i < end; ++i) {
        const JoinMatch& match = matches_[i];
        workload.Project(part_r_->table(), match.row_r, part_t_->table(),
                         match.row_t, values);
        std::copy(values.begin(), values.end(), block_.mutable_row(i));
      }
    });

    // Plan groups own disjoint evaluators and disjoint query sets, so
    // chunks of groups consume the match stream concurrently. Each group
    // sees the matches in stream order, which makes every per-query event
    // sequence — and each group's comparison count — identical to the
    // serial interleaving.
    group_cmps_.assign(active_groups_.size(), 0);
    const int eval_chunks = NumChunks(step_pool, num_groups,
                                      num_matches * num_groups,
                                      kEvalChunkInserts);
    CountFork(kEvaluatePhase, eval_chunks > 1);
    RunChunks(step_pool, eval_chunks, [&](int c) {
      const auto [begin, end] = ChunkRange(num_groups, eval_chunks, c);
      for (int64_t gi = begin; gi < end; ++gi) {
        group_cmps_[gi] =
            EvaluateGroup(*active_groups_[gi], base_id, num_matches);
      }
    });
    for (int64_t cmps : group_cmps_) stats.dominance_cmps += cmps;
    span.set_arg("dominance_cmps", stats.dominance_cmps - cmps_before);

    // Retain the rows some query accepted, in ascending id order; the
    // block is overwritten by the next region. Only an accepted tuple can
    // ever be parked, emitted or captured, and the emission flush below
    // reads the rows it registers, so this precedes discard and emission.
    // The marks are all zero between regions (the scan below resets what
    // it reads), so a region pays only for its own matches.
    if (accepted_marks_.size() < static_cast<size_t>(num_matches)) {
      accepted_marks_.resize(static_cast<size_t>(num_matches), 0);
    }
    for (const auto& events : accepted_events_) {
      for (int64_t id : events) accepted_marks_[id - base_id] = 1;
    }
    for (int64_t i = 0; i < num_matches; ++i) {
      if (!accepted_marks_[i]) continue;
      accepted_marks_[i] = 0;
      store_.Append(base_id + i, block_.row(i));
    }
  }
  clock_->ChargeDominanceCmps(stats.dominance_cmps - cmps_before);
  take_phase(alloc_phase_eval_counter_);

  // ---- Region complete. ----
  ResolveRegion(rid);
  ++stats.regions_processed;

  // Apply this region's evictions to the emission manager *before* any
  // discard/resolution scan: a parked candidate dominated by one of this
  // region's tuples must be deregistered before resolutions can unpark
  // (and wrongly emit) it. The per-query eviction lists double as the
  // flush barrier's dead sets — sorted in place (a tuple is evicted from a
  // query's preference node at most once, so they are duplicate-free) for
  // the binary-search membership test in FlushRegion.
  for (int q = 0; q < workload.num_queries(); ++q) {
    for (int64_t id : evicted_events_[q]) {
      emission_.OnEvicted(q, id);
    }
    std::sort(evicted_events_[q].begin(), evicted_events_[q].end());
  }

  resolved_emits_.clear();
  std::vector<std::pair<int, int64_t>>& resolved_emits = resolved_emits_;
  // ---- Dominated-region discarding (Section 6, tuple level). ----
  // Every accepted tuple is a real join result; even if later evicted,
  // what it dominates stays dominated (its evictor dominates more).
  //
  // Per query, a read-only dominance scan over the surviving regions runs
  // chunked on the pool; lineage pruning then applies serially in region
  // order. In the serial original, the only state a query's scan mutates
  // is the region being pruned — and its test count stops at the pruning
  // hit — so the split charges the exact same discard_ops and fires the
  // same events in the same order.
  int64_t discard_ops = 0;
  bool discard_forked = false;
  {
    TraceSpan span(spans, "discard", "pipeline",
                   &stats.wall_discard_seconds);
    span.set_region(rid);
    span.set_parent(step_span, step_span);
    const int64_t num_regions = static_cast<int64_t>(rc_->regions.size());
    if (discard_tests_.size() < static_cast<size_t>(num_regions)) {
      discard_tests_.resize(num_regions, 0);
      discard_hits_.resize(num_regions, 0);
    }
    for (int q = 0;
         options_.tuple_discard && q < workload.num_queries(); ++q) {
      if (accepted_events_[q].empty()) continue;
      const std::vector<int>& dims = workload.query(q).preference;
      // Gather this query's accepted tuples once, in event order; every
      // region then scans the same contiguous block with the batch
      // kernel, which stops (and counts) exactly where the serial
      // per-tuple loop broke.
      const int64_t accepted_n =
          static_cast<int64_t>(accepted_events_[q].size());
      accepted_view_.Reset(dims);
      // Accepted ids all lie in [base_id, base_id + num_matches) (they
      // were accepted this region), so their values are block rows.
      accepted_view_.Reserve(accepted_n);
      for (int64_t id : accepted_events_[q]) {
        accepted_view_.PushPoint(block_.row(id - base_id));
      }
      // Phase 1 (chunked, read-only): per region, count dominance tests
      // up to and including the first dominating tuple, if any. Counts and
      // hits are identical at any chunk count.
      const int scan_chunks = NumChunks(step_pool, num_regions,
                                        num_regions * accepted_n,
                                        kDiscardChunkTests);
      discard_forked = discard_forked || scan_chunks > 1;
      RunChunks(step_pool, scan_chunks, [&](int c) {
        const auto [begin, end] = ChunkRange(num_regions, scan_chunks, c);
        for (int64_t i = begin; i < end; ++i) {
          const OutputRegion& other = rc_->regions[i];
          discard_tests_[i] = 0;
          discard_hits_[i] = 0;
          if (!pending_[other.id] || !other.rql.Contains(q)) continue;
          bool hit = false;
          discard_tests_[i] =
              ScanPointsFullyDominatingRegion(accepted_view_, other, &hit);
          discard_hits_[i] = hit ? 1 : 0;
        }
      });
      // Phase 2 (serial, region order): apply prunes and resolutions.
      for (int64_t i = 0; i < num_regions; ++i) {
        discard_ops += discard_tests_[i];
        if (!discard_hits_[i]) continue;
        OutputRegion& other = rc_->regions[i];
        other.rql.Remove(q);
        if (events_ != nullptr) {
          events_->Append({.kind = ContractEventKind::kQueryPruned,
                           .query = q,
                           .region = other.id,
                           .vtime = clock_->Now()});
        }
        emission_.OnRegionResolvedForQuery(other.id, q, resolved_emits);
        if (other.rql.empty()) {
          ResolveRegion(other.id);
          ++stats.regions_discarded;
          if (events_ != nullptr) {
            events_->Append({.kind = ContractEventKind::kRegionDiscarded,
                             .region = other.id,
                             .vtime = clock_->Now()});
          }
          emission_.OnRegionResolved(other.id, resolved_emits);
        }
      }
    }
    span.set_arg("discard_ops", discard_ops);
  }
  CountFork(kDiscardPhase, discard_forked);
  stats.coarse_ops += discard_ops;
  clock_->ChargeCoarseOps(discard_ops);
  take_phase(alloc_phase_discard_counter_);

  // ---- Progressive emission. ----
  {
    TraceSpan span(spans, "emission", "pipeline");
    span.set_region(rid);
    span.set_parent(step_span, step_span);
    const int64_t emitted_before = stats.emitted_results;
    const int64_t emission_ops_before = emission_.coarse_ops();
    // Flush barrier over the sharded park set: per query, resolve this
    // region's parked bucket and register the newly accepted tuples —
    // shard-parallel under pipeline_regions when the step forks, identical
    // state either way.
    // Emission then merges the shard outputs in the exact serial emit
    // order: each query's immediately-safe acceptances in query order,
    // then the discard-phase resolutions, then this region's bucket
    // resolutions in query order.
    if (flush_resolved_.size() <
        static_cast<size_t>(workload.num_queries())) {
      flush_resolved_.resize(workload.num_queries());
      flush_direct_.resize(workload.num_queries());
    }
    emission_.FlushRegion(rid, accepted_events_, evicted_events_,
                          options_.pipeline_regions ? step_pool : nullptr,
                          flush_resolved_, flush_direct_);
    emitted_per_query_.assign(workload.num_queries(), 0);
    for (int q = 0; q < workload.num_queries(); ++q) {
      for (int64_t id : flush_direct_[q]) EmitResult(q, id);
      emitted_per_query_[q] += static_cast<int64_t>(flush_direct_[q].size());
    }
    for (const auto& [q, id] : resolved_emits) {
      EmitResult(q, id);
      ++emitted_per_query_[q];
    }
    for (int q = 0; q < workload.num_queries(); ++q) {
      for (int64_t id : flush_resolved_[q]) {
        EmitResult(q, id);
        ++emitted_per_query_[q];
      }
    }
    for (int q = 0; q < workload.num_queries(); ++q) {
      if (emitted_per_query_[q] > 0 && events_ != nullptr) {
        events_->Append({.kind = ContractEventKind::kResultsEmitted,
                         .query = q,
                         .region = rid,
                         .vtime = clock_->Now(),
                         .count = emitted_per_query_[q]});
      }
    }
    const int64_t emission_ops = emission_.coarse_ops() - emission_ops_before;
    stats.coarse_ops += emission_ops;
    clock_->ChargeCoarseOps(emission_ops);
    span.set_arg("emitted", stats.emitted_results - emitted_before);
  }
  take_phase(alloc_phase_emission_counter_);
  if (region_service_hist_ != nullptr) {
    region_service_hist_->Observe(clock_->Now() - region_vstart_);
  }
}

Status RegionPipeline::FinalDrain() {
  // With every region resolved, nothing can remain parked.
  std::vector<std::pair<int, int64_t>> leftovers;
  emission_.DrainAll(leftovers);
  CAQE_DCHECK(leftovers.empty());
  for (const auto& [q, id] : leftovers) EmitResult(q, id);
  return Status::OK();
}

}  // namespace caqe
