#include "exec/shared_core.h"

#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "exec/region_pipeline.h"
#include "obs/observability.h"
#include "optimizer/scheduler.h"
#include "region/dependency_graph.h"
#include "region/region_builder.h"
#include "skyline/cardinality.h"

namespace caqe {

Status RunSharedCore(const PartitionedTable& part_r,
                     const PartitionedTable& part_t, const Workload& workload,
                     const std::vector<int>& global_query_ids,
                     SatisfactionTracker& tracker, VirtualClock& clock,
                     EngineStats& stats, std::vector<QueryReport>& reports,
                     const CoreOptions& core_options) {
  if (static_cast<int>(global_query_ids.size()) != workload.num_queries()) {
    return Status::InvalidArgument("global_query_ids size mismatch");
  }

  // Worker pool for the parallel phases. The calling thread always
  // participates in chunked work, so `num_threads` total threads means
  // `num_threads - 1` pool workers; 1 keeps today's fully serial path.
  const int num_threads = ResolveNumThreads(core_options.num_threads);
  std::unique_ptr<ThreadPool> pool_owner;
  ThreadPool* pool = core_options.pool;
  if (pool == nullptr && num_threads > 1) {
    pool_owner = std::make_unique<ThreadPool>(num_threads - 1);
    pool = pool_owner.get();
  }

  Observability* const obs = core_options.obs;
  TraceSink* const spans = Observability::Spans(obs);

  // ---- Multi-query output look-ahead: coarse join. ----
  // With coarse_index on, the per-side selection classes are derived once
  // from packed box trees and the per-pair query loop becomes bit-set
  // algebra; the index build is charged to the region-build wall span so
  // the off/on wall comparison stays honest.  Traversal counters live in
  // CoarseIndexStats (outside the report) and are exported as metrics.
  SelectionClassIndex sel_index;
  CoarseIndexStats index_stats;
  Result<RegionCollection> rc_result = [&] {
    TraceSpan span(spans, "region_build", "core",
                   &stats.wall_region_build_seconds);
    RegionBuildOptions build_options;
    build_options.pool = pool;
    if (core_options.coarse_index) {
      TraceSpan index_span(spans, "coarse_index_build", "core");
      sel_index = BuildSelectionClassIndex(part_r, part_t, workload,
                                           &index_stats);
      index_span.set_arg("cells",
                         part_r.num_cells() + part_t.num_cells());
      build_options.selection_index = &sel_index;
      build_options.index_stats = &index_stats;
    }
    return BuildRegions(part_r, part_t, workload, build_options);
  }();
  CAQE_RETURN_NOT_OK(rc_result.status());
  RegionCollection rc = std::move(rc_result).value();
  stats.regions_built += static_cast<int64_t>(rc.regions.size());
  stats.coarse_ops += rc.coarse_ops;
  clock.ChargeCoarseOps(rc.coarse_ops);

  // Scheduling state the pipeline mutates (region completion + discards).
  std::vector<char> pending(rc.regions.size(), 0);
  int64_t pending_count = 0;

  // The pipeline's emission manager is built from the pre-prune lineages,
  // which charges the identical operation counts (the witness scan skips
  // non-pending regions and non-serving lineage entries before charging
  // anything).
  PipelineOptions pipe_options;
  pipe_options.tuple_discard = core_options.tuple_discard;
  pipe_options.dva_mode = core_options.dva_mode;
  pipe_options.capture_results = core_options.capture_results;
  pipe_options.on_result = core_options.on_result;
  pipe_options.obs = obs;
  pipe_options.pipeline_regions = core_options.pipeline_regions;
  pipe_options.compact_layout = core_options.compact_layout;
  pipe_options.join_index_cache_entries =
      core_options.join_index_cache_entries;
  RegionPipeline pipeline(&part_r, &part_t, &workload, &rc, &pending,
                          &pending_count, &tracker, &clock, &stats, &reports,
                          pool, std::move(pipe_options));
  pipeline.SetGlobalQueryIds(global_query_ids);

  // ---- Coarse skyline prune (MQLA). ----
  if (core_options.coarse_prune) {
    CoarsePruneOptions prune_options;
    prune_options.use_index = core_options.coarse_index;
    if (core_options.coarse_index) prune_options.index_stats = &index_stats;
    const CoarsePruneStats prune =
        CoarseSkylinePrune(rc, workload, prune_options);
    stats.coarse_ops += prune.coarse_ops;
    stats.regions_discarded += prune.pruned_regions;
    clock.ChargeCoarseOps(prune.coarse_ops);
  }

  // Export the index traversal shape through obs (never the report: the
  // report is byte-identical across coarse_index off/on by construction).
  if (obs != nullptr && core_options.coarse_index) {
    RecordCoarseIndexStats(obs->metrics, index_stats);
  }

  // ---- Per-(predicate, selections) min-max cuboid plans. ----
  CAQE_RETURN_NOT_OK(pipeline.BuildPlanGroups());

  // ---- Result-cardinality estimates for cardinality contracts. ----
  for (int q = 0; q < workload.num_queries(); ++q) {
    const int global_q = global_query_ids[q];
    double total = 0.0;
    if (global_q < static_cast<int>(core_options.known_result_counts.size())) {
      total = core_options.known_result_counts[global_q];
    }
    if (total <= 0.0) {
      const int slot = rc.slot_of_query[q];
      total = BuchtaSkylineCardinality(
          static_cast<double>(rc.total_join_sizes[slot]),
          static_cast<int>(workload.query(q).preference.size()));
    }
    tracker.SetEstimatedTotal(global_q, total);
  }

  // ---- Scheduling state. ----
  for (const OutputRegion& region : rc.regions) {
    if (!region.rql.empty()) {
      pending[region.id] = 1;
      ++pending_count;
    }
  }

  SchedulerOptions sched_options;
  sched_options.feedback_enabled = core_options.feedback;
  sched_options.contract_driven =
      core_options.policy == SchedulePolicy::kContractDriven;
  sched_options.obs = obs;
  std::optional<ContractDrivenScheduler> scheduler;
  if (core_options.policy != SchedulePolicy::kStaticScan) {
    scheduler.emplace(&rc, &workload, &tracker, &clock.cost_model(),
                      sched_options);
    pipeline.set_scheduler(&scheduler.value());
  }
  int static_cursor = 0;

  // Contract-health introspection: bind query names once, then append
  // every query's (results, pScore, weight) after every region at virtual
  // time — the event log keeps only the steps that moved, deterministic
  // across thread counts.
  ContractEventLog* const events = Observability::Events(obs);
  if (events != nullptr) {
    for (int q = 0; q < workload.num_queries(); ++q) {
      events->SetName(global_query_ids[q], workload.query(q).name);
    }
  }
  auto record_steps = [&](int region) {
    if (events == nullptr) return;
    const double now = clock.Now();
    for (int q = 0; q < workload.num_queries(); ++q) {
      const int global_q = global_query_ids[q];
      const QuerySatisfaction& sat = tracker.satisfaction(global_q);
      events->Append({.kind = ContractEventKind::kRegionStep,
                      .request_id = global_q,
                      .region = region,
                      .vtime = now,
                      .results = sat.results,
                      .pscore = sat.pscore,
                      .weight = scheduler.has_value() ? scheduler->weight(q)
                                                      : 1.0});
    }
  };
  record_steps(/*region=*/-1);

  while (pending_count > 0) {
    // ---- Pick the next region. ----
    int rid = -1;
    if (scheduler.has_value()) {
      int64_t pick_ops = 0;
      rid = scheduler->PickNext(clock.Now(), &pick_ops);
      stats.coarse_ops += pick_ops;
      clock.ChargeCoarseOps(pick_ops);
    } else {
      while (static_cursor < static_cast<int>(pending.size()) &&
             !pending[static_cursor]) {
        ++static_cursor;
      }
      CAQE_CHECK(static_cursor < static_cast<int>(pending.size()));
      rid = static_cursor;
    }

    // ---- Tuple-level processing (join, project, evaluate, discard,
    // emission) — see RegionPipeline::ProcessRegion. ----
    {
      // Umbrella span: the pipeline's phase spans (join/eval/discard/
      // emission) parent under it, so each region step is one connected
      // causal tree and tree-sticky sampling keeps or drops it whole.
      TraceSpan region_span(spans, "process_region", "core");
      region_span.set_region(rid);
      if (spans != nullptr) {
        pipeline.set_trace_context(RequestTraceContext{
            .root_span = region_span.id(), .parent_span = region_span.id()});
      }
      pipeline.ProcessRegion(rid);
    }

    // ---- Satisfaction feedback (Eq. 11). ----
    if (scheduler.has_value()) scheduler->UpdateWeights();
    record_steps(rid);
  }

  return pipeline.FinalDrain();
}

}  // namespace caqe
