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

CoreOptions::CoreOptions(const EngineOptions& engine)
    : num_threads(engine.num_threads),
      coarse_index(engine.coarse_index),
      feedback(engine.feedback_enabled),
      dva_mode(engine.dva_mode),
      obs(engine.obs) {}

CoreOptions::CoreOptions(const ExecOptions& exec)
    : CoreOptions(static_cast<const EngineOptions&>(exec)) {
  coarse_prune = exec.coarse_prune;
  capture_results = exec.capture_results;
  known_result_counts = exec.known_result_counts;
  on_result = exec.on_result;
}

Status RunSharedCore(const PartitionedTable& part_r,
                     const PartitionedTable& part_t, const Workload& workload,
                     const std::vector<int>& global_query_ids,
                     SatisfactionTracker& tracker, VirtualClock& clock,
                     EngineStats& stats, std::vector<QueryReport>& reports,
                     const CoreOptions& core_options) {
  if (static_cast<int>(global_query_ids.size()) != workload.num_queries()) {
    return Status::InvalidArgument("global_query_ids size mismatch");
  }
  if (core_options.pipeline_regions != EngineOptions::pipeline_regions ||
      core_options.compact_layout != EngineOptions::compact_layout ||
      core_options.join_index_cache_entries !=
          EngineOptions::join_index_cache_entries) {
    return Status::InvalidArgument(
        "pipeline_regions, compact_layout and join_index_cache_entries "
        "name deleted engine paths and must keep their defaults");
  }

  // Worker pool for the parallel phases, unless the caller lent one.
  std::unique_ptr<ThreadPool> pool_owner;
  ThreadPool* pool = core_options.pool;
  if (pool == nullptr) {
    pool_owner = MakeWorkerPool(core_options.num_threads);
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

  // Every region that still has a lineage starts pending.
  RegionPipeline pipeline(&part_r, &part_t, &workload, &rc, &tracker, &clock,
                          &stats, &reports, pool, core_options);
  pipeline.SetGlobalQueryIds(global_query_ids);

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

  // ---- Scheduler (none for the static scan). ----
  SchedulerOptions sched_options;
  sched_options.feedback_enabled = core_options.feedback;
  sched_options.contract_driven =
      core_options.policy == SchedulePolicy::kContractDriven;
  sched_options.obs = obs;
  std::optional<ContractDrivenScheduler> scheduler;
  if (core_options.policy != SchedulePolicy::kStaticScan) {
    scheduler.emplace(&rc, &pipeline.pending(), &workload, &tracker,
                      &clock.cost_model(), sched_options);
    pipeline.set_scheduler(&scheduler.value());
  }

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

  // ---- Algorithm 1: pick, process, Eq. 11 feedback. ----
  while (pipeline.pending_count() > 0) {
    record_steps(pipeline.ProcessNext("core"));
  }

  return pipeline.FinalDrain();
}

}  // namespace caqe
