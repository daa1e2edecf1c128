// The per-region tuple-level pipeline (paper Sections 4-6) factored out of
// the batch execution loop so both RunSharedCore and the online serving
// layer (src/serve/) can drive it.
//
// A RegionPipeline owns everything a region's tuple-level processing needs
// — join kernel, row block, tuple store, plan groups (min-max cuboids +
// shared skyline evaluators), and the safe-emission manager — while the
// caller owns the scheduling state (pending flags, scheduler, the loop
// itself). Calling ProcessRegion(rid) performs exactly the batch loop body:
// join, project, shared skyline evaluation, dominated-region discarding,
// and progressive emission, charging the identical operation counts to the
// virtual clock.
//
// Every join match gets a tuple id: the running count of matches the
// pipeline has produced. A region projects its matches into one row block
// that every region reuses; evaluation and the discard scan read it there.
// Only the rows some query accepted outlive the region: they are copied
// into the tuple store (store()), keyed by tuple id, before discard and
// emission, so everything that reads a row later — the emission witness
// scan, result capture, serving callbacks — finds every accepted tuple
// there. The store grows with the tuples accepted, not with the join
// results produced.
//
// The serving layer additionally mutates the pipeline between regions:
// AddPlanGroup splices a grafted query batch in, RemoveQueryFromGroups
// retires one, and the per-event query_set membership filter makes both
// invisible to the batch path (where memberships never change).
#ifndef CAQE_EXEC_REGION_PIPELINE_H_
#define CAQE_EXEC_REGION_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "cuboid/min_max_cuboid.h"
#include "cuboid/shared_skyline.h"
#include "exec/emission.h"
#include "exec/join_kernel.h"
#include "exec/options.h"
#include "metrics/report.h"
#include "obs/trace_context.h"
#include "optimizer/scheduler.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "region/region_builder.h"
#include "skyline/dominance_batch.h"
#include "skyline/point_set.h"

namespace caqe {

class ContractEventLog;
class Counter;
class Histogram;
struct Observability;

/// Queries sharing one join predicate *and* the same selections share a
/// min-max cuboid plan: they see the same join-tuple stream, so their
/// subspace skylines can be evaluated together (Section 4.1 restricts
/// sharing to queries identical up to their skyline dimensions).
struct PlanGroup {
  int slot = 0;
  /// Workload-local query indices, in group order (= cuboid query order).
  /// Stable for the group's lifetime — local indices into the cuboid.
  std::vector<int> queries;
  /// The *current* members as a set; retirement removes queries here while
  /// `queries` keeps the local-index mapping intact.
  QuerySet query_set;
  /// The group's common selections (shared by every member).
  std::vector<SelectionRange> selections;
  MinMaxCuboid cuboid;
  std::unique_ptr<SharedSkylineEvaluator> evaluator;
};

/// Canonical grouping key for a query's selections (order-insensitive).
std::string PlanGroupSelectionKey(const SjQuery& query);

/// Knobs of the per-region pipeline (reduced from CoreOptions).
struct PipelineOptions {
  /// Tuple-level dominated-region discarding (Section 6).
  bool tuple_discard = true;
  /// Theorem-1 feeder gating in the shared skyline evaluators.
  bool dva_mode = true;
  /// Capture per-result values into the reports vector.
  bool capture_results = false;
  /// Optional streaming consumer, called with global query ids.
  std::function<void(int query, double time, double utility)> on_result;
  /// Serving-layer emission hook: (global query, tuple id, virtual time,
  /// utility) for every emitted result, fired after on_result. The tuple id
  /// is the result's running join-match count; store().row(id) holds its
  /// values for the pipeline's life.
  std::function<void(int query, int64_t id, double time, double utility)>
      on_emit;
  /// Optional tracing/metrics/event-log bundle (see ExecOptions::obs).
  Observability* obs = nullptr;
  /// Flush the sharded emission park set in parallel (see
  /// ExecOptions::pipeline_regions). Requires a pool to have any effect;
  /// byte-identical reports either way.
  bool pipeline_regions = false;
  /// Key-match join (see ExecOptions::compact_layout); off selects the
  /// hash join. Reports stay byte-identical.
  bool compact_layout = true;
  /// Map-layout join-index cache bound (see
  /// ExecOptions::join_index_cache_entries).
  int64_t join_index_cache_entries = 4096;
};

/// Tuple-level processing of one region collection. See file comment.
class RegionPipeline {
 public:
  /// All pointers must outlive the pipeline. `pending`/`pending_count` are
  /// caller-owned scheduling state mutated by ProcessRegion (the processed
  /// region completes; discard scans may resolve others). The emission
  /// manager's witness scan lists are built from the current lineages
  /// (safe to build before a coarse prune — resolved entries are skipped by
  /// the pending/lineage checks without charging, so operation counts are
  /// unchanged).
  RegionPipeline(const PartitionedTable* part_r,
                 const PartitionedTable* part_t, const Workload* workload,
                 RegionCollection* rc, std::vector<char>* pending,
                 int64_t* pending_count, SatisfactionTracker* tracker,
                 VirtualClock* clock, EngineStats* stats,
                 std::vector<QueryReport>* reports, ThreadPool* pool,
                 PipelineOptions options);

  /// Maps workload query index -> tracker/report index. Identity for the
  /// shared engines and the server; a singleton for per-query baselines.
  void SetGlobalQueryIds(std::vector<int> ids) {
    global_query_ids_ = std::move(ids);
  }

  /// The scheduler notified of region removals (processed or discarded by
  /// the scans ProcessRegion runs). May be null (static-scan policy).
  void set_scheduler(ContractDrivenScheduler* scheduler) {
    scheduler_ = scheduler;
  }

  /// Causal attribution for the spans the next ProcessRegion emits: the
  /// driver sets this to its umbrella "process_region" span so the
  /// join/eval/discard/emission phase spans parent under it (one connected
  /// tree per region step; see DESIGN.md §15). Observability-only — the
  /// context never feeds a decision.
  void set_trace_context(const RequestTraceContext& ctx) { trace_ctx_ = ctx; }

  /// Batch setup: builds one plan group per (predicate slot, selection key)
  /// over the workload's current queries (Section 4.1 sharing).
  Status BuildPlanGroups();

  /// Serving graft: builds one plan group for `queries` (identical
  /// selections, same predicate slot). The group's evaluator starts empty —
  /// sound because every member sees exactly the join tuples of regions
  /// processed from now on.
  Status AddPlanGroup(int slot, std::vector<int> queries);

  /// Serving retirement: removes query `q` from its plan group. A group
  /// left without members is erased; otherwise its evaluator releases the
  /// subspace skylines only `q` needed (see
  /// SharedSkylineEvaluator::ReleaseQueries).
  void RemoveQueryFromGroups(int q);

  /// Plan groups currently held: one per batch sharing group, one per live
  /// serving graft.
  int64_t num_plan_groups() const {
    return static_cast<int64_t>(groups_.size());
  }

  /// Processes region `rid` tuple-level: the exact batch loop body (charge
  /// schedule step, join, project, evaluate, discard scan, emission).
  /// Requires (*pending)[rid] on entry.
  void ProcessRegion(int rid);

  /// Final drain: asserts nothing is parked (holds whenever every region
  /// was resolved) and emits leftovers defensively.
  Status FinalDrain();

  EmissionManager& emission() { return emission_; }
  CellJoinKernel& kernel() { return kernel_; }
  /// Values of every tuple some query accepted, by tuple id.
  const TupleStore& store() const { return store_; }

 private:
  void EmitResult(int q, int64_t id);
  /// Grows per-query scratch to the workload's current size (no-op in the
  /// batch path where the workload never grows).
  void EnsureQueryCapacity();
  /// Bit s set when slot s has join results and still serves a lineage
  /// query of `region` — the slots the tuple-level join must cover.
  uint32_t ComputeSlotsMask(const OutputRegion& region) const;

  const PartitionedTable* part_r_;
  const PartitionedTable* part_t_;
  const Workload* workload_;
  RegionCollection* rc_;
  std::vector<char>* pending_;
  int64_t* pending_count_;
  SatisfactionTracker* tracker_;
  VirtualClock* clock_;
  EngineStats* stats_;
  std::vector<QueryReport>* reports_;
  ThreadPool* pool_;
  PipelineOptions options_;
  ContractDrivenScheduler* scheduler_ = nullptr;
  RequestTraceContext trace_ctx_;

  std::vector<int> global_query_ids_;
  /// Event log of the attached Observability (null without one): the
  /// scheduling, discarding and emission events land here.
  ContractEventLog* events_ = nullptr;
  // Metrics resolved once at construction when an Observability is attached
  // (null otherwise). Virtual-time histograms: deterministic observations.
  Histogram* region_service_hist_ = nullptr;
  Histogram* emission_latency_hist_ = nullptr;
  /// Allocation-accounting counters (non-null only with an Observability
  /// *and* the bench/test alloc interposer linked in — see
  /// common/alloc_hook.h). They count the control thread's heap traffic per
  /// ProcessRegion, split warmup vs steady state; never read back, so
  /// reports stay byte-identical whether or not the hook is present.
  Counter* alloc_regions_counter_ = nullptr;
  Counter* alloc_warmup_counter_ = nullptr;
  Counter* alloc_steady_counter_ = nullptr;
  Counter* alloc_steady_regions_counter_ = nullptr;
  /// Steady-state attribution by pipeline phase (same gating as above):
  /// which phase the residual churn comes from, for the alloc-gate table.
  Counter* alloc_phase_join_counter_ = nullptr;
  Counter* alloc_phase_eval_counter_ = nullptr;
  Counter* alloc_phase_discard_counter_ = nullptr;
  Counter* alloc_phase_emission_counter_ = nullptr;
  /// ProcessRegion invocations so far (warmup window index).
  int64_t regions_accounted_ = 0;
  /// Virtual time the region currently in ProcessRegion was scheduled at
  /// (emission latency = emit vtime - this).
  double region_vstart_ = 0.0;
  CellJoinKernel kernel_;
  /// Accepted tuples' rows, ascending tuple id (see file comment).
  TupleStore store_;
  /// The current region's projected matches: row i is tuple
  /// base id + i. Grow-only, reused by every region.
  PointSet block_;
  /// Tuple id of the next join match (running match count).
  int64_t next_tuple_id_ = 0;
  EmissionManager emission_;
  std::vector<std::unique_ptr<PlanGroup>> groups_;

  // Per-region scratch, reused across calls. Together with the epoch arena
  // below this is what makes a steady-state region allocation-free: every
  // buffer either keeps its capacity across regions (the vectors here) or
  // comes out of the arena, which converges to one block after warmup.
  std::vector<JoinMatch> matches_;
  std::vector<std::vector<int64_t>> accepted_events_;
  std::vector<std::vector<int64_t>> evicted_events_;
  /// Per block row: accepted by some query this region. All zero between
  /// regions; grow-only.
  std::vector<char> accepted_marks_;
  std::vector<int64_t> discard_tests_;
  std::vector<char> discard_hits_;
  SubspaceView accepted_view_;
  // Emission flush-barrier scratch (per-query shard outputs).
  std::vector<std::vector<int64_t>> flush_resolved_;
  std::vector<std::vector<int64_t>> flush_direct_;
  // Emission merge scratch (resolved (q, id) pairs of the discard phase).
  std::vector<std::pair<int, int64_t>> resolved_emits_;
  // Per-chunk projection scratch (chunks run on pool threads; each chunk
  // owns its slot).
  std::vector<std::vector<double>> project_scratch_;

  /// Epoch arena for the small per-region control scratch (active-group
  /// list, per-group comparison counts, emission tallies). Reset at each
  /// ProcessRegion entry; only the control thread allocates from it.
  Arena arena_;
  ArenaVector<PlanGroup*> active_groups_;
  ArenaVector<int64_t> group_cmps_;
  ArenaVector<int64_t> emitted_per_query_;
};

}  // namespace caqe

#endif  // CAQE_EXEC_REGION_PIPELINE_H_
