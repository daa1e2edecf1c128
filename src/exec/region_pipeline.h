// The region loop of the shared engine (paper Algorithm 1 and Sections 4-6),
// driven by both RunSharedCore and the online serving layer (src/serve/).
//
// A RegionPipeline owns the loop's state — the pending flags (which regions
// still await tuple-level processing), the pick, and everything a region's
// tuple-level processing needs: join kernel, row block, tuple store, plan
// groups (min-max cuboids + shared skyline evaluators), and the
// safe-emission manager. The driver owns the scheduler and its own event
// loop around the steps. ProcessNext() performs one step of Algorithm 1:
// pick the region (the scheduler's CSM pick, or the static scan without a
// scheduler), process it — join, project, shared skyline evaluation,
// dominated-region discarding, progressive emission — and apply the Eq. 11
// weight feedback, charging the identical operation counts to the virtual
// clock in either driver.
//
// Every change to a pending flag goes through ResolveRegion (processed,
// discarded, or emptied by a retirement) or ReviveRegion (reopened by a
// graft), which keep the scheduler's dependency graph and caches in step.
// The emission manager, the scheduler and admission read the flags through
// pending().
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
// A step wakes the thread pool only when it is large enough to pay for it:
// one fork decision per step from its matches x (1 + active plan groups),
// then each phase forks only into chunks of its own work grain (DESIGN.md
// §7). Chunking never changes a count or a merge order.
//
// The serving layer additionally mutates the pipeline between steps:
// AddPlanGroup splices a grafted query batch in, RemoveQueryFromGroups
// retires one, and the per-event query_set membership filter makes both
// invisible to the batch path (where memberships never change).
#ifndef CAQE_EXEC_REGION_PIPELINE_H_
#define CAQE_EXEC_REGION_PIPELINE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "cuboid/min_max_cuboid.h"
#include "cuboid/shared_skyline.h"
#include "exec/emission.h"
#include "exec/join_kernel.h"
#include "exec/shared_core.h"
#include "metrics/report.h"
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

/// Tuple-level processing of one region collection. See file comment.
class RegionPipeline {
 public:
  /// Serving-layer emission hook: (global query, tuple id, virtual time,
  /// utility) for every emitted result, fired after the options' on_result.
  /// The tuple id is the result's running join-match count; store().row(id)
  /// holds its values for the pipeline's life.
  using EmitCallback =
      std::function<void(int query, int64_t id, double time, double utility)>;

  /// Of the driver's `options` the pipeline reads result capture and
  /// streaming, DVA gating, tuple discarding, the join layout, the emission
  /// flush (run on `pool`) and obs. All pointers must outlive the pipeline.
  /// A region starts pending iff its lineage is non-empty at construction,
  /// and the emission manager's witness scan lists are built from the same
  /// lineages.
  RegionPipeline(const PartitionedTable* part_r,
                 const PartitionedTable* part_t, const Workload* workload,
                 RegionCollection* rc, SatisfactionTracker* tracker,
                 VirtualClock* clock, EngineStats* stats,
                 std::vector<QueryReport>* reports, ThreadPool* pool,
                 const CoreOptions& options, EmitCallback on_emit = nullptr);

  /// Maps workload query index -> tracker/report index. Identity for the
  /// shared engines and the server; a singleton for per-query baselines.
  void SetGlobalQueryIds(std::vector<int> ids) {
    global_query_ids_ = std::move(ids);
  }

  /// The scheduler that picks each step's region and hears of every flag
  /// change. Null selects the static scan (S-JFSL): ascending region id.
  void set_scheduler(ContractDrivenScheduler* scheduler) {
    scheduler_ = scheduler;
  }

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

  /// Pending flag per region: set while the region awaits tuple-level
  /// processing. The scheduler, the emission manager and admission read it.
  const std::vector<char>& pending() const { return pending_; }
  int64_t pending_count() const { return pending_count_; }

  /// Region `rid` no longer awaits processing — processed, discarded, or
  /// left with an empty lineage by a retirement: clears its flag and
  /// removes it from the scheduler's dependency graph. Requires it pending.
  void ResolveRegion(int rid);

  /// A graft reopened region `rid`: sets its flag and invalidates the
  /// scheduler's benefit cache for it. Requires it not pending and a
  /// scheduler.
  void ReviveRegion(int rid);

  /// One step of Algorithm 1: picks a pending region (the scheduler's CSM
  /// pick, charging its scan as coarse ops, or the static scan), processes
  /// it under a "process_region" span of `span_category` (a string
  /// literal; the phase spans parent under it, so each step is one causal
  /// tree; see DESIGN.md §15), then applies the Eq. 11 weight feedback.
  /// Returns the region id. Requires pending_count() > 0.
  int ProcessNext(const char* span_category);

  /// Final drain: asserts nothing is parked (holds whenever every region
  /// was resolved) and emits leftovers defensively.
  Status FinalDrain();

  EmissionManager& emission() { return emission_; }
  /// Values of every tuple some query accepted, by tuple id.
  const TupleStore& store() const { return store_; }

 private:
  /// The region-step phases that may fork on the pool, as counted by the
  /// caqe_region_phase_{forks,serial}_total series.
  enum ForkPhase { kProjectPhase, kEvaluatePhase, kDiscardPhase, kNumPhases };

  /// Processes pending region `rid` tuple-level: charge the schedule step,
  /// join, project, evaluate, discard scan, emission. The phase spans
  /// parent under `step_span` (0 without spans).
  void ProcessRegion(int rid, uint64_t step_span);
  /// Feeds the region's `num_matches` projected matches (tuple ids from
  /// `base_id`) through `group`'s evaluator in stream order, appending its
  /// current members' accept and evict events; returns the comparisons.
  int64_t EvaluateGroup(PlanGroup& group, int64_t base_id,
                        int64_t num_matches);
  /// Counts one step of `phase` as forked or serial (with obs only).
  void CountFork(ForkPhase phase, bool forked);
  /// Charges one result of workload query `q` (ChargeResult), then fires
  /// the serving hook and the emission-latency histogram.
  void EmitResult(int q, int64_t id);
  /// Grows per-query scratch to the workload's current size (no-op in the
  /// batch path where the workload never grows).
  void EnsureQueryCapacity();

  const PartitionedTable* part_r_;
  const PartitionedTable* part_t_;
  const Workload* workload_;
  RegionCollection* rc_;
  SatisfactionTracker* tracker_;
  VirtualClock* clock_;
  EngineStats* stats_;
  std::vector<QueryReport>* reports_;
  ThreadPool* pool_;
  CoreOptions options_;
  EmitCallback on_emit_;
  ContractDrivenScheduler* scheduler_ = nullptr;
  /// See pending(); pending_count_ counts the set flags.
  std::vector<char> pending_;
  int64_t pending_count_ = 0;
  /// Static scan only: no region below the cursor is pending (nothing is
  /// revived without a scheduler; see ReviveRegion), so the cursor only
  /// moves forward.
  int static_cursor_ = 0;

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
  /// ProcessNext step — the pick, the region's processing and the weight
  /// feedback — split warmup vs steady state; never read back, so reports
  /// stay byte-identical whether or not the hook is present.
  Counter* alloc_regions_counter_ = nullptr;
  Counter* alloc_warmup_counter_ = nullptr;
  Counter* alloc_steady_counter_ = nullptr;
  Counter* alloc_steady_regions_counter_ = nullptr;
  /// Steady-state attribution by pipeline phase (same gating as above):
  /// which phase of ProcessRegion the residual churn comes from, for the
  /// alloc-gate table; the pick and the feedback are the step's remainder.
  Counter* alloc_phase_join_counter_ = nullptr;
  Counter* alloc_phase_eval_counter_ = nullptr;
  Counter* alloc_phase_discard_counter_ = nullptr;
  Counter* alloc_phase_emission_counter_ = nullptr;
  /// Per ForkPhase: steps whose phase forked on the pool, and steps it ran
  /// on the calling thread alone (null without an Observability). Never
  /// read back, like the alloc counters.
  std::array<Counter*, kNumPhases> fork_counters_{};
  std::array<Counter*, kNumPhases> serial_counters_{};
  /// ProcessNext steps so far (warmup window index).
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

  // Per-region scratch, reused across regions: every buffer keeps its
  // capacity, which is what makes a steady-state region allocation-free.
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
  // Plan groups the region feeds, their comparison counts, and the results
  // emitted per query.
  std::vector<PlanGroup*> active_groups_;
  std::vector<int64_t> group_cmps_;
  std::vector<int64_t> emitted_per_query_;
};

}  // namespace caqe

#endif  // CAQE_EXEC_REGION_PIPELINE_H_
