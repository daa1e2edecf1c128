// Engine execution options.
#ifndef CAQE_EXEC_OPTIONS_H_
#define CAQE_EXEC_OPTIONS_H_

#include <functional>
#include <vector>

#include "common/virtual_clock.h"

namespace caqe {

struct Observability;

/// One observable event of an engine execution, for debugging and
/// post-hoc analysis of scheduling decisions.
struct ExecEvent {
  enum class Kind {
    /// A region was picked for tuple-level processing.
    kRegionScheduled,
    /// A region was discarded without processing (lineage emptied).
    kRegionDiscarded,
    /// One query was pruned from a region's lineage.
    kQueryPruned,
    /// `count` results of `query` were emitted.
    kResultsEmitted,
    /// Serving layer: `query` was admitted and grafted into the running
    /// workload (`count` = number of live regions in its lineage).
    kQueryAdmitted,
    /// Serving layer: `query` was retired mid-run (`count` = parked
    /// candidates dropped with it).
    kQueryRetired,
    /// Serving layer: a calibration shift re-previewed deferred request
    /// `query` (`count` = 1 when the re-preview upgraded it to an admit).
    kQueryRepreviewed,
  };
  Kind kind = Kind::kRegionScheduled;
  /// Virtual time of the event.
  double vtime = 0.0;
  int region = -1;
  int query = -1;
  int64_t count = 0;
};

/// Input partitioning structure used by region-based engines.
enum class PartitionStrategy {
  /// Equi-width grid with an auto-chosen per-dimension slice vector.
  kGrid,
  /// Adaptive d-dimensional quad tree (the paper's Section 5.1 structure):
  /// balanced cell populations under skew.
  kQuadTree,
};

/// Region scheduling policy of the shared execution core.
enum class SchedulePolicy {
  /// CSM-based contract-driven ordering (CAQE, Algorithm 1).
  kContractDriven,
  /// Count-driven ordering: estimated early results per second (the
  /// ProgXe+ policy).
  kCountDriven,
  /// Static scan order (region id order) — the S-JFSL strawman that shares
  /// the plan but ignores contracts.
  kStaticScan,
};

/// Options accepted by every engine.
struct ExecOptions {
  /// Virtual-time cost model used for contract timestamps.
  CostModel cost;
  /// Worker threads for the parallel execution phases of region-based
  /// engines (coarse join, join-kernel index prefetch and probing,
  /// plan-group skyline evaluation, tuple-level discard scans).
  /// 1 (default) runs today's serial path; 0 uses every hardware thread.
  /// Contract scores are charged in *virtual* time per unit of work, so
  /// reports are bit-identical across thread counts — only wall_seconds
  /// changes. Engines that cannot use threads (JFSL, SSMJ) ignore this.
  int num_threads = 1;
  /// Input partitioning structure (grid or quad tree).
  PartitionStrategy partition_strategy = PartitionStrategy::kGrid;
  /// Grid slices per attribute when partitioning inputs; 0 picks a value
  /// automatically so the region count stays near `target_regions`
  /// (ignored by the quad-tree strategy).
  int cells_per_dim = 0;
  /// Soft cap used by the automatic granularity choice.
  int target_regions = 512;
  /// Enables Theorem-1 feeder gating in the shared skyline evaluator
  /// (strict-dominator form — exact even under value ties). Turning it off
  /// disables the comparison-sharing shortcut; results are identical.
  bool dva_mode = true;
  /// Capture per-result values and timestamps in the report (tests and
  /// examples; benchmarks leave it off).
  bool capture_results = false;
  /// Apply Eq. 11 satisfaction feedback (CAQE default; ablation knob).
  bool feedback_enabled = true;
  /// Flush the sharded emission park set in parallel at each region's
  /// emission barrier: per query, resolve the region's parked bucket and
  /// register its accepted tuples on the worker pool. Emission then merges
  /// the shard outputs in the serial emit order, so reports, events and obs
  /// spans are byte-identical with the flag on or off at any num_threads.
  /// Requires num_threads > 1 to have any effect. Default off.
  bool pipeline_regions = false;
  /// Drive the coarse phase from bulk-loaded packed box trees instead of
  /// flat scans: region discovery classifies each query's selection ranges
  /// against a cell R-tree (whole subtrees accepted/rejected via their
  /// MBRs) and the coarse skyline prune finds each region's first
  /// dominator by best-first branch-and-bound. Op charging is
  /// serial-identical, so reports are byte-identical with the flag on or
  /// off at any num_threads — only wall time and the caqe_coarse_index_*
  /// metrics change. Default off.
  bool coarse_index = false;
  /// Run the coarse-level (MQLA) skyline prune before scheduling (CAQE
  /// default; ablation knob).
  bool coarse_prune = true;
  /// Cache-conscious steady-state layout for the region hot path: flat
  /// CSR join indexes instead of node-based maps, arena/SoA scratch for
  /// the discard scan, and store-backed incremental skylines. Probe order
  /// and every charge are identical either way, so reports are
  /// byte-identical with the flag on or off — only memory layout, steady-
  /// state allocation counts, and wall time change. Default on; the off
  /// position exists for the alloc/perf A-B benchmark and as a
  /// determinism cross-check in the matrix scripts.
  bool compact_layout = true;
  /// Bound on built join-index cache entries kept across regions; beyond
  /// it, least-recently-used indexes are released deterministically
  /// (<= 0 means unbounded — the pre-bound behavior). First-use charge
  /// state survives eviction, so reports are identical at any value.
  int64_t join_index_cache_entries = 4096;
  /// Optional exact final result cardinalities, one per query (index =
  /// query index). When provided, cardinality contracts (C4/C5) score
  /// against the true N of Table 2 instead of the Buchta estimate; entries
  /// <= 0 fall back to the estimate. The benchmark harness fills this from
  /// a calibration run so all engines are scored identically.
  std::vector<double> known_result_counts;
  /// When non-null, region-based engines append their scheduling /
  /// discarding / emission events here (caller keeps ownership; must
  /// outlive the Execute call).
  std::vector<ExecEvent>* trace = nullptr;
  /// Streaming consumer: invoked synchronously for every reported result,
  /// in report order — (query index, virtual report time, utility). This is
  /// how an application consumes progressive results instead of waiting
  /// for the final report.
  std::function<void(int query, double time, double utility)> on_result;
  /// Tracing + metrics + contract-health bundle (src/obs/). Null (default)
  /// disables all observability at the cost of one branch per span.
  /// Observability never feeds the deterministic counters or the virtual
  /// clock: reports are byte-identical with or without it.
  Observability* obs = nullptr;
};

}  // namespace caqe

#endif  // CAQE_EXEC_OPTIONS_H_
