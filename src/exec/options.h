// Engine execution options: the shared region-engine knobs and the batch
// fields on top of them.
#ifndef CAQE_EXEC_OPTIONS_H_
#define CAQE_EXEC_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/virtual_clock.h"

namespace caqe {

struct Observability;

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

/// The knobs of the shared region engine (paper Sections 4-6), declared
/// once for both of its drivers: batch Execute (ExecOptions) and the
/// long-lived server (ServeOptions) add their own fields on top. Engines
/// without a region core (JFSL, SSMJ) read only `cost`.
struct EngineOptions {
  /// Virtual-time cost model used for contract timestamps.
  CostModel cost;
  /// Worker threads for the parallel execution phases of region-based
  /// engines (partitioning, coarse join, row projection, plan-group skyline
  /// evaluation, tuple-level discard scans).
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
  /// Apply Eq. 11 satisfaction feedback to the scheduler weights (CAQE
  /// default; ablation knob).
  bool feedback_enabled = true;
  /// Drive the coarse phase from bulk-loaded packed box trees instead of
  /// flat scans: region discovery classifies each query's selection ranges
  /// against a cell R-tree (whole subtrees accepted/rejected via their
  /// MBRs) and the coarse skyline prune finds each region's first
  /// dominator by best-first branch-and-bound. Op charging is
  /// serial-identical, so reports are byte-identical with the flag on or
  /// off at any num_threads — only wall time and the caqe_coarse_index_*
  /// metrics change. Default off.
  bool coarse_index = false;
  /// Tracing + metrics + contract-event bundle (src/obs/). Null (default)
  /// disables all observability at the cost of one branch per span. When
  /// set, region-based engines and the server append their scheduling,
  /// discarding and emission events and every query's region steps to its
  /// event log. Observability never feeds the deterministic counters or the
  /// virtual clock: reports are byte-identical with or without it.
  Observability* obs = nullptr;

  /// Names of deleted knobs, fixed at the values the engine always runs:
  /// the serial emission flush, the key-match join, and the old join-index
  /// cache bound. perfbench/ is their only reader (its provenance lines
  /// print them); the benchmark change that drops those reads deletes them.
  static constexpr bool pipeline_regions = false;
  static constexpr bool compact_layout = true;
  static constexpr int64_t join_index_cache_entries = 4096;
};

/// Options accepted by every batch engine: the engine knobs plus the
/// fields only a one-shot Execute reads.
struct ExecOptions : EngineOptions {
  /// Capture per-result values and timestamps in the report (tests and
  /// examples; benchmarks leave it off).
  bool capture_results = false;
  /// Run the coarse-level (MQLA) skyline prune before scheduling (CAQE
  /// default; ablation knob).
  bool coarse_prune = true;
  /// Optional exact final result cardinalities, one per query (index =
  /// query index). When provided, cardinality contracts (C4/C5) score
  /// against the true N of Table 2 instead of the Buchta estimate; entries
  /// <= 0 fall back to the estimate. The benchmark harness fills this from
  /// a calibration run so all engines are scored identically.
  std::vector<double> known_result_counts;
  /// Streaming consumer: invoked synchronously for every reported result,
  /// in report order — (query index, virtual report time, utility). This is
  /// how an application consumes progressive results instead of waiting
  /// for the final report.
  std::function<void(int query, double time, double utility)> on_result;
};

}  // namespace caqe

#endif  // CAQE_EXEC_OPTIONS_H_
