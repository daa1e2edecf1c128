// The shared region-based execution core (paper Sections 4-6) parameterized
// by scheduling policy. CAQE, S-JFSL, ProgXe+ and the ablation variants are
// thin wrappers around this core with different knobs.
#ifndef CAQE_EXEC_SHARED_CORE_H_
#define CAQE_EXEC_SHARED_CORE_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "exec/options.h"
#include "metrics/report.h"
#include "partition/partitioner.h"
#include "query/query.h"

namespace caqe {

/// Core execution knobs: what RunSharedCore and its RegionPipeline read.
/// Drivers fill them through the two conversions below and then set the
/// policy fields their engine fixes. The fields stay declared here, rather
/// than on top of EngineOptions, because perfbench/ assigns them by name.
struct CoreOptions {
  CoreOptions() = default;
  /// The engine knobs the core reads: threads, the coarse index, DVA
  /// gating, feedback and obs. Every other field keeps its default.
  explicit CoreOptions(const EngineOptions& engine);
  /// The engine knobs plus the batch fields: coarse prune, result capture,
  /// known result counts and the result stream.
  explicit CoreOptions(const ExecOptions& exec);

  SchedulePolicy policy = SchedulePolicy::kContractDriven;
  /// Worker threads for the parallel phases (region build, row projection,
  /// plan-group evaluation, discard scans). 1 = serial, 0 = all hardware
  /// threads. Reports are bit-identical at every value — work counters and
  /// the virtual clock charge the same totals (see DESIGN.md, "Concurrency
  /// model").
  int num_threads = 1;
  /// Tree-indexed coarse phase (see EngineOptions::coarse_index): drive the
  /// region build's selection tests and the coarse prune from packed box
  /// trees instead of flat scans. Reports stay bit-identical.
  bool coarse_index = false;
  /// Optional externally owned worker pool. When set, the core uses it for
  /// all parallel phases instead of creating its own (the pool must have
  /// been sized consistently with num_threads); callers that partition
  /// with the same pool avoid a second thread spin-up.
  ThreadPool* pool = nullptr;
  /// Names of deleted knobs. perfbench/ is their only user (it assigns
  /// them); the benchmark change that drops those lines deletes them.
  /// RunSharedCore returns InvalidArgument unless each equals its
  /// EngineOptions constant.
  bool pipeline_regions = EngineOptions::pipeline_regions;
  bool compact_layout = EngineOptions::compact_layout;
  int64_t join_index_cache_entries = EngineOptions::join_index_cache_entries;
  bool coarse_prune = true;
  /// Eq. 11 satisfaction feedback (EngineOptions::feedback_enabled).
  bool feedback = true;
  /// Tuple-level dominated-region discarding (Section 6). CAQE's source of
  /// the "20x fewer join results" claim; the S-JFSL strawman pipelines
  /// every region and leaves this off.
  bool tuple_discard = true;
  bool dva_mode = true;
  bool capture_results = false;
  /// Exact final result counts by *global* query id (see
  /// ExecOptions::known_result_counts). Empty or non-positive entries fall
  /// back to the Buchta estimate.
  std::vector<double> known_result_counts;
  /// Optional streaming consumer, called with *global* query ids (see
  /// ExecOptions::on_result).
  std::function<void(int query, double time, double utility)> on_result;
  /// Optional tracing/metrics/event-log bundle (see EngineOptions::obs).
  Observability* obs = nullptr;
};

/// Executes `workload` over the partitioned inputs with the shared
/// region-based machinery: coarse join (regions), optional coarse skyline
/// prune, per-predicate min-max cuboid plans, policy-driven region
/// scheduling, tuple-level join/project/skyline, dominated-region
/// discarding, and safe progressive emission.
///
/// `global_query_ids[i]` maps workload query i to its index in `tracker`
/// and `reports` — identity for shared engines; a singleton for the
/// per-query baselines which run the core once per query on a shared clock.
/// Counters accumulate into `stats`; report entries are appended for
/// emitted results when capture is on.
Status RunSharedCore(const PartitionedTable& part_r,
                     const PartitionedTable& part_t, const Workload& workload,
                     const std::vector<int>& global_query_ids,
                     SatisfactionTracker& tracker, VirtualClock& clock,
                     EngineStats& stats, std::vector<QueryReport>& reports,
                     const CoreOptions& core_options);

}  // namespace caqe

#endif  // CAQE_EXEC_SHARED_CORE_H_
