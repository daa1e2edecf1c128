// Coarse-level join: derives output regions from leaf-cell pairs via join
// signatures (paper Section 5.1).
#ifndef CAQE_REGION_REGION_BUILDER_H_
#define CAQE_REGION_REGION_BUILDER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "partition/cell_index.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "region/region.h"

namespace caqe {

/// The output regions of a workload plus the predicate bookkeeping shared
/// by engines.
struct RegionCollection {
  /// Distinct join-key columns used by the workload, ascending. Region
  /// join_sizes are indexed by position in this vector ("predicate slot").
  std::vector<int> predicate_slots;
  /// slot_of_query[q] = predicate slot of query q's join key.
  std::vector<int> slot_of_query;
  /// queries_of_slot[s] = queries using predicate slot s.
  std::vector<QuerySet> queries_of_slot;
  /// All regions with non-empty lineage (at least one join result for at
  /// least one query).
  std::vector<OutputRegion> regions;
  /// total_join_size[s] = exact workload-wide join output size of predicate
  /// slot s (sum over regions).
  std::vector<int64_t> total_join_sizes;
  /// Coarse-level operations spent building (signature merges, bound
  /// computations).
  int64_t coarse_ops = 0;
  /// The shared keys the build's signature merges found, for every region
  /// and slot, ascending by key: match.a indexes the R cell's signature of
  /// the slot's key column, match.b the T cell's. Regions follow one
  /// another in id order, and each region's slots in slot order. The join
  /// expands them into row pairs through the cells' key groups.
  std::vector<KeyMatch> key_matches;
  /// key_matches offsets: region r's matches on slot s are
  /// [key_match_starts[r * S + s], key_match_starts[r * S + s + 1]) with
  /// S = predicate_slots.size(). Holds regions.size() * S + 1 entries.
  std::vector<int64_t> key_match_starts;

  /// Region `region`'s key matches on slot `slot`, as [first, last).
  std::pair<const KeyMatch*, const KeyMatch*> KeyMatchesOf(int region,
                                                           int slot) const {
    const size_t at =
        static_cast<size_t>(region) * predicate_slots.size() +
        static_cast<size_t>(slot);
    return {key_matches.data() + key_match_starts[at],
            key_matches.data() + key_match_starts[at + 1]};
  }
};

/// Coarse outcome of one query's selection ranges against a cell pair:
/// kDisjoint when some range misses the relevant cell box entirely (no
/// joined pair can qualify), kContained when the boxes lie inside every
/// range (every joined pair qualifies), kOverlap otherwise. Used by the
/// region build and by the serving layer's workload grafter, which
/// re-derives a new query's region lineage with exactly this test.
enum class SelectionCoarse { kDisjoint, kContained, kOverlap };

SelectionCoarse CoarseSelectionTest(const SjQuery& query,
                                    const LeafCell& cell_r,
                                    const LeafCell& cell_t);

/// Builds the region collection for `workload` over partitioned inputs.
/// A region is emitted per (cell_r, cell_t) pair whose signatures intersect
/// on at least one workload predicate; its lineage holds exactly the
/// queries whose predicate matched (guaranteeing >= 1 join result each,
/// per the signature containment argument of Section 5.1). The signature
/// merges also record every emitted region's key matches.
///
/// With a pool, R-cell stripes are scanned concurrently and the per-stripe
/// results merged in stripe order, so regions, ids, key matches, and
/// coarse-op totals are identical to the serial build regardless of thread
/// count.
Result<RegionCollection> BuildRegions(const PartitionedTable& part_r,
                                      const PartitionedTable& part_t,
                                      const Workload& workload,
                                      ThreadPool* pool = nullptr);

/// Precomputed coarse selection classes: for every query, the set of cells
/// on each side that its selection ranges miss entirely (disjoint) or cover
/// completely (contained).  Derived once per bootstrap from packed box
/// trees over the cell bounds (see PackedBoxTree), after which the pair
/// test inside BuildRegions collapses to three bit-set operations:
///
///   disjoint(q, a, b)  = q in r_disjoint[a]  or q in t_disjoint[b]
///   contained(q, a, b) = q in r_contained[a] and q in t_contained[b]
///
/// which reproduces CoarseSelectionTest exactly — the per-side class only
/// depends on that side's cell, and a pair is disjoint iff either side is,
/// contained iff both sides are.
struct SelectionClassIndex {
  std::vector<QuerySet> r_disjoint;   ///< Indexed by R cell id.
  std::vector<QuerySet> r_contained;  ///< Indexed by R cell id.
  std::vector<QuerySet> t_disjoint;   ///< Indexed by T cell id.
  std::vector<QuerySet> t_contained;  ///< Indexed by T cell id.
};

/// Classifies every (query, cell) combination through bulk-loaded box
/// trees over both partitions.  Subtrees of cells wholly inside or wholly
/// outside a selection range are classified without visiting their leaves;
/// `stats` (optional) records the traversal shape.
SelectionClassIndex BuildSelectionClassIndex(const PartitionedTable& part_r,
                                             const PartitionedTable& part_t,
                                             const Workload& workload,
                                             CoarseIndexStats* stats);

/// Extended knobs for BuildRegions.  `selection_index` switches the
/// per-pair selection scan to the precomputed class masks; the emitted
/// regions, ids, and coarse_ops are byte-identical to the flat scan (the
/// signature-merge ops are unchanged and the per-query classification
/// charge is popcount-based, matching the scan's one op per eligible
/// query).  `index_stats` additionally accrues the flat-scan-equivalent
/// touch count (scan_equiv) for the bench comparison.
struct RegionBuildOptions {
  ThreadPool* pool = nullptr;
  const SelectionClassIndex* selection_index = nullptr;
  CoarseIndexStats* index_stats = nullptr;
};

Result<RegionCollection> BuildRegions(const PartitionedTable& part_r,
                                      const PartitionedTable& part_t,
                                      const Workload& workload,
                                      const RegionBuildOptions& options);

}  // namespace caqe

#endif  // CAQE_REGION_REGION_BUILDER_H_
