// Coarse-level skyline pruning (paper Section 5.2) and the region
// dependency graph (paper Section 5.3.2, Definition 9).
#ifndef CAQE_REGION_DEPENDENCY_GRAPH_H_
#define CAQE_REGION_DEPENDENCY_GRAPH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/query_set.h"
#include "query/query.h"
#include "region/region_builder.h"

namespace caqe {

/// Outcome of the coarse (abstract-level) skyline pass.
struct CoarsePruneStats {
  /// (region, query) lineage entries removed because another region fully
  /// dominates the region in that query's preference subspace.
  int64_t pruned_pairs = 0;
  /// Regions whose lineage became empty (they will never be processed).
  int64_t pruned_regions = 0;
  int64_t coarse_ops = 0;
};

/// Abstract-level skyline operation: for every query, removes from each
/// region's lineage the queries for which some other region (serving the
/// same query) fully dominates it. Sound because full region dominance is a
/// strict partial order: every pruned region is dominated by some region
/// that itself survives, and signature intersection guarantees the
/// dominator produces at least one join tuple.
CoarsePruneStats CoarseSkylinePrune(RegionCollection& rc,
                                    const Workload& workload);

/// Directed region dependency graph. An edge R_i -> R_j annotated with
/// query set W means: for each query in W, R_i (fully or partially)
/// dominates R_j in that query's preference subspace while R_j does not
/// dominate R_i back — processing R_i first can discard work in R_j. The
/// asymmetry filter keeps mutually-overlapping regions unordered instead of
/// creating two-cycles.
class DependencyGraph {
 public:
  /// Builds the graph over the (already coarse-pruned) region collection.
  static DependencyGraph Build(const RegionCollection& rc,
                               const Workload& workload,
                               int64_t* coarse_ops = nullptr);

  /// Edge-free graph with `n` active regions, all roots. The serving
  /// layer's dynamic workload uses this shape: lineages change as queries
  /// come and go, so no precomputed ordering constraint stays valid and
  /// every pending region remains a scheduling candidate.
  static DependencyGraph AllActive(int n);

  int num_regions() const { return static_cast<int>(out_edges_.size()); }

  const std::vector<std::pair<int, QuerySet>>& out_edges(int region) const {
    return out_edges_[region];
  }
  int in_degree(int region) const { return in_degree_[region]; }
  bool active(int region) const { return active_[region] != 0; }

  /// Replaces `out` with the region ids that are active with zero
  /// in-degree — the scheduling candidates of Algorithm 1 — falling back to
  /// all active regions when residual cycles leave no zero-in-degree
  /// region. `out` keeps its capacity, so a caller that reuses it picks
  /// without allocating.
  void Roots(std::vector<int>* out) const;

  /// Removes `region` from the graph (processed or discarded), decrementing
  /// the in-degree of its successors. Appends to `newly_rooted` (if
  /// non-null) the successors whose in-degree reached zero.
  void Deactivate(int region, std::vector<int>* newly_rooted = nullptr);

 private:
  std::vector<std::vector<std::pair<int, QuerySet>>> out_edges_;
  std::vector<int> in_degree_;
  std::vector<char> active_;
};

}  // namespace caqe

#endif  // CAQE_REGION_DEPENDENCY_GRAPH_H_
