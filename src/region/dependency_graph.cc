#include "region/dependency_graph.h"

#include <algorithm>

#include "region/region_dominance.h"
#include "skyline/dominance_batch.h"

namespace caqe {
namespace {

// Preference dimension lists per query, precomputed once.
std::vector<std::vector<int>> QueryDims(const Workload& workload) {
  std::vector<std::vector<int>> dims(workload.num_queries());
  for (int q = 0; q < workload.num_queries(); ++q) {
    dims[q] = workload.query(q).preference;
  }
  return dims;
}

}  // namespace

CoarsePruneStats CoarseSkylinePrune(RegionCollection& rc,
                                    const Workload& workload) {
  CoarsePruneStats stats;
  const std::vector<std::vector<int>> dims = QueryDims(workload);
  const int n = static_cast<int>(rc.regions.size());
  // Snapshot of the original *guaranteed* lineages: a dominator prunes
  // even if it is itself pruned for the same query, because full dominance
  // is a strict partial order (its own dominator transitively covers the
  // victim) — but only regions guaranteed to produce a result for the
  // query may prune (a selection-overlapping region might yield nothing).
  std::vector<QuerySet> original(n);
  std::vector<QuerySet> before(n);
  for (int i = 0; i < n; ++i) {
    original[i] = rc.regions[i].guaranteed;
    before[i] = rc.regions[i].rql;
  }

  // Per query, the candidate dominators' upper corners column-gathered in
  // the query's preference subspace (ascending region id, the serial scan
  // order). "Upper corner of i fully dominates victim j" is exactly the
  // point-vs-region test of the Section-6 discard scan, so the same batch
  // kernel serves: it stops at the first dominating row and returns the
  // rows-tested count. The serial loop never tested i == j, so when the
  // victim sits in the scanned prefix its row (which can never hit: a box
  // corner cannot strictly dominate the box's own lower corner) is charged
  // back off. Per (victim, query) the first dominator — and therefore the
  // test count and every pruned pair — is identical to the serial
  // i-ascending scan, and totals are order-insensitive.
  SubspaceView uppers;
  std::vector<int> pos(n);
  for (int q = 0; q < workload.num_queries(); ++q) {
    std::fill(pos.begin(), pos.end(), -1);
    int count = 0;
    for (int i = 0; i < n; ++i) {
      if (original[i].Contains(q)) pos[i] = count++;
    }
    if (count == 0) continue;
    uppers.Reset(dims[q]);
    uppers.Reserve(count);
    for (int i = 0; i < n; ++i) {
      if (pos[i] >= 0) uppers.PushPoint(rc.regions[i].upper.data());
    }
    for (int j = 0; j < n; ++j) {
      OutputRegion& victim = rc.regions[j];
      if (!victim.rql.Contains(q)) continue;
      bool hit = false;
      const int64_t scanned =
          ScanPointsFullyDominatingRegion(uppers, victim, &hit);
      stats.coarse_ops += scanned - (pos[j] >= 0 && pos[j] < scanned ? 1 : 0);
      if (hit) {
        victim.rql.Remove(q);
        victim.guaranteed.Remove(q);
        ++stats.pruned_pairs;
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    if (!before[j].empty() && rc.regions[j].rql.empty()) ++stats.pruned_regions;
  }
  return stats;
}

DependencyGraph DependencyGraph::Build(const RegionCollection& rc,
                                       const Workload& workload,
                                       int64_t* coarse_ops) {
  const std::vector<std::vector<int>> dims = QueryDims(workload);
  const int n = static_cast<int>(rc.regions.size());
  const int num_q = workload.num_queries();
  DependencyGraph dg;
  dg.out_edges_.resize(n);
  dg.in_degree_.assign(n, 0);
  dg.active_.assign(n, 1);

  // Per query: the serving regions' two corners column-gathered in the
  // query's preference subspace, plus each region's row position. Both
  // directions of Definition 8 for a fixed source region `a` then come
  // from two batch calls covering every candidate `b` at once:
  //   f1 = flags(a.upper vs b.lower), f2 = flags(a.lower vs b.upper)
  //   a fully dominates b    <=> f1 == {a better somewhere, b nowhere}
  //   a partially dominates b <=> f2 has no "b better" bit
  //   b fully dominates a    <=> f2 == {b better somewhere, a nowhere}
  //   b partially dominates a <=> f1 has no "a better" bit
  // (boxes have lower <= upper per dimension, so "full" implies "partial"
  // and the decoded results match the scalar CompareRegions exactly).
  std::vector<std::vector<int>> pos(num_q, std::vector<int>(n, -1));
  std::vector<SubspaceView> lowers(num_q), uppers(num_q);
  for (int q = 0; q < num_q; ++q) {
    lowers[q].Reset(dims[q]);
    uppers[q].Reset(dims[q]);
    int count = 0;
    for (int i = 0; i < n; ++i) {
      if (!rc.regions[i].rql.Contains(q)) continue;
      pos[q][i] = count++;
      lowers[q].PushPoint(rc.regions[i].lower.data());
      uppers[q].PushPoint(rc.regions[i].upper.data());
    }
  }

  std::vector<std::vector<uint8_t>> f_ul(num_q), f_lu(num_q);
  for (int i = 0; i < n; ++i) {
    const OutputRegion& a = rc.regions[i];
    if (a.rql.empty()) {
      dg.active_[i] = 0;
      continue;
    }
    // One row of flags per (query of a, candidate): reused by every j.
    a.rql.ForEach([&](int q) {
      const int64_t m = lowers[q].size();
      f_ul[q].resize(static_cast<size_t>(m));
      f_lu[q].resize(static_cast<size_t>(m));
      double probe[kBatchMaxDims];
      GatherPoint(a.upper.data(), lowers[q].dims(), probe);
      BatchDominanceFlags(probe, lowers[q], 0, m, f_ul[q].data());
      GatherPoint(a.lower.data(), uppers[q].dims(), probe);
      BatchDominanceFlags(probe, uppers[q], 0, m, f_lu[q].data());
    });
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const OutputRegion& b = rc.regions[j];
      const QuerySet common = a.rql.Intersect(b.rql);
      if (common.empty()) continue;
      QuerySet annotated;
      common.ForEach([&](int q) {
        // The serial pass charged both directions' box tests up front.
        if (coarse_ops != nullptr) *coarse_ops += 2;
        const uint8_t f1 = f_ul[q][pos[q][j]];
        const uint8_t f2 = f_lu[q][pos[q][j]];
        const bool fwd_full =
            (f1 & (kBatchABetter | kBatchBBetter)) == kBatchABetter;
        if (!fwd_full) {
          const bool fwd_partial = (f2 & kBatchBBetter) == 0;
          if (!fwd_partial) return;  // Forward incomparable: no edge.
          const bool back_full =
              (f2 & (kBatchABetter | kBatchBBetter)) == kBatchBBetter;
          const bool back_partial = (f1 & kBatchABetter) == 0;
          if (back_full || back_partial) {
            return;  // Symmetric overlap: leave the pair unordered.
          }
        }
        annotated.Add(q);
      });
      if (!annotated.empty()) {
        dg.out_edges_[i].emplace_back(j, annotated);
        ++dg.in_degree_[j];
      }
    }
  }
  return dg;
}

DependencyGraph DependencyGraph::AllActive(int n) {
  DependencyGraph dg;
  dg.out_edges_.resize(n);
  dg.in_degree_.assign(n, 0);
  dg.active_.assign(n, 1);
  return dg;
}

void DependencyGraph::Roots(std::vector<int>* out) const {
  out->clear();
  for (int i = 0; i < num_regions(); ++i) {
    if (active_[i] && in_degree_[i] == 0) out->push_back(i);
  }
  if (!out->empty()) return;
  // Residual cycles: fall back to every active region so Algorithm 1 never
  // deadlocks.
  for (int i = 0; i < num_regions(); ++i) {
    if (active_[i]) out->push_back(i);
  }
}

void DependencyGraph::Deactivate(int region, std::vector<int>* newly_rooted) {
  CAQE_DCHECK(region >= 0 && region < num_regions());
  if (!active_[region]) return;
  active_[region] = 0;
  for (const auto& [target, queries] : out_edges_[region]) {
    (void)queries;
    if (--in_degree_[target] == 0 && active_[target] &&
        newly_rooted != nullptr) {
      newly_rooted->push_back(target);
    }
  }
  out_edges_[region].clear();
}

}  // namespace caqe
