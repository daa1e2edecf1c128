// Shared incremental skyline evaluation over the min-max cuboid.
//
// All queries of a plan group see the same join-tuple stream (same join
// predicate), so their subspace skylines can be maintained together. The
// evaluator exploits Theorem 1 top-down: a tuple *strictly* dominated in a
// superspace (worse in every dimension) is dominated in every subspace,
// hence it can be gated out of the whole subtree. Each cuboid node is
// therefore fed only with tuples not strictly dominated at its feeder (its
// smallest superspace node, ultimately a synthetic root over the union of
// all preferences), which shrinks the candidate stream dramatically as it
// flows down the lattice — this is the comparison sharing of paper
// Section 4.1.
//
// Requiring the gating dominator to be strict makes the shortcut exact
// even under value ties (the paper needs the DVA assumption because it
// gates on any domination); a rejection by a merely tying dominator falls
// through to the children. dva_mode = false disables gating entirely
// (every node sees every tuple) — useful to measure what the gating buys.
#ifndef CAQE_CUBOID_SHARED_SKYLINE_H_
#define CAQE_CUBOID_SHARED_SKYLINE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/query_set.h"
#include "cuboid/min_max_cuboid.h"
#include "skyline/incremental.h"

namespace caqe {

/// Per-insert outcome across the workload's queries.
struct SharedInsertOutcome {
  /// Queries at whose preference node the tuple was accepted.
  QuerySet accepted;
  /// Flat (query, evicted tuple id) pairs for preference-node evictions
  /// caused by this insert, in node order then QuerySet order then member
  /// order. Flat pairs (rather than per-query id vectors) keep the
  /// steady-state insert free of nested-vector churn: the buffer is reused
  /// across InsertReusing calls.
  std::vector<std::pair<int, int64_t>> evictions;
};

/// Maintains one incremental skyline per min-max cuboid node plus a root
/// skyline over the union space, with Theorem-1 feeder gating in DVA mode.
class SharedSkylineEvaluator {
 public:
  /// `cuboid` must outlive the evaluator.
  SharedSkylineEvaluator(const MinMaxCuboid* cuboid, bool dva_mode);

  /// Inserts one projected join tuple (a row of the global output space)
  /// with external id. Comparison counts accumulate into `comparisons` when
  /// non-null.
  SharedInsertOutcome Insert(const double* values, int64_t id,
                             int64_t* comparisons = nullptr);

  /// Allocation-free Insert for the region hot path: returns a reference to
  /// an internal outcome whose buffers are reused across calls. The
  /// reference is valid until the next InsertReusing/Insert call.
  const SharedInsertOutcome& InsertReusing(const double* values, int64_t id,
                                           int64_t* comparisons = nullptr);

  /// Serving-layer retirement support: releases every cuboid node that no
  /// query in `active_locals` (local indices into the cuboid's query order)
  /// needs, keeping each active preference node plus its transitive feeder
  /// chain (the gating path) and the root. Released nodes free their
  /// skyline state and are skipped by subsequent Inserts — no comparisons
  /// are charged for them, and their (retired) queries receive no further
  /// events. The batch path never calls this.
  void ReleaseQueries(const QuerySet& active_locals);

  /// Skyline at query q's preference node: exactly SKY_{P_q} of all tuples
  /// inserted so far (in both modes, including under value ties).
  const IncrementalSkyline& query_skyline(int q) const;

  /// Skyline at cuboid node `n`.
  const IncrementalSkyline& node_skyline(int n) const;

  /// Current root (union-space) skyline size.
  int64_t root_size() const { return root_->size(); }

  bool dva_mode() const { return dva_mode_; }
  const MinMaxCuboid& cuboid() const { return *cuboid_; }

 private:
  const MinMaxCuboid* cuboid_;
  bool dva_mode_;
  std::unique_ptr<IncrementalSkyline> root_;
  /// One skyline per node; null for the node aliasing the root subspace.
  std::vector<std::unique_ptr<IncrementalSkyline>> node_skylines_;
  int root_alias_node_ = -1;  // Node whose subspace equals the union space.
  std::vector<char> accepted_scratch_;
  /// Nodes released by ReleaseQueries (skipped in Insert). Empty until the
  /// first release, so the batch path pays nothing.
  std::vector<char> released_;
  /// Reused buffers backing InsertReusing (per-insert scratch). The root's
  /// evicted ids stay live across the node loop (the root-alias node reads
  /// them), so node inserts use their own buffer.
  SharedInsertOutcome outcome_;
  std::vector<int64_t> evicted_scratch_;
  std::vector<int64_t> node_evicted_scratch_;
};

}  // namespace caqe

#endif  // CAQE_CUBOID_SHARED_SKYLINE_H_
