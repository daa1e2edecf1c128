// Incrementally maintained skyline under tuple insertions.
//
// Skyline-over-join results arrive one join tuple at a time; a newly
// generated tuple can evict previously accepted tuples (skylines are not
// monotonic — paper Section 1.4). IncrementalSkyline tracks the current
// skyline and reports evictions so engines can retract/annotate results that
// were provisionally surfaced.
#ifndef CAQE_SKYLINE_INCREMENTAL_H_
#define CAQE_SKYLINE_INCREMENTAL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"

namespace caqe {

/// Result of inserting one point into an IncrementalSkyline.
struct InsertOutcome {
  /// True when the inserted point joined the skyline.
  bool accepted = false;
  /// Set only when rejected: some member dominates the point *strictly in
  /// every compared dimension*. A strict dominator dominates the point in
  /// every subspace too, which is what makes Theorem-1 feeder gating exact
  /// even in the presence of value ties (see SharedSkylineEvaluator).
  bool strictly_dominated = false;
  /// External ids of previously accepted points this insertion evicted.
  std::vector<int64_t> evicted;
};

/// Maintains the skyline of a growing point multiset over a fixed dimension
/// subset. Points carry caller-provided external ids.
class IncrementalSkyline {
 public:
  /// `dims` is the compared dimension subset of the inserted points. The
  /// skyline keeps no copy of a point: its dominance state is the
  /// gathered members_view_, so accepting a point allocates nothing beyond
  /// the view's amortized column growth.
  explicit IncrementalSkyline(std::vector<int> dims)
      : dims_(std::move(dims)), probe_(dims_.size()) {
    members_view_.Reset(dims_);
  }

  /// Inserts a point with caller-supplied id. Counts comparisons into
  /// `comparisons` if non-null.
  InsertOutcome Insert(const double* values, int64_t external_id,
                       int64_t* comparisons = nullptr);

  /// Allocation-free Insert variant for the hot path: evicted ids are
  /// appended to the caller's reusable `evicted` vector (not cleared),
  /// acceptance is the return value and strict domination lands in
  /// `*strictly_dominated`. Outcome-equivalent to Insert.
  bool InsertInto(const double* values, int64_t external_id,
                  std::vector<int64_t>& evicted, bool* strictly_dominated,
                  int64_t* comparisons = nullptr);

  /// Current number of skyline members.
  int64_t size() const { return static_cast<int64_t>(members_.size()); }

  /// External ids of the current skyline members (unordered).
  std::vector<int64_t> MemberIds() const;

  const std::vector<int>& dims() const { return dims_; }

 private:
  struct Member {
    int64_t external_id;  // Caller-provided id.
    double score;         // Monotone sum over dims_ (window sort key).
  };

  std::vector<int> dims_;
  /// Current skyline, sorted by ascending score: only the smaller-score
  /// prefix can dominate a new point, only the larger-score suffix can be
  /// evicted by it.
  std::vector<Member> members_;
  /// Column-gathered mirror of `members_` (same order) feeding the batch
  /// dominance kernel; every members_ mutation is replayed on the view.
  SubspaceView members_view_;
  /// Per-insert scratch: the probe's gathered dims_ values and the batch
  /// flag bytes (sized to the member count on demand).
  std::vector<double> probe_;
  std::vector<uint8_t> flags_;
};

}  // namespace caqe

#endif  // CAQE_SKYLINE_INCREMENTAL_H_
