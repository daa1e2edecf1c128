#include "skyline/incremental.h"

#include <algorithm>

namespace caqe {
namespace {

/// Smallest-score members an insert tests one at a time, with an early
/// exit, before it searches for the prefix boundary or calls the batch
/// kernel (see InsertInto). Chosen from measured stop positions: the head
/// settles 98.7% of serve-heavy inserts and 96.4% of batch-large inserts
/// (DESIGN.md §8).
constexpr int64_t kHeadMembers = 4;

/// Candidate-dominates-probe / probe-dominates-candidate patterns of a
/// batch flag byte (probe gathered as `a`, members as `b`).
inline bool MemberDominatesProbe(uint8_t f) {
  return (f & kBatchBBetter) != 0 && (f & kBatchABetter) == 0;
}
inline bool ProbeDominatesMember(uint8_t f) {
  return (f & kBatchABetter) != 0 && (f & kBatchBBetter) == 0;
}

}  // namespace

InsertOutcome IncrementalSkyline::Insert(const double* values,
                                         int64_t external_id,
                                         int64_t* comparisons) {
  InsertOutcome outcome;
  outcome.accepted = InsertInto(values, external_id, outcome.evicted,
                                &outcome.strictly_dominated, comparisons);
  return outcome;
}

bool IncrementalSkyline::InsertInto(const double* values, int64_t external_id,
                                    std::vector<int64_t>& evicted,
                                    bool* strictly_dominated,
                                    int64_t* comparisons) {
  *strictly_dominated = false;
  GatherPoint(values, dims_, probe_.data());
  // Summing the gathered values in view order reproduces ScoreOf's
  // dims_-order accumulation bit for bit.
  double score = 0.0;
  for (double v : probe_) score += v;

  // Members are kept sorted by ascending monotone score (sum over dims_).
  // Since m dominates t implies score(m) < score(t) strictly, only the
  // prefix with smaller scores can dominate the new point, and only the
  // suffix with larger scores can be evicted by it — the Sort-Filter-
  // Skyline argument applied to an incrementally maintained window.
  //
  // Phase 1: is the new point dominated by a smaller-score member? The
  // walk replays the serial loop: on a domination hit it keeps scanning
  // for a *strict* dominator (better in every compared dimension, the
  // kBatchBStrict bit), whose existence licenses subspace gating in the
  // shared evaluator, and the comparison charge stops where the serial
  // break does (at the strict dominator, else after the full prefix).
  //
  // The lowest-score members are the likeliest dominators, and the serial
  // loop mostly breaks at its very first member. So the head
  // (the first kHeadMembers members) is tested one member at a time with
  // an early exit, before the prefix boundary is even searched for; its
  // score test finds the boundary when the prefix ends inside the head.
  // Only a probe that survives the head pays for the binary search and
  // the batch kernel.
  const int64_t member_count = static_cast<int64_t>(members_.size());
  const int64_t head_end = std::min(member_count, kHeadMembers);
  bool dominated = false;
  const double* cols[kBatchMaxDims];
  const int ndims = members_view_.ColumnPointers(0, cols);
  int64_t head = 0;
  for (; head < head_end && members_[head].score < score; ++head) {
    const uint8_t f =
        CandidateDominanceFlags(probe_.data(), cols, head, ndims);
    if (!MemberDominatesProbe(f)) continue;
    if ((f & kBatchBStrict) != 0) {
      *strictly_dominated = true;
      if (comparisons != nullptr) *comparisons += head + 1;
      return false;
    }
    dominated = true;
  }
  int64_t prefix_end = head;
  if (head == head_end) {
    prefix_end = std::partition_point(
                     members_.begin() + head, members_.end(),
                     [&](const Member& m) { return m.score < score; }) -
                 members_.begin();
  }
  flags_.resize(members_.size());

  // The rest of the prefix is flagged in blocks of galloping size rather
  // than one kernel call: a strict dominator just past the head still
  // stops the walk early, and flagging the whole prefix up front would
  // compute hundreds of comparisons the walk never reads. Block
  // boundaries cannot change any flag byte — each candidate's byte is a
  // pure function of (probe, candidate) — and the walk visits indexes in
  // the same order with the same break rule as the serial loop, so
  // outcome and comparison charge are identical to it.
  int64_t block = 16;
  for (int64_t j = head; j < prefix_end; block *= 4) {
    const int64_t block_end = std::min(prefix_end, j + block);
    BatchDominanceFlags(probe_.data(), members_view_, j, block_end,
                        flags_.data() + j);
    for (; j < block_end; ++j) {
      const uint8_t f = flags_[j];
      if (!MemberDominatesProbe(f)) continue;
      if ((f & kBatchBStrict) != 0) {
        *strictly_dominated = true;
        if (comparisons != nullptr) *comparisons += j + 1;
        return false;
      }
      dominated = true;
    }
  }
  // No strict dominator: the serial walk visited the whole prefix.
  if (comparisons != nullptr) *comparisons += prefix_end;
  if (dominated) {
    // A dominated insertion evicts nothing (see phase 2 comment).
    return false;
  }

  // Phase 2 (batched): evict larger-score members the new point dominates.
  // (Equal-score members can neither dominate nor be dominated; they are
  // skipped without comparison.)
  int64_t keep = prefix_end;
  int64_t i = prefix_end;
  for (; i < member_count && members_[i].score == score; ++i) {
    members_[keep] = members_[i];
    members_view_.MoveRow(keep, i);
    ++keep;
  }
  const int64_t insert_at = keep;  // New member slots in after score ties.
  const int64_t suffix_begin = i;
  if (suffix_begin < member_count) {
    // Flags are indexed by original member position; compaction only
    // writes rows at keep < i, so unread suffix rows stay in place.
    BatchDominanceFlags(probe_.data(), members_view_, suffix_begin,
                        member_count, flags_.data());
    for (; i < member_count; ++i) {
      if (ProbeDominatesMember(flags_[i - suffix_begin])) {
        evicted.push_back(members_[i].external_id);
      } else {
        members_[keep] = members_[i];
        members_view_.MoveRow(keep, i);
        ++keep;
      }
    }
    if (comparisons != nullptr) *comparisons += member_count - suffix_begin;
  }
  members_.resize(keep);
  members_view_.Truncate(keep);

  members_.insert(members_.begin() + insert_at, Member{external_id, score});
  members_view_.InsertGathered(insert_at, probe_.data());
  return true;
}

std::vector<int64_t> IncrementalSkyline::MemberIds() const {
  std::vector<int64_t> ids;
  ids.reserve(members_.size());
  for (const Member& m : members_) ids.push_back(m.external_id);
  return ids;
}

}  // namespace caqe
