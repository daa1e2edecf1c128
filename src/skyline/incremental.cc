#include "skyline/incremental.h"

#include <algorithm>

namespace caqe {
namespace {

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
  const auto boundary = std::partition_point(
      members_.begin(), members_.end(),
      [&](const Member& m) { return m.score < score; });
  const size_t prefix_end =
      static_cast<size_t>(boundary - members_.begin());
  flags_.resize(members_.size());

  // Phase 1 (batched): is the new point dominated by a smaller-score
  // member? The whole prefix is flagged in one kernel call; the walk over
  // the flag bytes replays the serial loop — on a domination hit it keeps
  // scanning for a *strict* dominator (better in every compared dimension,
  // the kBatchBStrict bit) whose existence licenses subspace gating in the
  // shared evaluator, and the comparison charge stops where the serial
  // break did (at the strict dominator, else after the full prefix).
  // The prefix is flagged in blocks of galloping size rather than one
  // kernel call: the serial loop this walk replays usually breaks within
  // the first few members (a strict dominator near the front), so flagging
  // the whole prefix up front would compute hundreds of comparisons the
  // walk never reads. Block boundaries cannot change any flag byte — each
  // candidate's byte is a pure function of (probe, candidate) — and the
  // walk below visits indexes in the same order with the same break rule,
  // so outcome and comparison charge are identical to the one-shot call.
  bool dominated = false;
  if (prefix_end > 0) {
    size_t visited = prefix_end;
    bool stop = false;
    size_t block = 16;
    for (size_t done = 0; done < prefix_end && !stop;) {
      const size_t block_end = std::min(prefix_end, done + block);
      BatchDominanceFlags(probe_.data(), members_view_,
                          static_cast<int64_t>(done),
                          static_cast<int64_t>(block_end),
                          flags_.data() + done);
      for (size_t i = done; i < block_end; ++i) {
        const uint8_t f = flags_[i];
        if (!MemberDominatesProbe(f)) continue;
        dominated = true;
        if ((f & kBatchBStrict) != 0) {
          *strictly_dominated = true;
          visited = i + 1;
          stop = true;
          break;
        }
      }
      done = block_end;
      block *= 4;
    }
    if (comparisons != nullptr) {
      *comparisons += static_cast<int64_t>(visited);
    }
  }
  if (dominated) {
    // A dominated insertion evicts nothing (see phase 2 comment).
    return false;
  }

  // Phase 2 (batched): evict larger-score members the new point dominates.
  // (Equal-score members can neither dominate nor be dominated; they are
  // skipped without comparison.)
  size_t keep = prefix_end;
  size_t i = prefix_end;
  for (; i < members_.size() && members_[i].score == score; ++i) {
    members_[keep] = members_[i];
    members_view_.MoveRow(static_cast<int64_t>(keep),
                          static_cast<int64_t>(i));
    ++keep;
  }
  const size_t insert_at = keep;  // New member slots in after score ties.
  const size_t suffix_begin = i;
  if (suffix_begin < members_.size()) {
    // Flags are indexed by original member position; compaction only
    // writes rows at keep < i, so unread suffix rows stay in place.
    BatchDominanceFlags(probe_.data(), members_view_,
                        static_cast<int64_t>(suffix_begin),
                        static_cast<int64_t>(members_.size()),
                        flags_.data());
    for (; i < members_.size(); ++i) {
      if (ProbeDominatesMember(flags_[i - suffix_begin])) {
        evicted.push_back(members_[i].external_id);
      } else {
        members_[keep] = members_[i];
        members_view_.MoveRow(static_cast<int64_t>(keep),
                              static_cast<int64_t>(i));
        ++keep;
      }
    }
    if (comparisons != nullptr) {
      *comparisons += static_cast<int64_t>(members_.size() - suffix_begin);
    }
  }
  members_.resize(keep);
  members_view_.Truncate(static_cast<int64_t>(keep));

  members_.insert(members_.begin() + insert_at, Member{external_id, score});
  members_view_.InsertGathered(static_cast<int64_t>(insert_at),
                               probe_.data());
  return true;
}

std::vector<int64_t> IncrementalSkyline::MemberIds() const {
  std::vector<int64_t> ids;
  ids.reserve(members_.size());
  for (const Member& m : members_) ids.push_back(m.external_id);
  return ids;
}

}  // namespace caqe
