// Tuple-level equi-join between leaf-cell pairs.
#ifndef CAQE_EXEC_JOIN_KERNEL_H_
#define CAQE_EXEC_JOIN_KERNEL_H_

#include <cstdint>
#include <vector>

#include "metrics/report.h"
#include "partition/partitioner.h"
#include "region/region_builder.h"

namespace caqe {

/// One join match between a row of R and a row of T; `slot_mask` has bit s
/// set when distinct-predicate slot s matched the pair.
struct JoinMatch {
  int64_t row_r = 0;
  int64_t row_t = 0;
  uint32_t slot_mask = 0;
};

/// Evaluates the equi-join between the cells of one output region over a
/// subset of predicate slots, by key match: the region build already found
/// every key the two cells share (RegionCollection::key_matches), and the
/// partitioner grouped each cell's members by key (LeafCell::key_groups), so
/// each match expands into its row pairs and a stable radix sort on the R
/// position restores the probe order. Its cost follows the region's
/// matches, not its R cell's size.
///
/// Charges: |T cell| probes at the first use of each (T cell, key column),
/// |R cell| probes per active slot, and one result per emitted match.
class CellJoinKernel {
 public:
  CellJoinKernel(const PartitionedTable* part_r, const PartitionedTable* part_t)
      : part_r_(part_r), part_t_(part_t) {}

  /// Appends matches for `region` over the slots in `slots_mask` to `out`:
  /// R rows in cell order, and for each R row its T rows slot by slot, in
  /// cell order within a slot. A pair matching several slots appears once,
  /// at its first slot, with the slots' bits combined. Probe/result
  /// counters accumulate into `stats`. `region` must come from `rc` (its
  /// key matches are read by region id).
  void Join(const RegionCollection& rc, const OutputRegion& region,
            uint32_t slots_mask, std::vector<JoinMatch>& out,
            EngineStats& stats);

 private:
  /// One expanded key match: positions in the R and T cells' row lists and
  /// the bit of the slot it matched on.
  struct CellPair {
    int32_t pos_r = 0;
    int32_t pos_t = 0;
    uint32_t slot_bit = 0;
  };

  /// Charges |T cell| probes the first time (cell_t, key_column) is used —
  /// the cost of indexing that cell's key column — and never again.
  void ChargeFirstUse(int cell_t, int key_column, EngineStats& stats);

  /// Stable sort of pairs_[0, n) by pos_r, whose values lie below
  /// `rows_r`: LSD radix over as few digits of at most 11 bits as cover
  /// them, ping-ponging through sorted_. Returns whichever buffer holds the
  /// result.
  const CellPair* SortPairsByR(size_t n, int64_t rows_r);

  const PartitionedTable* part_r_;
  const PartitionedTable* part_t_;
  /// charged_[cell_t * num_keys + key_column]: whether that pair's first
  /// use was charged. Sized at the first join.
  std::vector<char> charged_;

  // ---- Scratch reused across joins, grow-only. ----
  std::vector<CellPair> pairs_;
  std::vector<CellPair> sorted_;
  std::vector<uint32_t> radix_counts_;
  /// Multi-slot de-duplication: seen_stamp_[pos_t] == stamp_ when T
  /// position pos_t already matched the current R row, at out index
  /// seen_at_[pos_t].
  std::vector<uint32_t> seen_stamp_;
  std::vector<size_t> seen_at_;
  uint32_t stamp_ = 0;
};

}  // namespace caqe

#endif  // CAQE_EXEC_JOIN_KERNEL_H_
