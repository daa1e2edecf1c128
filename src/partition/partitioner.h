// Input-space partitioning into leaf cells with join signatures (paper
// Section 5.1).
//
// Each base table is partitioned over its score attributes into leaf cells,
// either by an equi-width grid (PartitionTableSlices) or by the paper's
// d-dimensional quad tree, split until a cell budget is met
// (PartitionTableQuadTreeTarget). A leaf cell records its per-dimension
// bounds, its member rows, and — per join-key column — a *signature*: the
// sorted set of distinct key values of its members, plus the members
// grouped by signature entry.
// Signature intersection decides at coarse level whether a pair of cells can
// produce any join result for a predicate; the groups turn each shared key
// into its row pairs.
#ifndef CAQE_PARTITION_PARTITIONER_H_
#define CAQE_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/table.h"

namespace caqe {

/// A non-empty leaf cell of a partitioned table.
struct LeafCell {
  /// Per-attribute lower bounds (tight over member rows).
  std::vector<double> lower;
  /// Per-attribute upper bounds (tight over member rows).
  std::vector<double> upper;
  /// Row indices of members in the underlying table.
  std::vector<int64_t> rows;
  /// signatures[k] = sorted distinct values of join-key column k among the
  /// member rows.
  std::vector<std::vector<int32_t>> signatures;
  /// signature_counts[k][i] = number of member rows whose key-column k value
  /// equals signatures[k][i]. Lets callers compute exact equi-join output
  /// sizes between two cells without touching tuples.
  std::vector<std::vector<int32_t>> signature_counts;
  /// key_groups[k] = positions in `rows` of the members grouped by
  /// signature entry of key column k: the members whose key equals
  /// signatures[k][i] are key_groups[k][key_group_starts[k][i] ..
  /// key_group_starts[k][i + 1]), ascending. key_group_starts[k] holds
  /// signatures[k].size() + 1 offsets.
  std::vector<std::vector<int32_t>> key_groups;
  std::vector<std::vector<int32_t>> key_group_starts;
};

/// A key value two signatures share: its entry index in the first (`a`)
/// and in the second (`b`).
struct KeyMatch {
  int32_t a = 0;
  int32_t b = 0;
};

/// Sorts `keys[0, n)` in place and appends its runs — the ascending
/// distinct values and the multiplicity of each, i.e. a signature and its
/// counts — to `values` and `counts`. Linear time: an LSD radix sort over
/// three 11-bit digits of the sign-flipped key that skips each pass whose
/// digit is the same for every key (inputs under 128 keys use std::sort).
/// `scratch` must hold n entries. Requires n <= INT32_MAX.
void AppendKeyRuns(int32_t* keys, int64_t n, int32_t* scratch,
                   std::vector<int32_t>* values, std::vector<int32_t>* counts);

/// Exact number of equi-join result pairs between two cells on one key
/// column: sum over shared key values of count_a * count_b. If `ops` is
/// non-null it is incremented by the number of merge steps (one per
/// compared pair).
int64_t ExactJoinSize(const std::vector<int32_t>& keys_a,
                      const std::vector<int32_t>& counts_a,
                      const std::vector<int32_t>& keys_b,
                      const std::vector<int32_t>& counts_b,
                      int64_t* ops = nullptr);

/// ExactJoinSize's merge that also writes the entry pair of every shared
/// key, in ascending key order, to `matches`, which must have room for
/// min(keys_a.size(), keys_b.size()) entries. Sets `*num_matches` to the
/// number written and charges `ops` exactly as ExactJoinSize does.
int64_t MatchSignatures(const std::vector<int32_t>& keys_a,
                        const std::vector<int32_t>& counts_a,
                        const std::vector<int32_t>& keys_b,
                        const std::vector<int32_t>& counts_b,
                        KeyMatch* matches, int64_t* num_matches,
                        int64_t* ops = nullptr);

/// A table partitioned into non-empty leaf cells.
class PartitionedTable {
 public:
  explicit PartitionedTable(const Table* table) : table_(table) {}

  const Table& table() const { return *table_; }
  int num_cells() const { return static_cast<int>(cells_.size()); }
  const LeafCell& cell(int i) const { return cells_[i]; }
  const std::vector<LeafCell>& cells() const { return cells_; }

  /// Total rows across cells (equals table().num_rows()).
  int64_t TotalRows() const;

  void AddCell(LeafCell cell) { cells_.push_back(std::move(cell)); }

 private:
  const Table* table_;
  std::vector<LeafCell> cells_;
};

/// Partitions `table` into an equi-width grid with `slices[k]` slices along
/// score attribute k (slices.size() == num_attrs, each >= 1), dropping
/// empty cells and computing tight bounds and signatures. Attribute slice
/// boundaries are derived from the observed min/max per attribute. Linear
/// time; the cell order is a fixed function of the table and the slices
/// (cell ids feed region ids and scheduler tie-breaks; see DESIGN.md).
///
/// Returns InvalidArgument for invalid slice vectors or an empty table.
Result<PartitionedTable> PartitionTableSlices(const Table& table,
                                              const std::vector<int>& slices);

/// Uniform-grid convenience wrapper: `cells_per_dim` slices per attribute.
Result<PartitionedTable> PartitionTable(const Table& table, int cells_per_dim);

/// Chooses a per-dimension slice vector whose cell count approaches
/// `target_cells` by repeatedly doubling slice counts round-robin across
/// dimensions (yields intermediate totals like 2x2x1x1 that a uniform grid
/// cannot express).
std::vector<int> ChooseSliceVector(int num_attrs, int64_t target_cells);

/// Adaptive d-dimensional quad-tree partitioning — the structure the paper
/// assumes for its input abstraction (Section 5.1). Repeatedly splits the
/// most populated node at the midpoint of its bounding box in every
/// attribute (2^d children, empty children dropped) until at least
/// `target_cells` leaves exist, or no node can split (degenerate box, all
/// rows in one quadrant, or `max_depth` reached). Dense areas get fine
/// cells, sparse areas coarse ones — unlike the equi-width grid, cell
/// populations are balanced under skew — and the budget controls
/// granularity directly, where a row cap could overshoot by 2^d cells per
/// level in high dimensions.
///
/// Returns InvalidArgument for a non-positive target, a negative depth, an
/// empty table or more than 20 attributes.
///
/// With a pool, per-node quadrant classification runs in deterministic
/// row stripes and leaf finalization (bound + signature computation) runs
/// concurrently across leaves; the greedy split loop stays serial, so cell
/// ids and contents are byte-identical to the serial build at any thread
/// count.
Result<PartitionedTable> PartitionTableQuadTreeTarget(const Table& table,
                                                      int64_t target_cells,
                                                      int max_depth = 16,
                                                      ThreadPool* pool =
                                                          nullptr);

}  // namespace caqe

#endif  // CAQE_PARTITION_PARTITIONER_H_
