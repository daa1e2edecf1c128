// Tuple-level equi-join between leaf-cell pairs.
#ifndef CAQE_EXEC_JOIN_KERNEL_H_
#define CAQE_EXEC_JOIN_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "metrics/report.h"
#include "partition/partitioner.h"
#include "region/region_builder.h"

namespace caqe {

class Counter;

/// One join match between a row of R and a row of T; `slot_mask` has bit s
/// set when distinct-predicate slot s matched the pair.
struct JoinMatch {
  int64_t row_r = 0;
  int64_t row_t = 0;
  uint32_t slot_mask = 0;
};

/// Evaluates the equi-join between the cells of one output region over a
/// subset of predicate slots.
///
/// The compact layout (default) joins by key match: the region build
/// already found every key the two cells share (RegionCollection::
/// key_matches), and the partitioner grouped each cell's members by key
/// (LeafCell::key_groups), so each match expands into its row pairs and a
/// stable radix sort on the R position restores the probe order. Its cost
/// follows the region's matches, not its R cell's size.
///
/// The map layout is the reference: per (T-cell, key column) hash indexes,
/// built lazily, cached across regions, and probed by every R row. The
/// cache is bounded: beyond `cache_capacity` built entries, the
/// least-recently-used ones are released deterministically at the end of a
/// join.
///
/// Both layouts emit the same match sequence and charge the same counters:
/// |T cell| probes at the first use of each (T cell, key column), |R cell|
/// probes per active slot, and one result per emitted match.
class CellJoinKernel {
 public:
  CellJoinKernel(const PartitionedTable* part_r, const PartitionedTable* part_t)
      : part_r_(part_r), part_t_(part_t) {}

  /// Chooses between the key-match join (default) and the reference
  /// unordered_map index. Call before any Join.
  void set_compact_layout(bool on) { compact_layout_ = on; }

  /// Bounds the number of built map-layout index entries kept across joins
  /// (<= 0 means unbounded). Evictions release storage only — never the
  /// first-use charge state — so reports are identical at any value. The
  /// compact layout keeps no index.
  void set_cache_capacity(int64_t entries) { cache_capacity_ = entries; }

  /// Map-layout index evictions performed so far (also exported through the
  /// obs counter when attached).
  int64_t cache_evictions() const { return cache_evictions_; }
  /// Map-layout index builds performed (initial builds and rebuilds after
  /// eviction).
  int64_t index_builds() const { return index_builds_; }

  /// Optional obs counters (caqe_join_index_*); never feed reports.
  void SetObsCounters(Counter* builds, Counter* evictions) {
    builds_counter_ = builds;
    evictions_counter_ = evictions;
  }

  /// Appends matches for `region` over the slots in `slots_mask` to `out`:
  /// R rows in cell order, and for each R row its T rows slot by slot, in
  /// cell order within a slot. A pair matching several slots appears once,
  /// at its first slot, with the slots' bits combined. Probe/result
  /// counters accumulate into `stats`. On the compact layout `region` must
  /// come from `rc` (its key matches are read by region id). The map layout
  /// probes R rows in parallel chunks with a pool, merged in row order, so
  /// the match sequence is the serial one at any thread count.
  void Join(const RegionCollection& rc, const OutputRegion& region,
            uint32_t slots_mask, std::vector<JoinMatch>& out,
            EngineStats& stats, ThreadPool* pool = nullptr);

  /// Collision-free cache key for a (T-cell, key-column) pair: cell in the
  /// high 32 bits, column in the low 32. Exposed for the regression test —
  /// the previous `cell * 64 + column` scheme aliased whenever
  /// `key_column >= 64`.
  static int64_t CacheKey(int cell_t, int key_column) {
    return (static_cast<int64_t>(cell_t) << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(key_column));
  }

 private:
  using KeyIndex = std::unordered_map<int32_t, std::vector<int64_t>>;

  struct CacheEntry {
    KeyIndex index;
    /// Whether the index storage is currently populated (false after an
    /// eviction; the entry itself persists).
    bool built = false;
    /// LRU stamp (monotone use serial) for deterministic eviction.
    uint64_t last_used = 0;
  };

  /// One expanded key match: positions in the R and T cells' row lists and
  /// the bit of the slot it matched on.
  struct CellPair {
    int32_t pos_r = 0;
    int32_t pos_t = 0;
    uint32_t slot_bit = 0;
  };

  /// Charges |T cell| probes the first time (cell_t, key_column) is used —
  /// what building its index cost the map layout — and never again.
  void ChargeFirstUse(int cell_t, int key_column, EngineStats& stats);

  /// The compact layout's join (see the class comment).
  void JoinByKeyMatch(const RegionCollection& rc, const OutputRegion& region,
                      uint32_t slots_mask, std::vector<JoinMatch>& out,
                      EngineStats& stats);
  /// Stable sort of pairs_[0, n) by pos_r, whose values lie below
  /// `rows_r`: LSD radix over as few digits of at most 11 bits as cover
  /// them, ping-ponging through sorted_. Returns whichever buffer holds the
  /// result.
  const CellPair* SortPairsByR(size_t n, int64_t rows_r);

  /// Builds lazily and stamps the LRU serial (map layout).
  const CacheEntry& IndexFor(int cell_t, int key_column);
  /// Releases least-recently-used built entries beyond the capacity.
  /// Entries used by the current join (last_used >= floor) are never
  /// touched. Deterministic: eviction order is ascending last_used serial.
  void EvictOverflow(uint64_t floor);
  /// `indexes` points at `num_indexes` (slot, entry) pairs — a fixed
  /// caller-side array, since slots are bounded by the 32-bit mask and a
  /// per-join heap vector here would be steady-state churn. Probe/result
  /// counts accumulate into `stats`.
  void ProbeRows(const RegionCollection& rc, const OutputRegion& region,
                 const std::pair<int, const CacheEntry*>* indexes,
                 int num_indexes, std::vector<JoinMatch>& out,
                 EngineStats& stats, ThreadPool* pool) const;

  const PartitionedTable* part_r_;
  const PartitionedTable* part_t_;
  bool compact_layout_ = true;
  /// charged_[cell_t * num_keys + key_column]: whether that pair's first
  /// use was charged. Sized at the first join.
  std::vector<char> charged_;

  // ---- Compact layout: scratch reused across joins, grow-only. ----
  std::vector<CellPair> pairs_;
  std::vector<CellPair> sorted_;
  std::vector<uint32_t> radix_counts_;
  /// Multi-slot de-duplication: seen_stamp_[pos_t] == stamp_ when T
  /// position pos_t already matched the current R row, at out index
  /// seen_at_[pos_t].
  std::vector<uint32_t> seen_stamp_;
  std::vector<size_t> seen_at_;
  uint32_t stamp_ = 0;

  // ---- Map layout. ----
  int64_t cache_capacity_ = 4096;
  int64_t built_entries_ = 0;
  int64_t cache_evictions_ = 0;
  int64_t index_builds_ = 0;
  uint64_t use_serial_ = 0;
  Counter* builds_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  /// CacheKey(cell_t, key_column) -> entry. Entries are never erased;
  /// eviction releases an entry's index storage only.
  std::unordered_map<int64_t, CacheEntry> index_cache_;
  /// Allocation-free scratch map from row_t to a slot in `hits`:
  /// open-addressing with generation stamps, so the per-row reset is O(1)
  /// and steady-state probing never touches the heap. The emit order stays
  /// the first-seen order the `hits` vector records; the table only
  /// answers membership.
  struct HitTable {
    std::vector<int64_t> keys;
    std::vector<size_t> slots;
    std::vector<uint32_t> stamps;
    uint32_t gen = 0;
    size_t mask = 0;
    size_t entries = 0;

    void clear() {
      if (++gen == 0) {  // Stamp wraparound: invalidate everything.
        std::fill(stamps.begin(), stamps.end(), 0u);
        gen = 1;
      }
      entries = 0;
    }

    /// Returns the hits-slot reference for `key`; `inserted` reports
    /// whether the key is new this generation (caller then assigns the
    /// slot).
    size_t& FindOrInsert(int64_t key, bool& inserted) {
      if (entries + 1 > (mask + 1) / 2) Grow();
      size_t i = Hash(key) & mask;
      while (stamps[i] == gen && keys[i] != key) i = (i + 1) & mask;
      inserted = stamps[i] != gen;
      if (inserted) {
        stamps[i] = gen;
        keys[i] = key;
        ++entries;
      }
      return slots[i];
    }

    static size_t Hash(int64_t key) {
      return static_cast<size_t>(
          static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull >> 32);
    }

    void Grow();
  };

  /// Reusable probe scratch, one shard per chunk (ProbeRows is called only
  /// from Join on the control thread, so calls never overlap).
  struct ProbeShard {
    std::vector<JoinMatch> out;
    int64_t probes = 0;
    int64_t results = 0;
    std::vector<std::pair<int64_t, uint32_t>> hits;
    HitTable hit_of_row;
  };
  mutable std::vector<ProbeShard> probe_shards_;
};

}  // namespace caqe

#endif  // CAQE_EXEC_JOIN_KERNEL_H_
