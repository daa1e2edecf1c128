// Tuple-level equi-join between leaf-cell pairs, with cached hash indexes.
#ifndef CAQE_EXEC_JOIN_KERNEL_H_
#define CAQE_EXEC_JOIN_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <future>
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

/// Flat open-addressing CSR-style equi-join index over one (T-cell, key
/// column) pair: a power-of-two slot table mapping key -> entry, one
/// contiguous key/offset array per entry, and one contiguous row-id array
/// holding every entry's matches back to back. Built in two passes with no
/// per-key vectors; probing a key touches one slot run plus one contiguous
/// id run — no node chasing. Entry creation order is first occurrence in
/// cell-row order and each entry's ids keep cell-row order, so iteration
/// over Find() runs reproduces the legacy
/// unordered_map<int32_t, vector<int64_t>> push_back order exactly (the
/// differential test in tests/flat_index_test.cc asserts this).
class FlatKeyIndex {
 public:
  /// A contiguous run of matching row ids (empty when the key is absent).
  struct Run {
    const int64_t* data = nullptr;
    int64_t size = 0;
    const int64_t* begin() const { return data; }
    const int64_t* end() const { return data + size; }
    bool empty() const { return size == 0; }
  };

  /// Two-pass build over `rows`: count ids per distinct key, prefix-sum
  /// into offsets, then fill the id array in row order.
  void Build(const Table& t, const std::vector<int64_t>& rows,
             int key_column);

  Run Find(int32_t key) const {
    if (slots_ == nullptr) return Run{};
    uint32_t slot = Hash(key) & mask_;
    while (true) {
      const uint32_t stored = slots_[slot];
      if (stored == 0) return Run{};
      const uint32_t entry = stored - 1;
      if (keys_[entry] == key) {
        return Run{ids_ + starts_[entry],
                   static_cast<int64_t>(starts_[entry + 1] - starts_[entry])};
      }
      slot = (slot + 1) & mask_;
    }
  }

  bool empty() const { return num_keys_ == 0; }
  int64_t num_keys() const { return num_keys_; }
  int64_t num_ids() const { return num_ids_; }

  /// Releases all storage (cache eviction reclaims the memory — keeping
  /// capacity here would defeat the cache's memory bound).
  void Release() {
    std::vector<char>().swap(blob_);
    slots_ = nullptr;
    keys_ = nullptr;
    starts_ = nullptr;
    ids_ = nullptr;
    mask_ = 0;
    num_keys_ = 0;
    num_ids_ = 0;
  }

 private:
  static uint32_t Hash(int32_t key) {
    // Fibonacci multiplicative hash; the slot table is power-of-two sized.
    return static_cast<uint32_t>(key) * 2654435761u;
  }

  /// All four arrays live in one blob — a build is a single allocation
  /// (descending alignment order, so every array lands aligned):
  ///   ids    int64  x n            concatenated row ids, per entry in
  ///                                cell-row order
  ///   slots  uint32 x slot_count   entry index + 1, 0 = empty; sized
  ///                                >= 2x the row count
  ///   starts uint32 x (n + 1)      per-entry id-run offsets into ids
  ///   keys   int32  x n            per-entry key, first-occurrence order
  std::vector<char> blob_;
  uint32_t mask_ = 0;
  const uint32_t* slots_ = nullptr;
  const int32_t* keys_ = nullptr;
  const uint32_t* starts_ = nullptr;
  const int64_t* ids_ = nullptr;
  int64_t num_keys_ = 0;
  int64_t num_ids_ = 0;
};

/// Evaluates the equi-join between the cells of one output region over a
/// subset of predicate slots. Hash indexes over T-cells are built lazily
/// and cached across regions (each T-cell/key pair is indexed once per
/// engine run — the shared-scan part of the shared plan), or built ahead of
/// time by PrefetchIndexes so the scheduler-driven Join loop finds them
/// ready. The cache is bounded: beyond `cache_capacity` built entries, the
/// least-recently-used ones are released deterministically at the end of a
/// join (the `charged` flag survives eviction, so a rebuilt index is never
/// re-charged and reports are byte-identical at any capacity).
class CellJoinKernel {
 public:
  CellJoinKernel(const PartitionedTable* part_r, const PartitionedTable* part_t)
      : part_r_(part_r), part_t_(part_t) {}

  /// Waits for any still-running prefetch tasks (they write into the
  /// cache, which must outlive them).
  ~CellJoinKernel();

  /// Chooses between the flat CSR index (default) and the legacy
  /// unordered_map index. Probe order and charge accounting are identical;
  /// only layout and wall time differ. Call before any Join.
  void set_compact_layout(bool on) { compact_layout_ = on; }

  /// Bounds the number of built index entries kept across joins
  /// (<= 0 means unbounded). Evictions release storage only — never the
  /// first-use charge state — so reports are identical at any value.
  void set_cache_capacity(int64_t entries) { cache_capacity_ = entries; }

  /// Built-index evictions performed so far (also exported through the
  /// obs counter when attached).
  int64_t cache_evictions() const { return cache_evictions_; }
  /// Index builds performed (initial builds and rebuilds after eviction).
  int64_t index_builds() const { return index_builds_; }

  /// Optional obs counters (caqe_join_index_*); never feed reports.
  void SetObsCounters(Counter* builds, Counter* evictions) {
    builds_counter_ = builds;
    evictions_counter_ = evictions;
  }

  /// Kicks off background construction of every (T-cell, key) index a
  /// region of `rc` can still need. Purely a wall-clock pipeline: probe
  /// counters are charged when a region first *consumes* an index, so
  /// EngineStats totals are identical with and without prefetching (an
  /// index prefetched for a region that is later discarded is never
  /// charged — exactly as if it had never been built). No-op without a
  /// pool.
  void PrefetchIndexes(const RegionCollection& rc, ThreadPool* pool);

  /// Appends matches for `region` over the slots in `slots_mask` to `out`.
  /// Pairs matching multiple slots appear once with a combined mask, in
  /// first-matching-slot order. Probe/result counters accumulate into
  /// `stats`. With a pool, R-rows are probed in parallel chunks merged in
  /// row order, so the match sequence is identical to the serial scan.
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
    /// Exactly one of the two layouts is populated, per compact_layout_.
    KeyIndex map_index;
    FlatKeyIndex flat_index;
    /// Whether the index storage is currently populated (false after an
    /// eviction; the entry itself — and its charge state — persists).
    bool built = false;
    /// Valid only for prefetched entries; consumers wait on it before
    /// reading the index, then drop it (a cleared future marks the entry
    /// safe for eviction).
    std::shared_future<void> ready;
    /// Whether the index's build cost (one probe per cell row) has been
    /// charged to EngineStats yet. Charging happens at first consumption,
    /// never at build time — see PrefetchIndexes. Survives eviction.
    bool charged = false;
    /// LRU stamp (monotone use serial) for deterministic eviction.
    uint64_t last_used = 0;
  };

  void BuildInto(int cell_t, int key_column, CacheEntry& entry);
  /// Bumps the build counters (control thread only).
  void CountBuild();
  /// Waits for a prefetch or builds lazily, stamps the LRU serial, and
  /// charges the build cost to `stats` at first consumption.
  const CacheEntry& IndexFor(int cell_t, int key_column, EngineStats& stats);
  /// Releases least-recently-used built entries beyond the capacity.
  /// Entries used by the current join (last_used >= floor) and entries
  /// with an in-flight prefetch are never touched. Deterministic: eviction
  /// order is ascending last_used serial.
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
  int64_t cache_capacity_ = 4096;
  int64_t built_entries_ = 0;
  int64_t cache_evictions_ = 0;
  int64_t index_builds_ = 0;
  uint64_t use_serial_ = 0;
  Counter* builds_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  /// CacheKey(cell_t, key_column) -> entry. Entries are never erased
  /// (pointer stability for prefetch tasks; charge state must persist) —
  /// eviction releases an entry's index storage only.
  std::unordered_map<int64_t, CacheEntry> index_cache_;
  /// Allocation-free scratch map from row_t to a slot in `hits`:
  /// open-addressing with generation stamps, so the per-row reset is O(1)
  /// and steady-state probing never touches the heap (a node-based map
  /// here allocated and freed one node per matched row per region — the
  /// dominant steady-state churn on multi-slot workloads). The emit order
  /// stays the first-seen order the `hits` vector records; the table only
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
