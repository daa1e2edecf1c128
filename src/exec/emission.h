// Progressive result reporting with safety guarantees (paper Section 6,
// "Progressive Result Reporting").
//
// A skyline candidate of query Q may be emitted once no *pending* region
// serving Q can produce a tuple dominating it: for every pending region the
// lower (best) corner must fail to weakly dominate the candidate in Q's
// preference subspace. Emitted results are final — they can never be
// retracted, because future tuples all come from pending regions.
//
// The manager is witness-based: a blocked candidate remembers one pending
// region that blocks it and is re-examined only when that witness is
// resolved (processed, discarded, or pruned for the query), which keeps the
// re-scan cost proportional to actual state changes.
//
// The park set is sharded per query: each query owns its parked buckets,
// witness map, scan list, and safety-scan op counter, and no shard ever
// reads another shard's state. That makes the per-region flush barrier
// (FlushRegion) embarrassingly parallel without a single lock — the shared
// inputs of a witness scan (store rows, pending flags, region lineages) are
// frozen for the duration of the emission phase — while every serial entry
// point keeps working on one shard at a time, byte-identically.
#ifndef CAQE_EXEC_EMISSION_H_
#define CAQE_EXEC_EMISSION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/thread_pool.h"
#include "query/query.h"
#include "region/region_builder.h"
#include "skyline/point_set.h"

namespace caqe {

/// Manages safe progressive emission for all queries of one engine run.
class EmissionManager {
 public:
  /// `store` maps tuple id -> output values and must hold every id passed
  /// to OnAccepted/FlushRegion before the call. `pending` flags regions
  /// still awaiting tuple-level processing; the engine mutates it. All
  /// pointers must outlive the manager; `rc` lineages may shrink.
  EmissionManager(const Workload* workload, const RegionCollection* rc,
                  const TupleStore* store, const std::vector<char>* pending);

  /// Registers a tuple newly accepted into query `q`'s skyline. If it is
  /// already safe it is appended to `emit_now`; otherwise it is parked
  /// under a blocking witness region.
  void OnAccepted(int q, int64_t id, std::vector<int64_t>& emit_now);

  /// Drops a candidate evicted from query `q`'s skyline. Ignores unknown
  /// ids (tuples evicted before ever being accepted at this node).
  void OnEvicted(int q, int64_t id);

  /// Called when `region` stops threatening query `q` (processed, or q was
  /// pruned from its lineage). Newly safe candidates of q are appended to
  /// `emit_now`.
  void OnRegionResolvedForQuery(int region, int q,
                                std::vector<std::pair<int, int64_t>>& emit_now);

  /// Called when `region` is fully resolved (processed or discarded):
  /// re-examines the parked candidates of every query.
  void OnRegionResolved(int region,
                        std::vector<std::pair<int, int64_t>>& emit_now);

  /// The flush barrier of one processed region, all queries at once: per
  /// query, resolves the region's parked bucket (appending newly safe ids
  /// to `resolved[q]`) and then registers the query's accepted tuples of
  /// this region — `accepted[q]` minus `dead[q]` — appending immediately
  /// safe ones to `direct[q]`. `dead[q]` must be sorted ascending (the
  /// membership test is a binary search over the caller's reusable buffer
  /// — a region's eviction count is small, so sorted vectors beat hash
  /// sets and allocate nothing at steady state). Exactly the serial
  /// OnRegionResolved + per-query OnAccepted sequence, shard by shard; with
  /// a pool the shards run concurrently (they share no mutable state, and
  /// the witness-scan inputs are frozen during the emission phase), so
  /// outputs, park state, and per-shard coarse ops are identical at any
  /// thread count. The caller merges `direct`/`resolved` in the serial emit
  /// order (see RegionPipeline).
  void FlushRegion(int region,
                   const std::vector<std::vector<int64_t>>& accepted,
                   const std::vector<std::vector<int64_t>>& dead,
                   ThreadPool* pool,
                   std::vector<std::vector<int64_t>>& resolved,
                   std::vector<std::vector<int64_t>>& direct);

  /// Emits whatever is still parked (used as a final drain; with correct
  /// resolution bookkeeping it returns nothing and the engine asserts so).
  void DrainAll(std::vector<std::pair<int, int64_t>>& emit_now);

  /// Serving graft: (re)initializes query `q`'s emission state, growing
  /// the shard vector as needed. The scan list is rebuilt from the current
  /// region lineages, which at graft time contain exactly `q`'s regions.
  void AddQuery(int q);

  /// Serving retirement: discards query `q`'s parked candidates and scan
  /// list. When `flushed` is non-null the parked tuple ids are appended to
  /// it in ascending id order (deterministic), letting the caller decide
  /// whether to emit or drop them; retired queries' candidates are
  /// otherwise never emitted.
  void RetireQuery(int q, std::vector<int64_t>* flushed = nullptr);

  /// Coarse-level operations spent on safety scans (sum over the per-query
  /// shards; addition is order-free, so the total is identical whether the
  /// shards were flushed serially or in parallel).
  int64_t coarse_ops() const;

  /// Number of currently parked (accepted, unemitted, unevicted)
  /// candidates of query `q`.
  int64_t parked(int q) const;

 private:
  /// Everything one query's emission logic touches. Shards are mutually
  /// disjoint by construction — the basis of the lock-free parallel flush.
  struct QueryShard {
    /// Witness region -> slot in `bucket_pool` holding the region's parked
    /// candidate ids (buckets may contain stale ids of evicted candidates;
    /// filtered on resolution). Resolution returns the slot — cleared,
    /// capacity kept — to `free_buckets`, so parking under a fresh witness
    /// recycles an old bucket instead of heap-allocating: witnesses move
    /// to ever-later regions as execution proceeds, and a map of owned
    /// vectors here churned a node + vector per new witness per region.
    FlatMap64<int32_t> parked_index;
    std::vector<std::vector<int64_t>> bucket_pool;
    std::vector<int32_t> free_buckets;
    /// id -> current witness (absent once emitted or evicted);
    /// authoritative over the buckets. Flat map: a node-based map here
    /// allocated on every park and freed on every emit/evict.
    FlatMap64<int> witness_of;
    /// Region ids serving the query (scan list for witness search).
    std::vector<int> serving;
    /// Reusable buffer a bucket's ids are swapped into during resolution
    /// (re-parks push into other buckets mid-iteration, so the bucket
    /// cannot be iterated in place).
    std::vector<int64_t> resolve_scratch;
    /// Safety-scan operations charged by this shard.
    int64_t coarse_ops = 0;
  };

  /// Returns a pending region id blocking (q, id), or -1 when safe.
  /// Charges shard q's coarse_ops; reads only flush-frozen shared state.
  int FindWitness(int q, int64_t id);

  void Park(int q, int64_t id, int witness);

  /// Moves `region`'s parked ids into `shard.resolve_scratch` and returns
  /// the bucket slot to the free list. False when nothing was parked.
  static bool DetachBucket(QueryShard& shard, int region);

  /// Empties every bucket (capacity kept) and rebuilds the free list.
  static void ReleaseAllBuckets(QueryShard& shard);

  /// One shard's share of FlushRegion: resolve the region's bucket, then
  /// register the accepted survivors — the serial order within the shard.
  /// `dead`, when non-null, is sorted ascending.
  void ResolveAndRegister(int region, int q,
                          const std::vector<int64_t>* accepted,
                          const std::vector<int64_t>* dead,
                          std::vector<int64_t>& resolved,
                          std::vector<int64_t>& direct);

  const Workload* workload_;
  const RegionCollection* rc_;
  const TupleStore* store_;
  const std::vector<char>* pending_;
  std::vector<QueryShard> shards_;
};

}  // namespace caqe

#endif  // CAQE_EXEC_EMISSION_H_
