#include "exec/emission.h"

#include <algorithm>

#include "region/region_dominance.h"

namespace caqe {

EmissionManager::EmissionManager(const Workload* workload,
                                 const RegionCollection* rc,
                                 const TupleStore* store,
                                 const std::vector<char>* pending)
    : workload_(workload), rc_(rc), store_(store), pending_(pending) {
  shards_.resize(workload_->num_queries());
  // Two passes: size every scan list first so the fills below never
  // reallocate mid-growth, and pre-bucket the hot per-shard maps — parked
  // candidates trickle in one at a time, and incremental rehashing of a
  // default-sized table was pure churn.
  std::vector<size_t> serving_counts(shards_.size(), 0);
  for (const OutputRegion& region : rc_->regions) {
    region.rql.ForEach([&](int q) { ++serving_counts[q]; });
  }
  for (size_t q = 0; q < shards_.size(); ++q) {
    shards_[q].serving.reserve(serving_counts[q]);
    shards_[q].parked_index.reserve(16);
    shards_[q].witness_of.reserve(64);
  }
  for (const OutputRegion& region : rc_->regions) {
    region.rql.ForEach(
        [&](int q) { shards_[q].serving.push_back(region.id); });
  }
}

int EmissionManager::FindWitness(int q, int64_t id) {
  QueryShard& shard = shards_[q];
  const double* point = store_->row(id);
  const std::vector<int>& dims = workload_->query(q).preference;
  for (int region_id : shard.serving) {
    if (!(*pending_)[region_id]) continue;
    const OutputRegion& region = rc_->regions[region_id];
    if (!region.rql.Contains(q)) continue;  // Pruned for q meanwhile.
    ++shard.coarse_ops;
    if (RegionCanDominatePoint(region, point, dims)) return region_id;
  }
  return -1;
}

void EmissionManager::Park(int q, int64_t id, int witness) {
  QueryShard& shard = shards_[q];
  const int32_t* slot = shard.parked_index.find(witness);
  if (slot == nullptr) {
    int32_t fresh;
    if (!shard.free_buckets.empty()) {
      fresh = shard.free_buckets.back();
      shard.free_buckets.pop_back();
    } else {
      fresh = static_cast<int32_t>(shard.bucket_pool.size());
      shard.bucket_pool.emplace_back();
    }
    shard.parked_index.insert_or_assign(witness, fresh);
    shard.bucket_pool[fresh].push_back(id);
  } else {
    shard.bucket_pool[*slot].push_back(id);
  }
  shard.witness_of.insert_or_assign(id, witness);
}

/// Detaches `region`'s parked bucket into `shard.resolve_scratch` and
/// recycles the bucket slot. Returns false when the region has no parked
/// candidates.
bool EmissionManager::DetachBucket(QueryShard& shard, int region) {
  const int32_t* slot = shard.parked_index.find(region);
  if (slot == nullptr) return false;
  const int32_t freed = *slot;
  shard.resolve_scratch.swap(shard.bucket_pool[freed]);
  shard.bucket_pool[freed].clear();
  shard.parked_index.erase(region);
  shard.free_buckets.push_back(freed);
  return !shard.resolve_scratch.empty();
}

void EmissionManager::ReleaseAllBuckets(QueryShard& shard) {
  shard.parked_index.clear();
  shard.free_buckets.clear();
  for (size_t i = 0; i < shard.bucket_pool.size(); ++i) {
    shard.bucket_pool[i].clear();
    shard.free_buckets.push_back(static_cast<int32_t>(i));
  }
}

void EmissionManager::OnAccepted(int q, int64_t id,
                                 std::vector<int64_t>& emit_now) {
  const int witness = FindWitness(q, id);
  if (witness < 0) {
    emit_now.push_back(id);
  } else {
    Park(q, id, witness);
  }
}

void EmissionManager::OnEvicted(int q, int64_t id) {
  // Stale entries stay in parked buckets; witness_of is authoritative.
  shards_[q].witness_of.erase(id);
}

void EmissionManager::OnRegionResolvedForQuery(
    int region, int q, std::vector<std::pair<int, int64_t>>& emit_now) {
  QueryShard& shard = shards_[q];
  // The resolved region can never be re-picked as a witness here — it is
  // no longer pending, or was pruned for q — so re-parks during the scan
  // only touch other buckets (possibly recycling the slot just freed).
  if (!DetachBucket(shard, region)) return;
  std::vector<int64_t>& ids = shard.resolve_scratch;
  for (int64_t id : ids) {
    const int* w = shard.witness_of.find(id);
    if (w == nullptr || *w != region) {
      continue;  // Evicted or re-parked meanwhile.
    }
    shard.witness_of.erase(id);
    const int witness = FindWitness(q, id);
    if (witness < 0) {
      emit_now.emplace_back(q, id);
    } else {
      Park(q, id, witness);
    }
  }
  ids.clear();
}

void EmissionManager::ResolveAndRegister(int region, int q,
                                         const std::vector<int64_t>* accepted,
                                         const std::vector<int64_t>* dead,
                                         std::vector<int64_t>& resolved,
                                         std::vector<int64_t>& direct) {
  // Bucket resolution first, then acceptance registration — the order the
  // emission phase uses within this query.
  QueryShard& shard = shards_[q];
  if (DetachBucket(shard, region)) {
    std::vector<int64_t>& ids = shard.resolve_scratch;
    for (int64_t id : ids) {
      const int* w = shard.witness_of.find(id);
      if (w == nullptr || *w != region) continue;
      shard.witness_of.erase(id);
      const int witness = FindWitness(q, id);
      if (witness < 0) {
        resolved.push_back(id);
      } else {
        Park(q, id, witness);
      }
    }
    ids.clear();
  }
  if (accepted == nullptr) return;
  for (int64_t id : *accepted) {
    if (dead != nullptr &&
        std::binary_search(dead->begin(), dead->end(), id)) {
      continue;
    }
    OnAccepted(q, id, direct);
  }
}

void EmissionManager::FlushRegion(
    int region, const std::vector<std::vector<int64_t>>& accepted,
    const std::vector<std::vector<int64_t>>& dead,
    std::vector<std::vector<int64_t>>& resolved,
    std::vector<std::vector<int64_t>>& direct) {
  const size_t n = shards_.size();
  if (resolved.size() < n) resolved.resize(n);
  if (direct.size() < n) direct.resize(n);
  for (size_t q = 0; q < n; ++q) {
    resolved[q].clear();
    direct[q].clear();
    ResolveAndRegister(region, static_cast<int>(q),
                       q < accepted.size() ? &accepted[q] : nullptr,
                       q < dead.size() && !dead[q].empty() ? &dead[q]
                                                           : nullptr,
                       resolved[q], direct[q]);
  }
}

void EmissionManager::AddQuery(int q) {
  if (q >= static_cast<int>(shards_.size())) {
    shards_.resize(q + 1);
  }
  QueryShard& shard = shards_[q];
  ReleaseAllBuckets(shard);
  shard.witness_of.clear();
  shard.serving.clear();
  // The query's scan list is its post-graft lineage, ascending region id —
  // the same order the constructor produces for initial queries.
  for (const OutputRegion& region : rc_->regions) {
    if (region.rql.Contains(q)) shard.serving.push_back(region.id);
  }
}

void EmissionManager::RetireQuery(int q, std::vector<int64_t>* flushed) {
  if (q < 0 || q >= static_cast<int>(shards_.size())) return;
  QueryShard& shard = shards_[q];
  if (flushed != nullptr) {
    shard.witness_of.ForEach(
        [&](int64_t id, int) { flushed->push_back(id); });
    // witness_of iteration order is slot (hash) order; ascending tuple id
    // (= acceptance order within a region, region order across) makes the
    // flush deterministic.
    std::sort(flushed->begin(), flushed->end());
  }
  ReleaseAllBuckets(shard);
  shard.witness_of.clear();
  shard.serving.clear();
}

void EmissionManager::OnRegionResolved(
    int region, std::vector<std::pair<int, int64_t>>& emit_now) {
  for (int q = 0; q < static_cast<int>(shards_.size()); ++q) {
    OnRegionResolvedForQuery(region, q, emit_now);
  }
}

void EmissionManager::DrainAll(
    std::vector<std::pair<int, int64_t>>& emit_now) {
  for (int q = 0; q < static_cast<int>(shards_.size()); ++q) {
    QueryShard& shard = shards_[q];
    shard.parked_index.ForEach([&](int64_t region, int32_t slot) {
      (void)region;
      for (int64_t id : shard.bucket_pool[slot]) {
        if (!shard.witness_of.erase(id)) continue;
        emit_now.emplace_back(q, id);
      }
    });
    ReleaseAllBuckets(shard);
  }
}

int64_t EmissionManager::coarse_ops() const {
  int64_t total = 0;
  for (const QueryShard& shard : shards_) total += shard.coarse_ops;
  return total;
}

int64_t EmissionManager::parked(int q) const {
  CAQE_DCHECK(q >= 0 && q < static_cast<int>(shards_.size()));
  return static_cast<int64_t>(shards_[q].witness_of.size());
}

}  // namespace caqe
