#include "exec/join_kernel.h"

#include <algorithm>
#include <array>
#include <unordered_set>
#include <utility>

#include "obs/metrics_registry.h"

namespace caqe {

void FlatKeyIndex::Build(const Table& t, const std::vector<int64_t>& rows,
                         int key_column) {
  const size_t n = rows.size();
  if (n == 0) {
    Release();
    return;
  }
  // Slot table: power of two >= 2x the row count (distinct keys <= rows),
  // so the load factor stays below 0.5 even when every key is unique.
  size_t slot_count = 64;
  while (slot_count < n * 2) slot_count <<= 1;

  // One blob, one allocation (grow-only across rebuilds of this entry).
  const size_t ids_bytes = n * sizeof(int64_t);
  const size_t slots_bytes = slot_count * sizeof(uint32_t);
  const size_t starts_bytes = (n + 1) * sizeof(uint32_t);
  const size_t need = ids_bytes + slots_bytes + starts_bytes +
                      n * sizeof(int32_t);
  if (blob_.capacity() < need) {
    blob_.reserve(std::max(need, blob_.capacity() * 2));
  }
  if (blob_.size() < need) blob_.resize(need);
  int64_t* const ids = reinterpret_cast<int64_t*>(blob_.data());
  uint32_t* const slots = reinterpret_cast<uint32_t*>(blob_.data() + ids_bytes);
  uint32_t* const starts =
      reinterpret_cast<uint32_t*>(blob_.data() + ids_bytes + slots_bytes);
  int32_t* const keys = reinterpret_cast<int32_t*>(blob_.data() + ids_bytes +
                                                   slots_bytes + starts_bytes);
  std::fill(slots, slots + slot_count, 0u);
  mask_ = static_cast<uint32_t>(slot_count - 1);

  // Pass 1: discover entries in first-occurrence row order; each entry's
  // id count accumulates in starts[entry + 1] (safe: entries < n and
  // starts has n + 1 slots).
  uint32_t num_keys = 0;
  for (int64_t row : rows) {
    const int32_t key = t.key(row, key_column);
    uint32_t slot = Hash(key) & mask_;
    while (true) {
      const uint32_t stored = slots[slot];
      if (stored == 0) {
        slots[slot] = num_keys + 1;
        keys[num_keys] = key;
        starts[num_keys + 1] = 1;
        ++num_keys;
        break;
      }
      if (keys[stored - 1] == key) {
        ++starts[stored];
        break;
      }
      slot = (slot + 1) & mask_;
    }
  }

  // In-place prefix sum: starts[e] = first offset of entry e's run.
  starts[0] = 0;
  for (uint32_t e = 1; e <= num_keys; ++e) starts[e] += starts[e - 1];
  const uint32_t total = starts[num_keys];

  // Pass 2: fill each entry's contiguous run in row order, using starts[e]
  // itself as the fill cursor (reproducing the legacy per-key push_back
  // order), then shift the cursors back down: after the fill starts[e]
  // holds entry e's run *end*, which is exactly entry e+1's start.
  for (int64_t row : rows) {
    const int32_t key = t.key(row, key_column);
    uint32_t slot = Hash(key) & mask_;
    while (keys[slots[slot] - 1] != key) slot = (slot + 1) & mask_;
    ids[starts[slots[slot] - 1]++] = row;
  }
  for (uint32_t e = num_keys; e > 0; --e) starts[e] = starts[e - 1];
  starts[0] = 0;

  slots_ = slots;
  keys_ = keys;
  starts_ = starts;
  ids_ = ids;
  num_keys_ = static_cast<int64_t>(num_keys);
  num_ids_ = static_cast<int64_t>(total);
}

void CellJoinKernel::HitTable::Grow() {
  const size_t new_cap = keys.empty() ? 64 : (mask + 1) * 2;
  std::vector<int64_t> old_keys = std::move(keys);
  std::vector<size_t> old_slots = std::move(slots);
  std::vector<uint32_t> old_stamps = std::move(stamps);
  keys.assign(new_cap, 0);
  slots.assign(new_cap, 0);
  stamps.assign(new_cap, 0);
  const size_t old_mask = mask;
  mask = new_cap - 1;
  if (gen == 0) gen = 1;  // Fresh table: stamp 0 now means "empty".
  // Re-seat the current generation's entries (growth can hit mid-row);
  // stale generations are dropped — clear() invalidated them already.
  for (size_t i = 0; i <= old_mask && !old_keys.empty(); ++i) {
    if (old_stamps[i] != gen) continue;
    size_t j = Hash(old_keys[i]) & mask;
    while (stamps[j] == gen) j = (j + 1) & mask;
    stamps[j] = gen;
    keys[j] = old_keys[i];
    slots[j] = old_slots[i];
  }
}

CellJoinKernel::~CellJoinKernel() {
  for (auto& [key, entry] : index_cache_) {
    (void)key;
    if (entry.ready.valid()) entry.ready.wait();
  }
}

void CellJoinKernel::BuildInto(int cell_t, int key_column,
                               CacheEntry& entry) {
  const LeafCell& cell = part_t_->cell(cell_t);
  const Table& t = part_t_->table();
  if (compact_layout_) {
    entry.flat_index.Build(t, cell.rows, key_column);
  } else {
    for (int64_t row : cell.rows) {
      entry.map_index[t.key(row, key_column)].push_back(row);
    }
  }
}

void CellJoinKernel::CountBuild() {
  // Always called on the control thread (lazy builds and prefetch
  // submission), never from the worker tasks themselves.
  ++index_builds_;
  if (builds_counter_ != nullptr) builds_counter_->Inc();
}

const CellJoinKernel::CacheEntry& CellJoinKernel::IndexFor(
    int cell_t, int key_column, EngineStats& stats) {
  const int64_t cache_key = CacheKey(cell_t, key_column);
  auto it = index_cache_.find(cache_key);
  if (it == index_cache_.end()) {
    it = index_cache_.try_emplace(cache_key).first;
  }
  CacheEntry& entry = it->second;
  if (entry.ready.valid()) {
    entry.ready.get();
    entry.ready = {};  // Consumed: the entry is evictable from here on.
  }
  if (!entry.built) {
    BuildInto(cell_t, key_column, entry);
    CountBuild();
    entry.built = true;
    ++built_entries_;
  }
  entry.last_used = ++use_serial_;
  if (!entry.charged) {
    entry.charged = true;
    stats.join_probes +=
        static_cast<int64_t>(part_t_->cell(cell_t).rows.size());
  }
  return entry;
}

void CellJoinKernel::EvictOverflow(uint64_t floor) {
  if (cache_capacity_ <= 0 || built_entries_ <= cache_capacity_) return;
  // Collect evictable built entries: already consumed (no in-flight
  // prefetch) and not used by the join that just ran. Sorting by the use
  // serial makes the eviction order deterministic regardless of map
  // iteration order.
  std::vector<std::pair<uint64_t, CacheEntry*>> candidates;
  for (auto& [key, entry] : index_cache_) {
    (void)key;
    if (!entry.built || entry.ready.valid() || entry.last_used >= floor) {
      continue;
    }
    candidates.emplace_back(entry.last_used, &entry);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [serial, entry] : candidates) {
    (void)serial;
    if (built_entries_ <= cache_capacity_) break;
    entry->map_index = KeyIndex{};
    entry->flat_index.Release();
    entry->built = false;
    --built_entries_;
    ++cache_evictions_;
    if (evictions_counter_ != nullptr) evictions_counter_->Inc();
  }
}

void CellJoinKernel::PrefetchIndexes(const RegionCollection& rc,
                                     ThreadPool* pool) {
  if (pool == nullptr) return;
  // Collect every (cell_t, key) pair some region can still need, in region
  // order so high-fanout cells (scanned first) tend to be ready first.
  std::vector<std::pair<int, int>> needed;
  std::unordered_set<int64_t> seen;
  for (const OutputRegion& region : rc.regions) {
    for (int s = 0; s < static_cast<int>(rc.predicate_slots.size()); ++s) {
      if (region.join_sizes[s] <= 0) continue;
      if (!region.rql.Intersects(rc.queries_of_slot[s])) continue;
      const int key_column = rc.predicate_slots[s];
      const int64_t key = CacheKey(region.cell_t, key_column);
      if (!seen.insert(key).second) continue;
      auto it = index_cache_.find(key);
      if (it != index_cache_.end() &&
          (it->second.built || it->second.ready.valid())) {
        continue;
      }
      needed.emplace_back(region.cell_t, key_column);
    }
  }
  // Create the cache slots on this thread so the background builders never
  // touch the map structure itself (unordered_map element references stay
  // valid across later insertions).
  for (const auto& [cell_t, key_column] : needed) {
    CacheEntry& entry = index_cache_[CacheKey(cell_t, key_column)];
    entry.built = true;
    ++built_entries_;
    CountBuild();
    entry.ready =
        pool->Submit([this, &entry, cell_t = cell_t,
                      key_column = key_column] {
              BuildInto(cell_t, key_column, entry);
            })
            .share();
  }
}

void CellJoinKernel::Join(const RegionCollection& rc,
                          const OutputRegion& region, uint32_t slots_mask,
                          std::vector<JoinMatch>& out, EngineStats& stats,
                          ThreadPool* pool) {
  if (slots_mask == 0) return;
  const uint64_t floor = use_serial_ + 1;

  // Resolve the indexes up front so probing is tight (this is also where
  // lazy builds and first-use charging happen, on the calling thread).
  std::array<std::pair<int, const CacheEntry*>, 32> slot_indexes;
  int num_slots = 0;
  for (int s = 0; s < static_cast<int>(rc.predicate_slots.size()); ++s) {
    if ((slots_mask >> s) & 1) {
      slot_indexes[num_slots++] = {
          s, &IndexFor(region.cell_t, rc.predicate_slots[s], stats)};
    }
  }
  ProbeRows(rc, region, slot_indexes.data(), num_slots, out, stats, pool);
  EvictOverflow(floor);
}

void CellJoinKernel::ProbeRows(
    const RegionCollection& rc, const OutputRegion& region,
    const std::pair<int, const CacheEntry*>* slot_indexes, int num_indexes,
    std::vector<JoinMatch>& out, EngineStats& stats, ThreadPool* pool) const {
  const LeafCell& cell_r = part_r_->cell(region.cell_r);
  const Table& r = part_r_->table();
  const bool single_slot = num_indexes == 1;
  const bool flat = compact_layout_;

  const int64_t num_rows = static_cast<int64_t>(cell_r.rows.size());
  constexpr int64_t kMinRowsPerChunk = 128;
  const int chunks = NumChunks(pool, num_rows, kMinRowsPerChunk);

  if (probe_shards_.size() < static_cast<size_t>(chunks)) {
    probe_shards_.resize(chunks);
  }

  RunChunks(pool, chunks, [&](int c) {
    const auto [begin, end] = ChunkRange(num_rows, chunks, c);
    ProbeShard& shard = probe_shards_[c];
    shard.out.clear();
    shard.probes = 0;
    shard.results = 0;
    // Multi-slot matches are emitted in first-seen order per row (not hash
    // order) so the sequence is independent of map internals.
    auto& hits = shard.hits;
    auto& hit_of_row = shard.hit_of_row;
    hits.clear();
    hit_of_row.clear();
    // Emits one (row_t, slot) hit; shared by both index layouts.
    const auto emit = [&](int64_t row_r, int64_t row_t, int slot) {
      if (single_slot) {
        shard.out.push_back(JoinMatch{row_r, row_t, uint32_t{1} << slot});
        ++shard.results;
      } else {
        bool inserted = false;
        size_t& pos = hit_of_row.FindOrInsert(row_t, inserted);
        if (inserted) {
          pos = hits.size();
          hits.emplace_back(row_t, 0);
        }
        hits[pos].second |= uint32_t{1} << slot;
      }
    };
    for (int64_t i = begin; i < end; ++i) {
      const int64_t row_r = cell_r.rows[i];
      if (!single_slot) {
        hits.clear();
        hit_of_row.clear();
      }
      for (int s = 0; s < num_indexes; ++s) {
        const auto& [slot, entry] = slot_indexes[s];
        ++shard.probes;
        const int32_t key = r.key(row_r, rc.predicate_slots[slot]);
        if (flat) {
          for (int64_t row_t : entry->flat_index.Find(key)) {
            emit(row_r, row_t, slot);
          }
        } else {
          const auto hit = entry->map_index.find(key);
          if (hit == entry->map_index.end()) continue;
          for (int64_t row_t : hit->second) emit(row_r, row_t, slot);
        }
      }
      if (!single_slot) {
        for (const auto& [row_t, mask] : hits) {
          shard.out.push_back(JoinMatch{row_r, row_t, mask});
          ++shard.results;
        }
      }
    }
  });

  // Merge in chunk order: identical match sequence and counter totals at
  // every thread count.
  for (int c = 0; c < chunks; ++c) {
    ProbeShard& shard = probe_shards_[c];
    out.insert(out.end(), shard.out.begin(), shard.out.end());
    stats.join_probes += shard.probes;
    stats.join_results += shard.results;
  }
}

}  // namespace caqe
