#include "region/region_builder.h"

#include <algorithm>

namespace caqe {

SelectionCoarse CoarseSelectionTest(const SjQuery& query,
                                    const LeafCell& cell_r,
                                    const LeafCell& cell_t) {
  bool contained = true;
  for (const SelectionRange& sel : query.selections) {
    const LeafCell& cell = sel.on_r ? cell_r : cell_t;
    if (cell.lower[sel.attr] > sel.hi || cell.upper[sel.attr] < sel.lo) {
      return SelectionCoarse::kDisjoint;
    }
    if (cell.lower[sel.attr] < sel.lo || cell.upper[sel.attr] > sel.hi) {
      contained = false;
    }
  }
  return contained ? SelectionCoarse::kContained : SelectionCoarse::kOverlap;
}

int RegionCollection::SlotOfKey(int key) const {
  for (int s = 0; s < static_cast<int>(predicate_slots.size()); ++s) {
    if (predicate_slots[s] == key) return s;
  }
  return -1;
}

uint32_t RegionCollection::ServedSlots(const OutputRegion& region) const {
  uint32_t slots = 0;
  for (int s = 0; s < static_cast<int>(predicate_slots.size()); ++s) {
    if (region.join_sizes[s] > 0 &&
        region.rql.Intersects(queries_of_slot[s])) {
      slots |= uint32_t{1} << s;
    }
  }
  return slots;
}

namespace {

/// Key matches per block of a stripe's match store: 32 KB, small enough for
/// the allocator to serve from chunks earlier builds freed.
constexpr size_t kMatchBlock = 4096;

/// Per-stripe scratch of the parallel region scan: regions in (a, b) order
/// with ids unassigned, their key matches with stripe-relative offsets (one
/// per region and slot), plus the stripe's share of the work counters.
struct RegionStripe {
  std::vector<OutputRegion> regions;
  /// The key matches in fixed-size blocks. Appending never moves stored
  /// matches: a growing array's chain of ever larger copies would touch
  /// fresh pages on every build, a cost the final exact-size array avoids.
  std::vector<std::vector<KeyMatch>> match_blocks;
  int64_t num_matches = 0;
  std::vector<int64_t> key_match_starts;
  /// MatchSignatures' room per slot, grown to the largest merge's need:
  /// the merge writes a candidate every step, so it needs room for
  /// min(|sig_r|, |sig_t|) entries, and only a region that is emitted
  /// keeps its matches.
  std::vector<std::vector<KeyMatch>> merge_rooms;
  std::vector<int64_t> found;
  std::vector<int64_t> total_join_sizes;
  int64_t coarse_ops = 0;

  void AppendMatches(const KeyMatch* first, int64_t count) {
    num_matches += count;
    while (count > 0) {
      if (match_blocks.empty() || match_blocks.back().size() == kMatchBlock) {
        match_blocks.emplace_back().reserve(kMatchBlock);
      }
      std::vector<KeyMatch>& block = match_blocks.back();
      const int64_t take = std::min<int64_t>(
          count, static_cast<int64_t>(kMatchBlock - block.size()));
      block.insert(block.end(), first, first + take);
      first += take;
      count -= take;
    }
  }
};

}  // namespace

Result<RegionCollection> BuildRegions(const PartitionedTable& part_r,
                                      const PartitionedTable& part_t,
                                      const Workload& workload,
                                      const RegionBuildOptions& options) {
  CAQE_RETURN_NOT_OK(workload.Validate(part_r.table(), part_t.table()));

  RegionCollection rc;
  rc.predicate_slots = workload.DistinctJoinKeys();
  const int num_slots = static_cast<int>(rc.predicate_slots.size());
  if (num_slots > RegionCollection::kMaxSlots) {
    return Status::InvalidArgument(
        "a workload may join on at most 32 distinct key columns");
  }
  rc.slot_of_query.resize(workload.num_queries(), -1);
  rc.queries_of_slot.resize(num_slots);
  for (int q = 0; q < workload.num_queries(); ++q) {
    rc.slot_of_query[q] = rc.SlotOfKey(workload.query(q).join_key);
    rc.queries_of_slot[rc.slot_of_query[q]].Add(q);
  }
  rc.total_join_sizes.assign(num_slots, 0);

  const int width = workload.num_output_dims();
  const int64_t num_r_cells = part_r.num_cells();
  // Below this many cell pairs the stripe fork/join costs more than the
  // scan; build serially. The stripe merge makes ids and counters identical
  // at any chunk count, so the cutoff cannot change results.
  constexpr int64_t kParallelMinCellPairs = 1024;
  const int64_t cell_pairs = num_r_cells * part_t.num_cells();
  ThreadPool* const build_pool =
      cell_pairs >= kParallelMinCellPairs ? options.pool : nullptr;
  const int chunks = NumChunks(build_pool, num_r_cells, /*min_chunk=*/1);
  std::vector<RegionStripe> stripes(chunks);

  RunChunks(build_pool, chunks, [&](int c) {
    const auto [a_begin, a_end] = ChunkRange(num_r_cells, chunks, c);
    RegionStripe& stripe = stripes[c];
    stripe.total_join_sizes.assign(num_slots, 0);
    stripe.merge_rooms.resize(num_slots);
    stripe.found.assign(num_slots, 0);
    for (int64_t a = a_begin; a < a_end; ++a) {
      const LeafCell& cell_r = part_r.cell(static_cast<int>(a));
      for (int b = 0; b < part_t.num_cells(); ++b) {
        const LeafCell& cell_t = part_t.cell(b);
        OutputRegion region;
        region.join_sizes.assign(num_slots, 0);
        for (int s = 0; s < num_slots; ++s) {
          const int key = rc.predicate_slots[s];
          const std::vector<int32_t>& sig_r = cell_r.signatures[key];
          const std::vector<int32_t>& sig_t = cell_t.signatures[key];
          std::vector<KeyMatch>& room = stripe.merge_rooms[s];
          const size_t need = std::min(sig_r.size(), sig_t.size());
          if (room.size() < need) room.resize(need);
          const int64_t size = MatchSignatures(
              sig_r, cell_r.signature_counts[key], sig_t,
              cell_t.signature_counts[key], room.data(), &stripe.found[s],
              &stripe.coarse_ops);
          region.join_sizes[s] = size;
          if (size <= 0) continue;
          stripe.total_join_sizes[s] += size;
          const QuerySet eligible = rc.queries_of_slot[s];
          // Per query: fold the selection ranges into the coarse test.
          eligible.ForEach([&](int q) {
            ++stripe.coarse_ops;
            switch (CoarseSelectionTest(workload.query(q), cell_r, cell_t)) {
              case SelectionCoarse::kDisjoint:
                break;
              case SelectionCoarse::kContained:
                region.rql.Add(q);
                region.guaranteed.Add(q);
                break;
              case SelectionCoarse::kOverlap:
                region.rql.Add(q);
                break;
            }
          });
        }
        if (region.rql.empty()) continue;
        for (int s = 0; s < num_slots; ++s) {
          stripe.key_match_starts.push_back(stripe.num_matches);
          stripe.AppendMatches(stripe.merge_rooms[s].data(), stripe.found[s]);
        }

        region.cell_r = static_cast<int>(a);
        region.cell_t = b;
        region.rows_r = static_cast<int64_t>(cell_r.rows.size());
        region.rows_t = static_cast<int64_t>(cell_t.rows.size());
        region.lower.resize(width);
        region.upper.resize(width);
        for (int k = 0; k < width; ++k) {
          const MappingFunction& f = workload.output_dim(k);
          region.lower[k] =
              f.Apply(cell_r.lower[f.r_attr], cell_t.lower[f.t_attr]);
          region.upper[k] =
              f.Apply(cell_r.upper[f.r_attr], cell_t.upper[f.t_attr]);
          ++stripe.coarse_ops;
        }
        stripe.regions.push_back(std::move(region));
      }
    }
  });

  // Merge stripes in stripe order: region ids, key matches, counter totals,
  // and region order come out exactly as in a serial (a, b) scan.
  int64_t total_matches = 0;
  for (const RegionStripe& stripe : stripes) {
    total_matches += stripe.num_matches;
  }
  rc.key_matches.reserve(static_cast<size_t>(total_matches));
  for (RegionStripe& stripe : stripes) {
    for (OutputRegion& region : stripe.regions) {
      region.id = static_cast<int>(rc.regions.size());
      rc.regions.push_back(std::move(region));
    }
    const int64_t base = static_cast<int64_t>(rc.key_matches.size());
    for (const int64_t start : stripe.key_match_starts) {
      rc.key_match_starts.push_back(base + start);
    }
    for (const std::vector<KeyMatch>& block : stripe.match_blocks) {
      rc.key_matches.insert(rc.key_matches.end(), block.begin(), block.end());
    }
    for (int s = 0; s < num_slots; ++s) {
      rc.total_join_sizes[s] += stripe.total_join_sizes[s];
    }
    rc.coarse_ops += stripe.coarse_ops;
  }
  rc.key_match_starts.push_back(static_cast<int64_t>(rc.key_matches.size()));
  return rc;
}

}  // namespace caqe
