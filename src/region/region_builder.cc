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
  int64_t scan_equiv = 0;

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

/// Classifies one side's cells against every query's ranges on that side.
void ClassifySide(const PartitionedTable& part, const Workload& workload,
                  bool on_r, std::vector<QuerySet>* disjoint,
                  std::vector<QuerySet>* contained,
                  CoarseIndexStats* stats) {
  const int64_t num_cells = part.num_cells();
  disjoint->assign(static_cast<size_t>(num_cells), QuerySet());
  contained->assign(static_cast<size_t>(num_cells), QuerySet());
  PackedBoxTree tree;
  tree.Build(
      part.table().num_attrs(), num_cells,
      [&part](int64_t i) {
        return part.cell(static_cast<int>(i)).lower.data();
      },
      [&part](int64_t i) {
        return part.cell(static_cast<int>(i)).upper.data();
      });
  if (stats != nullptr) {
    ++stats->trees_built;
    stats->build_entries += num_cells;
  }
  std::vector<uint8_t> classes(static_cast<size_t>(num_cells));
  std::vector<IndexRange> ranges;
  for (int q = 0; q < workload.num_queries(); ++q) {
    ranges.clear();
    for (const SelectionRange& sel : workload.query(q).selections) {
      if (sel.on_r != on_r) continue;
      ranges.push_back(IndexRange{sel.attr, sel.lo, sel.hi});
    }
    tree.ClassifyRanges(ranges, classes.data(), stats);
    for (int64_t i = 0; i < num_cells; ++i) {
      const uint8_t cls = classes[static_cast<size_t>(i)];
      if (cls == kIndexDisjoint) {
        (*disjoint)[static_cast<size_t>(i)].Add(q);
      } else if (cls == kIndexContained) {
        (*contained)[static_cast<size_t>(i)].Add(q);
      }
    }
  }
}

}  // namespace

SelectionClassIndex BuildSelectionClassIndex(const PartitionedTable& part_r,
                                             const PartitionedTable& part_t,
                                             const Workload& workload,
                                             CoarseIndexStats* stats) {
  SelectionClassIndex index;
  ClassifySide(part_r, workload, /*on_r=*/true, &index.r_disjoint,
               &index.r_contained, stats);
  ClassifySide(part_t, workload, /*on_r=*/false, &index.t_disjoint,
               &index.t_contained, stats);
  return index;
}

Result<RegionCollection> BuildRegions(const PartitionedTable& part_r,
                                      const PartitionedTable& part_t,
                                      const Workload& workload,
                                      ThreadPool* pool) {
  RegionBuildOptions options;
  options.pool = pool;
  return BuildRegions(part_r, part_t, workload, options);
}

Result<RegionCollection> BuildRegions(const PartitionedTable& part_r,
                                      const PartitionedTable& part_t,
                                      const Workload& workload,
                                      const RegionBuildOptions& options) {
  ThreadPool* pool = options.pool;
  const SelectionClassIndex* sel_index = options.selection_index;
  CAQE_RETURN_NOT_OK(workload.Validate(part_r.table(), part_t.table()));

  RegionCollection rc;
  rc.predicate_slots = workload.DistinctJoinKeys();
  const int num_slots = static_cast<int>(rc.predicate_slots.size());
  rc.slot_of_query.resize(workload.num_queries(), -1);
  rc.queries_of_slot.resize(num_slots);
  for (int q = 0; q < workload.num_queries(); ++q) {
    const int key = workload.query(q).join_key;
    const auto it = std::find(rc.predicate_slots.begin(),
                              rc.predicate_slots.end(), key);
    rc.slot_of_query[q] =
        static_cast<int>(it - rc.predicate_slots.begin());
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
      cell_pairs >= kParallelMinCellPairs ? pool : nullptr;
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
          if (sel_index != nullptr) {
            // Indexed path: the precomputed per-side classes collapse the
            // per-query CoarseSelectionTest to bit-set algebra.  The op
            // charge stays one per eligible query — exactly what the scan
            // path charges per test — so reports are byte-identical.
            stripe.coarse_ops += eligible.size();
            stripe.scan_equiv += eligible.size();
            const QuerySet disjoint =
                sel_index->r_disjoint[static_cast<size_t>(a)].Union(
                    sel_index->t_disjoint[static_cast<size_t>(b)]);
            const QuerySet contained =
                sel_index->r_contained[static_cast<size_t>(a)].Intersect(
                    sel_index->t_contained[static_cast<size_t>(b)]);
            region.rql = region.rql.Union(eligible.Minus(disjoint));
            region.guaranteed =
                region.guaranteed.Union(eligible.Intersect(contained));
            continue;
          }
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
    if (options.index_stats != nullptr) {
      options.index_stats->scan_equiv += stripe.scan_equiv;
    }
  }
  rc.key_match_starts.push_back(static_cast<int64_t>(rc.key_matches.size()));
  return rc;
}

}  // namespace caqe
