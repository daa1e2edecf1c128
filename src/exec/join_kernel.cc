#include "exec/join_kernel.h"

#include <algorithm>
#include <utility>

namespace caqe {

void CellJoinKernel::ChargeFirstUse(int cell_t, int key_column,
                                    EngineStats& stats) {
  const size_t num_keys = static_cast<size_t>(part_t_->table().num_keys());
  if (charged_.empty()) {
    charged_.assign(static_cast<size_t>(part_t_->num_cells()) * num_keys, 0);
  }
  char& charged = charged_[static_cast<size_t>(cell_t) * num_keys +
                           static_cast<size_t>(key_column)];
  if (charged != 0) return;
  charged = 1;
  stats.join_probes += static_cast<int64_t>(part_t_->cell(cell_t).rows.size());
}

void CellJoinKernel::Join(const RegionCollection& rc,
                          const OutputRegion& region, uint32_t slots_mask,
                          std::vector<JoinMatch>& out, EngineStats& stats) {
  if (slots_mask == 0) return;
  // The key matches come from the BuildRegions run that made `region`.
  CAQE_CHECK(static_cast<size_t>(region.id) < rc.regions.size() &&
             rc.key_match_starts.size() ==
                 rc.regions.size() * rc.predicate_slots.size() + 1);
  const LeafCell& cell_r = part_r_->cell(region.cell_r);
  const LeafCell& cell_t = part_t_->cell(region.cell_t);
  const int64_t rows_r = static_cast<int64_t>(cell_r.rows.size());

  // Expand every active slot's key matches, slot by slot. Within a slot a
  // match's R rows are one key group, so each R row's T rows come out
  // together and in cell order. A slot expands into exactly its join size.
  const int num_slots = static_cast<int>(rc.predicate_slots.size());
  int64_t total = 0;
  for (int s = 0; s < num_slots; ++s) {
    if ((slots_mask >> s) & 1) total += region.join_sizes[s];
  }
  if (static_cast<int64_t>(pairs_.size()) < total) {
    pairs_.resize(static_cast<size_t>(total));
    sorted_.resize(static_cast<size_t>(total));
  }
  CellPair* const pairs = pairs_.data();
  size_t n = 0;
  int active_slots = 0;
  for (int s = 0; s < num_slots; ++s) {
    if (((slots_mask >> s) & 1) == 0) continue;
    ++active_slots;
    const int key = rc.predicate_slots[s];
    ChargeFirstUse(region.cell_t, key, stats);
    stats.join_probes += rows_r;
    const int32_t* const groups_r = cell_r.key_groups[key].data();
    const int32_t* const starts_r = cell_r.key_group_starts[key].data();
    const int32_t* const groups_t = cell_t.key_groups[key].data();
    const int32_t* const starts_t = cell_t.key_group_starts[key].data();
    const uint32_t slot_bit = uint32_t{1} << s;
    const auto [first, last] = rc.KeyMatchesOf(region.id, s);
    for (const KeyMatch* match = first; match != last; ++match) {
      const int32_t end_r = starts_r[match->a + 1];
      const int32_t begin_t = starts_t[match->b];
      const int32_t end_t = starts_t[match->b + 1];
      CAQE_DCHECK(static_cast<int64_t>(n) +
                      int64_t{end_r - starts_r[match->a]} * (end_t - begin_t) <=
                  total);
      for (int32_t i = starts_r[match->a]; i < end_r; ++i) {
        for (int32_t j = begin_t; j < end_t; ++j) {
          pairs[n++] = CellPair{groups_r[i], groups_t[j], slot_bit};
        }
      }
    }
  }
  CAQE_CHECK(static_cast<int64_t>(n) == total);
  const CellPair* const sorted = SortPairsByR(n, rows_r);
  const size_t before = out.size();

  if (active_slots == 1) {
    out.resize(before + n);
    JoinMatch* const dst = out.data() + before;
    const int64_t* const ids_r = cell_r.rows.data();
    const int64_t* const ids_t = cell_t.rows.data();
    // R positions ascend, but T positions land anywhere in the cell: fetch
    // their row ids a few matches ahead.
    constexpr size_t kAhead = 16;
    for (size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) {
        __builtin_prefetch(ids_t + sorted[i + kAhead].pos_t);
      }
      dst[i] = JoinMatch{ids_r[sorted[i].pos_r], ids_t[sorted[i].pos_t],
                         sorted[i].slot_bit};
    }
  } else {
    // Each R row's pairs run slot by slot; a T row met again on a later
    // slot folds its bit into the match its first slot emitted.
    const size_t rows_t = cell_t.rows.size();
    if (seen_stamp_.size() < rows_t) {
      seen_stamp_.resize(rows_t, 0);
      seen_at_.resize(rows_t);
    }
    for (size_t i = 0; i < n;) {
      const int32_t pos_r = sorted[i].pos_r;
      const int64_t row_r = cell_r.rows[pos_r];
      if (++stamp_ == 0) {  // Stamp wraparound: invalidate everything.
        std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0u);
        stamp_ = 1;
      }
      for (; i < n && sorted[i].pos_r == pos_r; ++i) {
        const int32_t pos_t = sorted[i].pos_t;
        if (seen_stamp_[pos_t] == stamp_) {
          out[seen_at_[pos_t]].slot_mask |= sorted[i].slot_bit;
          continue;
        }
        seen_stamp_[pos_t] = stamp_;
        seen_at_[pos_t] = out.size();
        out.push_back(
            JoinMatch{row_r, cell_t.rows[pos_t], sorted[i].slot_bit});
      }
    }
  }
  stats.join_results += static_cast<int64_t>(out.size() - before);
}

const CellJoinKernel::CellPair* CellJoinKernel::SortPairsByR(size_t n,
                                                             int64_t rows_r) {
  int bits = 0;
  while ((int64_t{1} << bits) < rows_r) ++bits;
  if (n < 2 || bits == 0) return pairs_.data();
  constexpr int kMaxDigitBits = 11;
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (bits + passes - 1) / passes;
  const uint32_t buckets = uint32_t{1} << digit_bits;
  if (radix_counts_.size() < buckets) radix_counts_.resize(buckets);
  uint32_t* const counts = radix_counts_.data();
  CellPair* src = pairs_.data();
  CellPair* dst = sorted_.data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * digit_bits;
    std::fill(counts, counts + buckets, 0u);
    for (size_t i = 0; i < n; ++i) {
      ++counts[(static_cast<uint32_t>(src[i].pos_r) >> shift) & (buckets - 1)];
    }
    uint32_t next = 0;
    for (uint32_t b = 0; b < buckets; ++b) {
      const uint32_t count = counts[b];
      counts[b] = next;
      next += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[counts[(static_cast<uint32_t>(src[i].pos_r) >> shift) &
                 (buckets - 1)]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace caqe
