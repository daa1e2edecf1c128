// Differential tests for the key-match join (CellJoinKernel) against an
// in-test nested-loop reference: on every region and every non-empty slot
// subset, the kernel must emit the reference's match sequence and slot
// masks and charge its probe and result counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "exec/join_kernel.h"
#include "partition/partitioner.h"
#include "query/workload_generator.h"
#include "region/region_builder.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::MakeTables;

/// The join by definition: a nested loop over the region's two cells.
/// Order: R rows in cell order; for each R row, its T rows slot by slot, in
/// cell order within a slot; a pair matching several slots appears once, at
/// its first slot, with the bits OR-ed together. Charges: |T cell| probes
/// at a (T cell, key column)'s first use, |R cell| probes per slot in the
/// mask, and one result per match.
class NestedLoopJoin {
 public:
  NestedLoopJoin(const PartitionedTable* part_r,
                 const PartitionedTable* part_t)
      : part_r_(part_r), part_t_(part_t) {}

  void Join(const RegionCollection& rc, const OutputRegion& region,
            uint32_t slots_mask, std::vector<JoinMatch>& out,
            EngineStats& stats) {
    const LeafCell& cell_r = part_r_->cell(region.cell_r);
    const LeafCell& cell_t = part_t_->cell(region.cell_t);
    const Table& r = part_r_->table();
    const Table& t = part_t_->table();
    const int num_slots = static_cast<int>(rc.predicate_slots.size());
    for (int s = 0; s < num_slots; ++s) {
      if (((slots_mask >> s) & 1) == 0) continue;
      if (charged_.emplace(region.cell_t, rc.predicate_slots[s]).second) {
        stats.join_probes += static_cast<int64_t>(cell_t.rows.size());
      }
      stats.join_probes += static_cast<int64_t>(cell_r.rows.size());
    }
    for (const int64_t row_r : cell_r.rows) {
      const size_t row_begin = out.size();
      for (int s = 0; s < num_slots; ++s) {
        if (((slots_mask >> s) & 1) == 0) continue;
        const int key = rc.predicate_slots[s];
        for (const int64_t row_t : cell_t.rows) {
          if (r.key(row_r, key) != t.key(row_t, key)) continue;
          const auto seen =
              std::find_if(out.begin() + static_cast<ptrdiff_t>(row_begin),
                           out.end(), [row_t](const JoinMatch& m) {
                             return m.row_t == row_t;
                           });
          if (seen != out.end()) {
            seen->slot_mask |= uint32_t{1} << s;
          } else {
            out.push_back(JoinMatch{row_r, row_t, uint32_t{1} << s});
            ++stats.join_results;
          }
        }
      }
    }
  }

 private:
  const PartitionedTable* part_r_;
  const PartitionedTable* part_t_;
  std::set<std::pair<int, int>> charged_;
};

void ExpectSameMatches(const std::vector<JoinMatch>& a,
                       const std::vector<JoinMatch>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row_r, b[i].row_r) << label << " match " << i;
    EXPECT_EQ(a[i].row_t, b[i].row_t) << label << " match " << i;
    EXPECT_EQ(a[i].slot_mask, b[i].slot_mask) << label << " match " << i;
  }
}

/// Joins every region over every non-empty subset of its slots with the
/// kernel and the reference, one kernel and one reference for the whole
/// sweep (so first-use charges carry across regions as in the engine), and
/// expects the same matches and the same running charges after each call.
/// Returns the number of matches on more than one slot; the kernel's
/// result total goes to `results`.
int64_t ExpectJoinMatchesReference(const PartitionedTable& pr,
                                   const PartitionedTable& pt,
                                   const RegionCollection& rc,
                                   const std::string& label,
                                   int64_t& results) {
  CellJoinKernel kernel(&pr, &pt);
  NestedLoopJoin reference(&pr, &pt);
  EngineStats kernel_stats;
  EngineStats reference_stats;
  int64_t multi_slot = 0;
  const uint32_t all_slots =
      (uint32_t{1} << rc.predicate_slots.size()) - 1;
  for (const OutputRegion& region : rc.regions) {
    for (uint32_t mask = 1; mask <= all_slots; ++mask) {
      const std::string where = label + " region " +
                                std::to_string(region.id) + " mask " +
                                std::to_string(mask);
      std::vector<JoinMatch> kernel_matches;
      std::vector<JoinMatch> reference_matches;
      kernel.Join(rc, region, mask, kernel_matches, kernel_stats);
      reference.Join(rc, region, mask, reference_matches, reference_stats);
      ExpectSameMatches(kernel_matches, reference_matches, where);
      EXPECT_EQ(kernel_stats.join_probes, reference_stats.join_probes)
          << where;
      EXPECT_EQ(kernel_stats.join_results, reference_stats.join_results)
          << where;
      for (const JoinMatch& m : kernel_matches) {
        multi_slot += std::bitset<32>(m.slot_mask).count() > 1;
      }
    }
  }
  results = kernel_stats.join_results;
  return multi_slot;
}

/// A two-attribute table with three duplicate-heavy key columns: column j
/// draws from the first 3 + 2j values of a pool holding INT32_MIN,
/// INT32_MAX and negatives, so key runs are longer than one on both sides.
/// Row 0 sits apart from the rest, so a 4x4 grid gives it a cell of its
/// own.
Table KeyHeavyTable(const std::string& name, int64_t rows, uint64_t seed) {
  static constexpr int32_t kPool[] = {
      std::numeric_limits<int32_t>::min(), std::numeric_limits<int32_t>::max(),
      -7, 0, std::numeric_limits<int32_t>::min() + 1, 3, -1000000};
  Rng rng(seed);
  Table table(name, 2, 3);
  for (int64_t i = 0; i < rows; ++i) {
    const std::vector<double> attrs =
        i == 0 ? std::vector<double>{20.0, 20.0}
               : std::vector<double>{rng.Uniform(0.0, 10.0),
                                     rng.Uniform(0.0, 10.0)};
    std::vector<int32_t> keys(3);
    for (int j = 0; j < 3; ++j) {
      keys[j] = kPool[rng.UniformInt(0, 2 + 2 * j)];
    }
    table.AppendRow(attrs, keys);
  }
  return table;
}

TEST(KeyMatchJoinTest, MatchesNestedLoopOnEverySlotSubset) {
  // One query per key column, so every region has three predicate slots.
  Workload workload;
  workload.AddOutputDim({0, 0, 1.0, 1.0});
  workload.AddOutputDim({1, 1, 1.0, 1.0});
  for (int key = 0; key < 3; ++key) {
    workload.AddQuery({"Q" + std::to_string(key), key, {0, 1}, 1.0, {}});
  }
  for (const uint64_t seed : {11u, 29u}) {
    const Table r = KeyHeavyTable("R", 160, seed);
    const Table t = KeyHeavyTable("T", 140, seed + 1);
    for (const bool quad_tree : {false, true}) {
      const std::string label = std::string(quad_tree ? "quad" : "grid") +
                                " seed " + std::to_string(seed);
      const PartitionedTable pr =
          quad_tree ? PartitionTableQuadTreeTarget(r, 8).value()
                    : PartitionTable(r, 4).value();
      const PartitionedTable pt =
          quad_tree ? PartitionTableQuadTreeTarget(t, 8).value()
                    : PartitionTable(t, 4).value();
      if (!quad_tree) {
        // The lone row 0 gives each side a one-row cell.
        const auto has_single = [](const PartitionedTable& p) {
          for (const LeafCell& cell : p.cells()) {
            if (cell.rows.size() == 1) return true;
          }
          return false;
        };
        ASSERT_TRUE(has_single(pr)) << label;
        ASSERT_TRUE(has_single(pt)) << label;
      }
      const RegionCollection rc = BuildRegions(pr, pt, workload).value();
      ASSERT_EQ(rc.predicate_slots.size(), 3u);
      int64_t results = 0;
      // Pairs matching on two or three slots must fold their bits into one
      // match, so the sweep must meet some.
      EXPECT_GT(ExpectJoinMatchesReference(pr, pt, rc, label, results), 0)
          << label;
      EXPECT_GT(results, 0) << label;
    }
  }
  // A generated workload on a 3x3 grid.
  auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.08, 41);
  const Workload generated =
      MakeSubspaceWorkload(3, 0, 2, PriorityPolicy::kUniform).value();
  const PartitionedTable pr = PartitionTable(r, 3).value();
  const PartitionedTable pt = PartitionTable(t, 3).value();
  const RegionCollection rc = BuildRegions(pr, pt, generated).value();
  int64_t results = 0;
  ExpectJoinMatchesReference(pr, pt, rc, "generated", results);
  EXPECT_GT(results, 0);
}

}  // namespace
}  // namespace caqe
