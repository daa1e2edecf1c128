// Differential tests for the compact layout's key-match join against the
// map-layout reference index, and for the map layout's bounded index
// cache. The two layouts must agree on every match sequence, slot mask,
// probe count and result count, and the cache on every charge at any
// capacity.
#include <gtest/gtest.h>

#include <bitset>
#include <cstdint>
#include <limits>
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

/// Runs every region's join through `kernel` and returns (matches, stats).
std::pair<std::vector<JoinMatch>, EngineStats> JoinAll(
    CellJoinKernel& kernel, const RegionCollection& rc) {
  std::vector<JoinMatch> all;
  EngineStats stats;
  for (const OutputRegion& region : rc.regions) {
    std::vector<JoinMatch> matches;
    kernel.Join(rc, region, /*slots_mask=*/1, matches, stats);
    all.insert(all.end(), matches.begin(), matches.end());
  }
  return {std::move(all), stats};
}

void ExpectSameMatches(const std::vector<JoinMatch>& a,
                       const std::vector<JoinMatch>& b,
                       const std::string& label = "") {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row_r, b[i].row_r) << label << " match " << i;
    EXPECT_EQ(a[i].row_t, b[i].row_t) << label << " match " << i;
    EXPECT_EQ(a[i].slot_mask, b[i].slot_mask) << label << " match " << i;
  }
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

TEST(CompactLayoutDifferentialTest, JoinIdenticalToMapLayout) {
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
      const PartitionedTable pr = quad_tree
                                      ? PartitionTableQuadTree(r, 24).value()
                                      : PartitionTable(r, 4).value();
      const PartitionedTable pt = quad_tree
                                      ? PartitionTableQuadTree(t, 24).value()
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

      CellJoinKernel compact(&pr, &pt);
      CellJoinKernel map(&pr, &pt);
      map.set_compact_layout(false);
      EngineStats compact_stats;
      EngineStats map_stats;
      int64_t multi_slot = 0;
      for (const OutputRegion& region : rc.regions) {
        // Every non-empty subset of the slots, so pairs matching on two or
        // three slots must fold their bits into one match.
        for (uint32_t mask = 1; mask < 8; ++mask) {
          std::vector<JoinMatch> compact_matches;
          std::vector<JoinMatch> map_matches;
          compact.Join(rc, region, mask, compact_matches, compact_stats);
          map.Join(rc, region, mask, map_matches, map_stats);
          ExpectSameMatches(compact_matches, map_matches,
                            label + " region " + std::to_string(region.id) +
                                " mask " + std::to_string(mask));
          for (const JoinMatch& m : compact_matches) {
            multi_slot += std::bitset<32>(m.slot_mask).count() > 1;
          }
        }
      }
      EXPECT_EQ(compact_stats.join_probes, map_stats.join_probes) << label;
      EXPECT_EQ(compact_stats.join_results, map_stats.join_results) << label;
      EXPECT_GT(compact_stats.join_results, 0) << label;
      EXPECT_GT(multi_slot, 0) << label;
    }
  }
}

TEST(BoundedIndexCacheTest, EvictionIsDeterministicAndChargeSafe) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.08, 41);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 2, PriorityPolicy::kUniform).value();
  const PartitionedTable pr = PartitionTable(r, 3).value();
  const PartitionedTable pt = PartitionTable(t, 3).value();
  const RegionCollection rc = BuildRegions(pr, pt, workload).value();

  // The cache serves only the map layout. Unbounded reference.
  CellJoinKernel unbounded(&pr, &pt);
  unbounded.set_compact_layout(false);
  unbounded.set_cache_capacity(0);
  const auto [ref_matches, ref_stats] = JoinAll(unbounded, rc);
  EXPECT_EQ(unbounded.cache_evictions(), 0);

  // A capacity of 1 forces an eviction after (nearly) every join; the
  // charge state survives, so probe accounting must not change even
  // though indexes are rebuilt.
  CellJoinKernel tiny(&pr, &pt);
  tiny.set_compact_layout(false);
  tiny.set_cache_capacity(1);
  const auto [tiny_matches, tiny_stats] = JoinAll(tiny, rc);
  ExpectSameMatches(ref_matches, tiny_matches);
  EXPECT_EQ(ref_stats.join_probes, tiny_stats.join_probes);
  EXPECT_EQ(ref_stats.join_results, tiny_stats.join_results);
  EXPECT_GT(tiny.cache_evictions(), 0);
  // Rebuilds happened (more builds than the unbounded run's distinct
  // indexes), yet nothing was re-charged.
  EXPECT_GT(tiny.index_builds(), unbounded.index_builds());

  // Eviction order is a pure function of the join sequence: a second
  // identical run evicts exactly as often.
  CellJoinKernel tiny2(&pr, &pt);
  tiny2.set_compact_layout(false);
  tiny2.set_cache_capacity(1);
  const auto [m2, s2] = JoinAll(tiny2, rc);
  EXPECT_EQ(tiny2.cache_evictions(), tiny.cache_evictions());
  EXPECT_EQ(tiny2.index_builds(), tiny.index_builds());
  EXPECT_EQ(s2.join_probes, tiny_stats.join_probes);

  // The compact layout keeps no index, so it never builds or evicts.
  CellJoinKernel compact(&pr, &pt);
  compact.set_cache_capacity(1);
  const auto [compact_matches, compact_stats] = JoinAll(compact, rc);
  ExpectSameMatches(ref_matches, compact_matches);
  EXPECT_EQ(compact_stats.join_probes, ref_stats.join_probes);
  EXPECT_EQ(compact.index_builds(), 0);
  EXPECT_EQ(compact.cache_evictions(), 0);
}

}  // namespace
}  // namespace caqe
