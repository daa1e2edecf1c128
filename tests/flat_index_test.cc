// Differential tests for the flat CSR join index against the legacy
// unordered_map layout, and for the bounded index cache's deterministic
// eviction. The compact layout is a pure layout change: every match
// sequence, probe count, and uncharged-key set must be identical to the
// map-based path at any cache capacity.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
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

/// The legacy index layout, rebuilt independently of the kernel: key ->
/// matching rows in cell-row order.
std::unordered_map<int32_t, std::vector<int64_t>> ReferenceIndex(
    const Table& t, const std::vector<int64_t>& rows, int key_column) {
  std::unordered_map<int32_t, std::vector<int64_t>> index;
  for (int64_t row : rows) {
    index[t.key(row, key_column)].push_back(row);
  }
  return index;
}

TEST(FlatKeyIndexTest, MatchesMapOnRandomizedWorkloads) {
  for (const uint64_t seed : {3u, 17u, 91u}) {
    for (const int64_t rows : {int64_t{1}, int64_t{37}, int64_t{400}}) {
      auto [r, t] = MakeTables(Distribution::kIndependent, rows, 2, 0.1, seed);
      // A randomized subset in shuffled order — cell row lists are not
      // generally sorted, and the index must preserve their order.
      Rng rng(seed * 7 + 1);
      std::vector<int64_t> subset;
      for (int64_t i = 0; i < t.num_rows(); ++i) {
        if (rng.Bernoulli(0.7)) subset.push_back(i);
      }
      for (size_t i = subset.size(); i > 1; --i) {
        std::swap(subset[i - 1],
                  subset[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
      }

      FlatKeyIndex flat;
      flat.Build(t, subset, /*key_column=*/0);
      const auto reference = ReferenceIndex(t, subset, /*key_column=*/0);

      EXPECT_EQ(flat.num_keys(), static_cast<int64_t>(reference.size()));
      EXPECT_EQ(flat.num_ids(), static_cast<int64_t>(subset.size()));
      // Every reference key's run must reproduce the map's vector exactly,
      // including order (the probe loop iterates runs in sequence).
      for (const auto& [key, ids] : reference) {
        const FlatKeyIndex::Run run = flat.Find(key);
        ASSERT_EQ(run.size, static_cast<int64_t>(ids.size())) << "key " << key;
        for (int64_t i = 0; i < run.size; ++i) {
          EXPECT_EQ(run.data[i], ids[static_cast<size_t>(i)]);
        }
      }
      // Probing absent keys (including ones colliding into occupied slots)
      // returns empty runs.
      for (int32_t key = -5; key < 5; ++key) {
        if (reference.count(key) == 0) {
          EXPECT_TRUE(flat.Find(key).empty());
        }
      }
    }
  }
}

TEST(FlatKeyIndexTest, EmptyAndReleased) {
  FlatKeyIndex index;
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Find(42).empty());
  auto [r, t] = MakeTables(Distribution::kIndependent, 50, 2, 0.2, 5);
  std::vector<int64_t> all;
  for (int64_t i = 0; i < t.num_rows(); ++i) all.push_back(i);
  index.Build(t, all, 0);
  EXPECT_FALSE(index.empty());
  index.Release();
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.Find(t.key(0, 0)).empty());
}

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
                       const std::vector<JoinMatch>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].row_r, b[i].row_r);
    EXPECT_EQ(a[i].row_t, b[i].row_t);
    EXPECT_EQ(a[i].slot_mask, b[i].slot_mask);
  }
}

TEST(CompactLayoutDifferentialTest, JoinIdenticalToMapLayout) {
  for (const uint64_t seed : {11u, 29u}) {
    auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.08, seed);
    const Workload workload =
        MakeSubspaceWorkload(3, 0, 2, PriorityPolicy::kUniform).value();
    const PartitionedTable pr = PartitionTable(r, 2).value();
    const PartitionedTable pt = PartitionTable(t, 2).value();
    const RegionCollection rc = BuildRegions(pr, pt, workload).value();

    CellJoinKernel flat_kernel(&pr, &pt);
    flat_kernel.set_compact_layout(true);
    CellJoinKernel map_kernel(&pr, &pt);
    map_kernel.set_compact_layout(false);

    const auto [flat_matches, flat_stats] = JoinAll(flat_kernel, rc);
    const auto [map_matches, map_stats] = JoinAll(map_kernel, rc);
    ExpectSameMatches(flat_matches, map_matches);
    EXPECT_EQ(flat_stats.join_probes, map_stats.join_probes);
    EXPECT_EQ(flat_stats.join_results, map_stats.join_results);
  }
}

TEST(BoundedIndexCacheTest, EvictionIsDeterministicAndChargeSafe) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.08, 41);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 2, PriorityPolicy::kUniform).value();
  const PartitionedTable pr = PartitionTable(r, 3).value();
  const PartitionedTable pt = PartitionTable(t, 3).value();
  const RegionCollection rc = BuildRegions(pr, pt, workload).value();

  // Unbounded reference.
  CellJoinKernel unbounded(&pr, &pt);
  unbounded.set_cache_capacity(0);
  const auto [ref_matches, ref_stats] = JoinAll(unbounded, rc);
  EXPECT_EQ(unbounded.cache_evictions(), 0);

  // A capacity of 1 forces an eviction after (nearly) every join; the
  // `charged` flag survives, so probe accounting must not change even
  // though indexes are rebuilt.
  CellJoinKernel tiny(&pr, &pt);
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
  tiny2.set_cache_capacity(1);
  const auto [m2, s2] = JoinAll(tiny2, rc);
  EXPECT_EQ(tiny2.cache_evictions(), tiny.cache_evictions());
  EXPECT_EQ(tiny2.index_builds(), tiny.index_builds());
  EXPECT_EQ(s2.join_probes, tiny_stats.join_probes);
}

}  // namespace
}  // namespace caqe
