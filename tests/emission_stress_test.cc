// Stress suite for the per-query emission park set.
//
// Two EmissionManager replicas over one shared world (workload, regions,
// tuple store under sparse ids, pending flags) are driven through identical
// randomized adversarial schedules — region flushes, evictions, lineage
// prunes, query retirements and re-grafts — and must agree byte for byte:
//
//   * `serial`  flushes every region barrier with FlushRegion (the q-order
//     sweep),
//   * `legacy`  never calls FlushRegion at all: it replays the sequence
//     (OnRegionResolved over all queries, then per-query OnAccepted) that
//     FlushRegion documents itself as equivalent to.
//
// After every step the resolved/direct outputs, per-query park counts, and
// coarse-op totals of both must match exactly; at the end a full drain must
// too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/query_set.h"
#include "exec/emission.h"
#include "query/query.h"
#include "region/region.h"
#include "region/region_builder.h"
#include "skyline/point_set.h"

namespace caqe {
namespace {

double UnitUniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * (1.0 / 9007199254740992.0);
}

/// The shared inputs of one stress run. Everything the managers read
/// during a flush lives here and is mutated only between barriers (pending
/// flags, lineage prunes), as in the engine's emission phase.
struct StressWorld {
  Workload workload;
  RegionCollection rc;
  std::unique_ptr<TupleStore> store;
  /// Id of the next sampled tuple. Ids are sparse, like the engine's (its
  /// ids skip every join match no query accepted), so every witness scan
  /// reads through the store's id lookup.
  int64_t next_id = 2;
  std::vector<char> pending;
  int num_queries = 0;
  int dims = 0;
};

StressWorld MakeWorld(uint64_t seed, int num_queries, int num_regions) {
  std::mt19937_64 rng(seed);
  StressWorld world;
  world.num_queries = num_queries;
  world.dims = 1 + static_cast<int>(rng() % 3);
  for (int d = 0; d < world.dims; ++d) {
    world.workload.AddOutputDim({0, 0, 1.0, 1.0});
  }
  for (int q = 0; q < num_queries; ++q) {
    std::vector<int> pref;
    for (int d = 0; d < world.dims; ++d) {
      if (rng() % 2 == 0) pref.push_back(d);
    }
    if (pref.empty()) pref.push_back(static_cast<int>(rng() % world.dims));
    // Two-step name build dodges a GCC 12 -Wrestrict false positive
    // (PR105651) in operator+(const char*, std::string&&).
    std::string name = "Q";
    name += std::to_string(q);
    world.workload.AddQuery({name, 0, pref, 1.0});
  }

  world.rc.predicate_slots = {0};
  world.rc.slot_of_query.assign(num_queries, 0);
  world.rc.queries_of_slot = {QuerySet::AllOf(num_queries)};
  world.rc.total_join_sizes = {2 * num_regions};
  for (int i = 0; i < num_regions; ++i) {
    OutputRegion region;
    region.id = i;
    for (int d = 0; d < world.dims; ++d) {
      const double lo = 10.0 * UnitUniform(rng);
      region.lower.push_back(lo);
      region.upper.push_back(lo + 0.5 + 2.5 * UnitUniform(rng));
    }
    for (int q = 0; q < num_queries; ++q) {
      if (rng() % 5 < 2) region.rql.Add(q);
    }
    if (region.rql.empty()) {
      region.rql.Add(static_cast<int>(rng() % num_queries));
    }
    region.join_sizes = {2};
    world.rc.regions.push_back(std::move(region));
  }
  world.store = std::make_unique<TupleStore>(world.dims);
  world.pending.assign(num_regions, 1);
  return world;
}

/// A candidate tuple sampled for one region: mostly inside or near the
/// region's box (likely to park under some still-pending neighbor),
/// sometimes globally dominant (immediately safe everywhere).
int64_t SamplePoint(StressWorld& world, const OutputRegion& region,
                    std::mt19937_64& rng) {
  std::vector<double> values(world.dims);
  if (rng() % 4 == 0) {
    for (int d = 0; d < world.dims; ++d) values[d] = -100.0;
  } else {
    for (int d = 0; d < world.dims; ++d) {
      const double span = region.upper[d] - region.lower[d];
      values[d] = region.lower[d] + (UnitUniform(rng) * 3.0 - 1.0) * span;
    }
  }
  // The gap cycles through 1..4 without drawing from the schedule's rng.
  const int64_t id = world.next_id;
  world.next_id += 1 + world.store->size() % 4;
  world.store->Append(id, values.data());
  return id;
}

/// Groups OnRegionResolved's (q, id) pairs into per-query sequences, the
/// shape FlushRegion reports. Pair order within a query is preserved.
std::vector<std::vector<int64_t>> GroupByQuery(
    const std::vector<std::pair<int, int64_t>>& pairs, int num_queries) {
  std::vector<std::vector<int64_t>> grouped(num_queries);
  for (const auto& [q, id] : pairs) grouped[q].push_back(id);
  return grouped;
}

void ExpectManagersAgree(EmissionManager& a, EmissionManager& b,
                         int num_queries, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.coarse_ops(), b.coarse_ops());
  for (int q = 0; q < num_queries; ++q) {
    EXPECT_EQ(a.parked(q), b.parked(q)) << "query " << q;
  }
}

void RunStressSchedule(uint64_t seed, int num_queries, int num_regions) {
  StressWorld world = MakeWorld(seed, num_queries, num_regions);
  EmissionManager serial(&world.workload, &world.rc, world.store.get(),
                         &world.pending);
  EmissionManager legacy(&world.workload, &world.rc, world.store.get(),
                         &world.pending);

  std::mt19937_64 rng(seed * 7919 + 13);
  std::vector<int> order(num_regions);
  for (int i = 0; i < num_regions; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  // (q, id) pairs accepted and not yet killed — the eviction pool.
  std::vector<std::pair<int, int64_t>> live;

  std::vector<std::vector<int64_t>> resolved_serial, direct_serial;
  for (int step = 0; step < num_regions; ++step) {
    const int rid = order[step];
    const std::string where = "seed=" + std::to_string(seed) +
                              " step=" + std::to_string(step) +
                              " region=" + std::to_string(rid);

    // Adversarial interleavings between barriers: evictions, lineage
    // prunes, retirements, re-grafts — each applied identically to both
    // replicas.
    if (!live.empty() && rng() % 5 == 0) {
      const auto [q, id] = live[rng() % live.size()];
      serial.OnEvicted(q, id);
      legacy.OnEvicted(q, id);
    }
    if (rng() % 7 == 0) {
      // Prune a query from a still-pending region's lineage (coarse
      // skyline discarding does this), then resolve the pair.
      const int target = static_cast<int>(rng() % num_regions);
      OutputRegion& region = world.rc.regions[target];
      if (world.pending[target] && region.rql.size() >= 2) {
        int victim = -1;
        region.rql.ForEach([&](int q) {
          if (victim < 0 || rng() % 2 == 0) victim = q;
        });
        region.rql.Remove(victim);
        std::vector<std::pair<int, int64_t>> out_serial, out_legacy;
        serial.OnRegionResolvedForQuery(target, victim, out_serial);
        legacy.OnRegionResolvedForQuery(target, victim, out_legacy);
        EXPECT_EQ(out_serial, out_legacy) << where;
      }
    }
    if (rng() % 10 == 0) {
      const int q = static_cast<int>(rng() % num_queries);
      std::vector<int64_t> f_serial, f_legacy;
      serial.RetireQuery(q, &f_serial);
      legacy.RetireQuery(q, &f_legacy);
      EXPECT_EQ(f_serial, f_legacy) << where;
      if (rng() % 2 == 0) {
        // Serving re-graft: the query rejoins with a fresh shard.
        serial.AddQuery(q);
        legacy.AddQuery(q);
      }
    }

    // Tuples accepted into skylines during this region's processing, with
    // a sprinkle of same-phase evictions (the `dead` sets).
    std::vector<std::vector<int64_t>> accepted(num_queries);
    std::vector<std::vector<int64_t>> dead(num_queries);
    world.rc.regions[rid].rql.ForEach([&](int q) {
      const int count = static_cast<int>(rng() % 4);
      for (int i = 0; i < count; ++i) {
        const int64_t id = SamplePoint(world, world.rc.regions[rid], rng);
        accepted[q].push_back(id);
        if (rng() % 5 == 0) {
          dead[q].push_back(id);
        } else {
          live.emplace_back(q, id);
        }
      }
    });
    // FlushRegion's dead sets are sorted vectors (binary-search lookup).
    for (int q = 0; q < num_queries; ++q) {
      std::sort(dead[q].begin(), dead[q].end());
    }

    // The barrier: region rid is processed. Both replicas observe the
    // pending flip.
    world.pending[rid] = 0;
    serial.FlushRegion(rid, accepted, dead, resolved_serial, direct_serial);
    std::vector<std::pair<int, int64_t>> legacy_pairs;
    legacy.OnRegionResolved(rid, legacy_pairs);
    const std::vector<std::vector<int64_t>> resolved_legacy =
        GroupByQuery(legacy_pairs, num_queries);
    std::vector<std::vector<int64_t>> direct_legacy(num_queries);
    for (int q = 0; q < num_queries; ++q) {
      for (int64_t id : accepted[q]) {
        if (std::binary_search(dead[q].begin(), dead[q].end(), id)) continue;
        legacy.OnAccepted(q, id, direct_legacy[q]);
      }
    }

    for (int q = 0; q < num_queries; ++q) {
      EXPECT_EQ(resolved_serial[q], resolved_legacy[q]) << where << " q=" << q;
      EXPECT_EQ(direct_serial[q], direct_legacy[q]) << where << " q=" << q;
    }
    ExpectManagersAgree(serial, legacy, num_queries, where + " serial/legacy");
  }

  // Whatever is still parked must drain identically (order within the
  // drain is hash-map dependent, so compare as sorted multisets).
  std::vector<std::pair<int, int64_t>> drain_serial, drain_legacy;
  serial.DrainAll(drain_serial);
  legacy.DrainAll(drain_legacy);
  std::sort(drain_serial.begin(), drain_serial.end());
  std::sort(drain_legacy.begin(), drain_legacy.end());
  EXPECT_EQ(drain_serial, drain_legacy);
}

TEST(EmissionStressTest, RandomizedSchedulesAgreeAcrossReplicas) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RunStressSchedule(seed, /*num_queries=*/2 + static_cast<int>(seed % 9),
                      /*num_regions=*/24);
  }
}

TEST(EmissionStressTest, WideWorkloadHeavyFlush) {
  // Many queries and a large park population: every flush barrier sweeps
  // 32 shards.
  RunStressSchedule(/*seed=*/77, /*num_queries=*/32, /*num_regions=*/48);
}

TEST(EmissionStressTest, SingleQueryDegeneratesToSerial) {
  // One shard: the flush is a single query's resolution and must still
  // match byte for byte.
  RunStressSchedule(/*seed=*/5150, /*num_queries=*/1, /*num_regions=*/16);
}

}  // namespace
}  // namespace caqe
