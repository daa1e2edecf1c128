// Concurrency stress suite for the sharded emission park set.
//
// Three EmissionManager replicas over one shared frozen world (workload,
// regions, tuple store under sparse ids, pending flags) are driven through
// identical randomized adversarial schedules — region flushes, evictions,
// lineage prunes, query retirements and re-grafts — and must agree byte for
// byte:
//
//   * `pooled`  flushes every region barrier through a real ThreadPool,
//   * `serial`  flushes with pool == nullptr (the reference q-order sweep),
//   * `legacy`  never calls FlushRegion at all: it replays the pre-sharding
//     serial sequence (OnRegionResolved over all queries, then per-query
//     OnAccepted) that FlushRegion documents itself as equivalent to.
//
// After every step the resolved/direct outputs, per-query park counts, and
// coarse-op totals of all three must match exactly; at the end a full
// drain must too. The pooled replica mutates its shards concurrently, so
// scripts/run_tsan.sh (which runs the whole ctest suite in build-tsan)
// doubles as the data-race gate for the lock-free parallel flush.
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
#include "common/thread_pool.h"
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

/// The frozen shared inputs of one stress run. Everything the managers
/// read concurrently during a flush lives here and is mutated only between
/// barriers (pending flags, lineage prunes) — the same freeze discipline
/// the engine's emission phase guarantees.
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

void RunStressSchedule(uint64_t seed, int num_queries, int num_regions,
                       int pool_threads) {
  StressWorld world = MakeWorld(seed, num_queries, num_regions);
  EmissionManager pooled(&world.workload, &world.rc, world.store.get(),
                         &world.pending);
  EmissionManager serial(&world.workload, &world.rc, world.store.get(),
                         &world.pending);
  EmissionManager legacy(&world.workload, &world.rc, world.store.get(),
                         &world.pending);
  ThreadPool pool(pool_threads);

  std::mt19937_64 rng(seed * 7919 + 13);
  std::vector<int> order(num_regions);
  for (int i = 0; i < num_regions; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);

  // (q, id) pairs accepted and not yet killed — the eviction pool.
  std::vector<std::pair<int, int64_t>> live;

  std::vector<std::vector<int64_t>> resolved_pooled, direct_pooled;
  std::vector<std::vector<int64_t>> resolved_serial, direct_serial;
  for (int step = 0; step < num_regions; ++step) {
    const int rid = order[step];
    const std::string where = "seed=" + std::to_string(seed) +
                              " step=" + std::to_string(step) +
                              " region=" + std::to_string(rid);

    // Adversarial interleavings between barriers: evictions, lineage
    // prunes, retirements, re-grafts — each applied identically to all
    // three replicas through the serial entry points.
    if (!live.empty() && rng() % 5 == 0) {
      const auto [q, id] = live[rng() % live.size()];
      pooled.OnEvicted(q, id);
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
        std::vector<std::pair<int, int64_t>> out_pooled, out_serial,
            out_legacy;
        pooled.OnRegionResolvedForQuery(target, victim, out_pooled);
        serial.OnRegionResolvedForQuery(target, victim, out_serial);
        legacy.OnRegionResolvedForQuery(target, victim, out_legacy);
        EXPECT_EQ(out_pooled, out_serial) << where;
        EXPECT_EQ(out_pooled, out_legacy) << where;
      }
    }
    if (rng() % 10 == 0) {
      const int q = static_cast<int>(rng() % num_queries);
      std::vector<int64_t> f_pooled, f_serial, f_legacy;
      pooled.RetireQuery(q, &f_pooled);
      serial.RetireQuery(q, &f_serial);
      legacy.RetireQuery(q, &f_legacy);
      EXPECT_EQ(f_pooled, f_serial) << where;
      EXPECT_EQ(f_pooled, f_legacy) << where;
      if (rng() % 2 == 0) {
        // Serving re-graft: the query rejoins with a fresh shard.
        pooled.AddQuery(q);
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

    // The barrier: region rid is processed. All replicas observe the
    // pending flip; only `pooled` flushes concurrently.
    world.pending[rid] = 0;
    pooled.FlushRegion(rid, accepted, dead, &pool, resolved_pooled,
                       direct_pooled);
    serial.FlushRegion(rid, accepted, dead, /*pool=*/nullptr, resolved_serial,
                       direct_serial);
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
      EXPECT_EQ(resolved_pooled[q], resolved_serial[q]) << where << " q=" << q;
      EXPECT_EQ(direct_pooled[q], direct_serial[q]) << where << " q=" << q;
      EXPECT_EQ(resolved_pooled[q], resolved_legacy[q]) << where << " q=" << q;
      EXPECT_EQ(direct_pooled[q], direct_legacy[q]) << where << " q=" << q;
    }
    ExpectManagersAgree(pooled, serial, num_queries, where + " pooled/serial");
    ExpectManagersAgree(pooled, legacy, num_queries, where + " pooled/legacy");
  }

  // Whatever is still parked must drain identically (order within the
  // drain is hash-map dependent, so compare as sorted multisets).
  std::vector<std::pair<int, int64_t>> drain_pooled, drain_serial,
      drain_legacy;
  pooled.DrainAll(drain_pooled);
  serial.DrainAll(drain_serial);
  legacy.DrainAll(drain_legacy);
  std::sort(drain_pooled.begin(), drain_pooled.end());
  std::sort(drain_serial.begin(), drain_serial.end());
  std::sort(drain_legacy.begin(), drain_legacy.end());
  EXPECT_EQ(drain_pooled, drain_serial);
  EXPECT_EQ(drain_pooled, drain_legacy);
}

TEST(EmissionStressTest, RandomizedSchedulesAgreeAcrossReplicas) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    RunStressSchedule(seed, /*num_queries=*/2 + static_cast<int>(seed % 9),
                      /*num_regions=*/24, /*pool_threads=*/7);
  }
}

TEST(EmissionStressTest, WideWorkloadHeavyFlush) {
  // Many shards and a large park population: every flush barrier fans 32
  // shards across 8 workers. This is the cell the TSan build leans on.
  RunStressSchedule(/*seed=*/77, /*num_queries=*/32, /*num_regions=*/48,
                    /*pool_threads=*/8);
}

TEST(EmissionStressTest, SingleQueryDegeneratesToSerial) {
  // One shard: the parallel flush has nothing to fan out and must still
  // match byte for byte.
  RunStressSchedule(/*seed=*/5150, /*num_queries=*/1, /*num_regions=*/16,
                    /*pool_threads=*/4);
}

}  // namespace
}  // namespace caqe
