// Unit and property tests for MQLA: output regions, region dominance
// (Def. 8), coarse skyline pruning, and the dependency graph (Def. 9).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "data/generator.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "query/workload_generator.h"
#include "region/dependency_graph.h"
#include "region/region_builder.h"
#include "common/rng.h"
#include "region/region_dominance.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::FullJoinOutput;
using ::caqe::testing::MakeTables;

OutputRegion Box(std::vector<double> lower, std::vector<double> upper) {
  OutputRegion region;
  region.lower = std::move(lower);
  region.upper = std::move(upper);
  return region;
}

TEST(RegionDominanceTest, FullPartialIncomparable) {
  const std::vector<int> dims = {0, 1};
  // a entirely better than b.
  EXPECT_EQ(CompareRegions(Box({0, 0}, {1, 1}), Box({2, 2}, {3, 3}), dims),
            RegionDomResult::kFullyDominates);
  // Overlapping boxes: only partial.
  EXPECT_EQ(CompareRegions(Box({0, 0}, {2, 2}), Box({1, 1}, {3, 3}), dims),
            RegionDomResult::kPartiallyDominates);
  // b better than a in dim 0: incomparable.
  EXPECT_EQ(CompareRegions(Box({5, 0}, {6, 1}), Box({0, 5}, {1, 6}), dims),
            RegionDomResult::kIncomparable);
}

TEST(RegionDominanceTest, TouchingBoundsAreNotFullDominance) {
  const std::vector<int> dims = {0, 1};
  // Upper corner equals lower corner of b: no strict dimension.
  EXPECT_EQ(CompareRegions(Box({0, 0}, {2, 2}), Box({2, 2}, {3, 3}), dims),
            RegionDomResult::kPartiallyDominates);
  // Strict in one dim, touching in the other: full.
  EXPECT_EQ(CompareRegions(Box({0, 0}, {1, 2}), Box({2, 2}, {3, 3}), dims),
            RegionDomResult::kFullyDominates);
}

TEST(RegionDominanceTest, SubspaceSelectsDims) {
  // a beats b on dim 0 but loses on dim 1.
  const OutputRegion a = Box({0, 9}, {1, 10});
  const OutputRegion b = Box({5, 0}, {6, 1});
  EXPECT_EQ(CompareRegions(a, b, {0}), RegionDomResult::kFullyDominates);
  EXPECT_EQ(CompareRegions(a, b, {1}), RegionDomResult::kIncomparable);
  EXPECT_EQ(CompareRegions(a, b, {0, 1}), RegionDomResult::kIncomparable);
}

TEST(RegionDominanceTest, PointTests) {
  const OutputRegion b = Box({5, 5}, {7, 7});
  const std::vector<double> better = {4, 5};
  const std::vector<double> equal = {5, 5};
  const std::vector<double> inside = {6, 6};
  EXPECT_TRUE(PointFullyDominatesRegion(better.data(), b, {0, 1}));
  EXPECT_FALSE(PointFullyDominatesRegion(equal.data(), b, {0, 1}));
  EXPECT_FALSE(PointFullyDominatesRegion(inside.data(), b, {0, 1}));

  EXPECT_TRUE(RegionCanDominatePoint(b, inside.data(), {0, 1}));
  EXPECT_FALSE(RegionCanDominatePoint(b, better.data(), {0, 1}));
  EXPECT_TRUE(RegionCanDominatePoint(b, equal.data(), {0, 1}));
}

TEST(RegionDominanceTest, FullDominanceIsStrictPartialOrder) {
  // Irreflexive, asymmetric, transitive — on random boxes. This is what
  // makes one-pass coarse pruning sound.
  Rng rng(17);
  const std::vector<int> dims = {0, 1, 2};
  auto random_box = [&]() {
    OutputRegion region;
    region.lower.resize(3);
    region.upper.resize(3);
    for (int k = 0; k < 3; ++k) {
      const double a = rng.Uniform(0, 10);
      const double b = rng.Uniform(0, 10);
      region.lower[k] = std::min(a, b);
      region.upper[k] = std::max(a, b);
    }
    return region;
  };
  auto full = [&](const OutputRegion& a, const OutputRegion& b) {
    return CompareRegions(a, b, dims) == RegionDomResult::kFullyDominates;
  };
  for (int trial = 0; trial < 300; ++trial) {
    const OutputRegion a = random_box();
    const OutputRegion b = random_box();
    const OutputRegion c = random_box();
    EXPECT_FALSE(full(a, a));
    if (full(a, b)) {
      EXPECT_FALSE(full(b, a));
      if (full(b, c)) {
        EXPECT_TRUE(full(a, c));
      }
    }
    // Full dominance implies the point-level guarantees used downstream.
    if (full(a, b)) {
      EXPECT_TRUE(PointFullyDominatesRegion(a.upper.data(), b, dims));
      EXPECT_TRUE(RegionCanDominatePoint(a, b.lower.data(), dims));
    }
  }
}

TEST(RegionDominanceTest, PaperExampleSixteen) {
  // Example 16's three output regions (1-indexed d1..d4 -> dims 0..3).
  const OutputRegion r1 = Box({6, 8, 8, 4}, {8, 10, 10, 6});
  const OutputRegion r2 = Box({8, 6, 6, 5}, {10, 8, 8, 7});
  const OutputRegion r3 = Box({7, 5, 4, 1}, {9, 7, 6, 4});
  auto undominated = [&](const OutputRegion& victim,
                         const std::vector<int>& dims) {
    for (const OutputRegion* other : {&r1, &r2, &r3}) {
      if (other == &victim) continue;
      if (CompareRegions(*other, victim, dims) ==
          RegionDomResult::kFullyDominates) {
        return false;
      }
    }
    return true;
  };
  // Level 0: R1 in SKY_{d1}; R3 in SKY_{d2}, SKY_{d3}, SKY_{d4}.
  EXPECT_TRUE(undominated(r1, {0}));
  EXPECT_TRUE(undominated(r3, {1}));
  EXPECT_TRUE(undominated(r3, {2}));
  EXPECT_TRUE(undominated(r3, {3}));
  // Level 1 (end of processing): SKY_{d1,d2} = {R1, R2, R3} and
  // SKY_{d2,d3} = {R2, R3} — R1 is fully dominated there by R3.
  EXPECT_TRUE(undominated(r1, {0, 1}));
  EXPECT_TRUE(undominated(r2, {0, 1}));
  EXPECT_TRUE(undominated(r3, {0, 1}));
  EXPECT_FALSE(undominated(r1, {1, 2}));
  EXPECT_TRUE(undominated(r2, {1, 2}));
  EXPECT_TRUE(undominated(r3, {1, 2}));
  EXPECT_EQ(CompareRegions(r3, r1, {1, 2}),
            RegionDomResult::kFullyDominates);
}

class RegionBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto [r, t] = MakeTables(Distribution::kIndependent, 300, 3, 0.05);
    r_ = std::make_unique<Table>(std::move(r));
    t_ = std::make_unique<Table>(std::move(t));
    workload_ =
        MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
    part_r_ = std::make_unique<PartitionedTable>(
        PartitionTable(*r_, 2).value());
    part_t_ = std::make_unique<PartitionedTable>(
        PartitionTable(*t_, 2).value());
    rc_ = std::make_unique<RegionCollection>(
        BuildRegions(*part_r_, *part_t_, workload_).value());
  }

  std::unique_ptr<Table> r_;
  std::unique_ptr<Table> t_;
  Workload workload_;
  std::unique_ptr<PartitionedTable> part_r_;
  std::unique_ptr<PartitionedTable> part_t_;
  std::unique_ptr<RegionCollection> rc_;
};

TEST_F(RegionBuilderTest, PredicateBookkeeping) {
  EXPECT_EQ(rc_->predicate_slots, (std::vector<int>{0}));
  for (int q = 0; q < workload_.num_queries(); ++q) {
    EXPECT_EQ(rc_->slot_of_query[q], 0);
  }
  EXPECT_EQ(rc_->queries_of_slot[0],
            QuerySet::AllOf(workload_.num_queries()));
}

TEST_F(RegionBuilderTest, JoinSizesSumToTotal) {
  int64_t sum = 0;
  for (const OutputRegion& region : rc_->regions) {
    sum += region.join_size(0);
  }
  EXPECT_EQ(sum, rc_->total_join_sizes[0]);
  // Exact total must match the nested-loop join size.
  const PointSet output = FullJoinOutput(*r_, *t_, workload_, 0);
  EXPECT_EQ(rc_->total_join_sizes[0], output.size());
}

TEST_F(RegionBuilderTest, BoundsContainEveryJoinResult) {
  // Every projected join tuple of a cell pair must fall inside the region
  // box.
  std::vector<double> values;
  for (const OutputRegion& region : rc_->regions) {
    const LeafCell& cr = part_r_->cell(region.cell_r);
    const LeafCell& ct = part_t_->cell(region.cell_t);
    for (int64_t i : cr.rows) {
      for (int64_t j : ct.rows) {
        if (r_->key(i, 0) != t_->key(j, 0)) continue;
        workload_.Project(*r_, i, *t_, j, values);
        for (int k = 0; k < workload_.num_output_dims(); ++k) {
          EXPECT_GE(values[k], region.lower[k] - 1e-9);
          EXPECT_LE(values[k], region.upper[k] + 1e-9);
        }
      }
    }
  }
}

// Checks every region's recorded key matches against a nested-loop
// intersection of its cells' signatures, and their count products against
// the region's join sizes.
void ExpectKeyMatchesAreSignatureIntersections(const RegionCollection& rc,
                                               const PartitionedTable& pr,
                                               const PartitionedTable& pt) {
  const size_t num_slots = rc.predicate_slots.size();
  ASSERT_EQ(rc.key_match_starts.size(), rc.regions.size() * num_slots + 1);
  EXPECT_EQ(rc.key_match_starts.back(),
            static_cast<int64_t>(rc.key_matches.size()));
  for (const OutputRegion& region : rc.regions) {
    const LeafCell& cr = pr.cell(region.cell_r);
    const LeafCell& ct = pt.cell(region.cell_t);
    for (size_t s = 0; s < num_slots; ++s) {
      const int key = rc.predicate_slots[s];
      std::vector<std::pair<int32_t, int32_t>> expected;
      for (size_t i = 0; i < cr.signatures[key].size(); ++i) {
        for (size_t j = 0; j < ct.signatures[key].size(); ++j) {
          if (cr.signatures[key][i] == ct.signatures[key][j]) {
            expected.emplace_back(static_cast<int32_t>(i),
                                  static_cast<int32_t>(j));
          }
        }
      }
      std::vector<std::pair<int32_t, int32_t>> actual;
      int64_t products = 0;
      const auto [first, last] =
          rc.KeyMatchesOf(region.id, static_cast<int>(s));
      for (const KeyMatch* m = first; m != last; ++m) {
        actual.emplace_back(m->a, m->b);
        products += static_cast<int64_t>(cr.signature_counts[key][m->a]) *
                    ct.signature_counts[key][m->b];
      }
      EXPECT_EQ(actual, expected) << "region " << region.id << " slot " << s;
      EXPECT_EQ(products, region.join_sizes[s])
          << "region " << region.id << " slot " << s;
    }
  }
}

TEST_F(RegionBuilderTest, KeyMatchesAreSignatureIntersections) {
  ExpectKeyMatchesAreSignatureIntersections(*rc_, *part_r_, *part_t_);
  EXPECT_FALSE(rc_->key_matches.empty());
}

/// Tables with two key columns and a workload with one query per key, both
/// restricted to R attribute 0 in [1, 30]: cell pairs outside the range
/// have matching signatures but an empty lineage, so the build must drop
/// the key matches it recorded for them.
struct TwoKeyFixture {
  Table r;
  Table t;
  Workload workload;

  explicit TwoKeyFixture(int64_t rows) : r("R", 2, 2), t("T", 2, 2) {
    GeneratorConfig cfg;
    cfg.num_rows = rows;
    cfg.num_attrs = 2;
    cfg.join_selectivities = {0.05, 0.2};
    cfg.seed = 5;
    r = GenerateTable("R", cfg).value();
    cfg.seed = 6;
    t = GenerateTable("T", cfg).value();
    workload.AddOutputDim({0, 0, 1.0, 1.0});
    workload.AddOutputDim({1, 1, 1.0, 1.0});
    const std::vector<SelectionRange> sel = {{true, 0, 1.0, 30.0}};
    workload.AddQuery({"Q0", 0, {0, 1}, 1.0, sel});
    workload.AddQuery({"Q1", 1, {0}, 1.0, sel});
  }
};

TEST(RegionKeyMatchTest, MultiSlotMatchesSurviveDroppedRegions) {
  const TwoKeyFixture fx(600);
  const PartitionedTable pr = PartitionTable(fx.r, 4).value();
  const PartitionedTable pt = PartitionTable(fx.t, 4).value();
  const RegionCollection rc = BuildRegions(pr, pt, fx.workload).value();
  ASSERT_EQ(rc.predicate_slots, (std::vector<int>{0, 1}));
  // The selection dropped some cell pairs whose signatures matched.
  EXPECT_LT(rc.regions.size(),
            static_cast<size_t>(pr.num_cells()) * pt.num_cells());
  EXPECT_FALSE(rc.regions.empty());
  ExpectKeyMatchesAreSignatureIntersections(rc, pr, pt);
}

TEST(RegionKeyMatchTest, ParallelBuildRecordsSerialArray) {
  const TwoKeyFixture fx(3000);
  const PartitionedTable pr = PartitionTable(fx.r, 8).value();
  const PartitionedTable pt = PartitionTable(fx.t, 8).value();
  // Enough cell pairs for the build to take the pool.
  ASSERT_GE(static_cast<int64_t>(pr.num_cells()) * pt.num_cells(), 1024);
  const RegionCollection serial = BuildRegions(pr, pt, fx.workload).value();
  ThreadPool pool(3);
  const RegionCollection parallel =
      BuildRegions(pr, pt, fx.workload, {.pool = &pool}).value();
  ASSERT_EQ(parallel.regions.size(), serial.regions.size());
  EXPECT_EQ(parallel.key_match_starts, serial.key_match_starts);
  ASSERT_EQ(parallel.key_matches.size(), serial.key_matches.size());
  for (size_t i = 0; i < serial.key_matches.size(); ++i) {
    EXPECT_EQ(parallel.key_matches[i].a, serial.key_matches[i].a) << i;
    EXPECT_EQ(parallel.key_matches[i].b, serial.key_matches[i].b) << i;
  }
  EXPECT_EQ(parallel.coarse_ops, serial.coarse_ops);
  ExpectKeyMatchesAreSignatureIntersections(parallel, pr, pt);
}

// Whether every row (`all`), or some row (!all), of `cell` passes the
// ranges of `query` on `cell`'s side.
bool RowsPass(const Table& table, const LeafCell& cell, const SjQuery& query,
              bool on_r, bool all) {
  for (const int64_t row : cell.rows) {
    bool pass = true;
    for (const SelectionRange& sel : query.selections) {
      if (sel.on_r != on_r) continue;
      const double v = table.attr(row, sel.attr);
      if (v < sel.lo || v > sel.hi) pass = false;
    }
    if (pass != all) return pass;
  }
  return all;
}

// The region build's coarse selection test against the rows themselves:
// ranges on R and on T miss, straddle and cover cell bounds, and for every
// cell pair that joins, a guaranteed query's ranges pass every row of both
// cells, while a query left out of the lineage has a cell no row of which
// passes.
TEST(RegionSelectionTest, LineagesAgreeWithRowLevelSelections) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 600, 2, 0.05);
  Workload workload;
  workload.AddOutputDim({0, 0, 1.0, 1.0});
  workload.AddOutputDim({1, 1, 1.0, 1.0});
  workload.AddQuery({"Qr", 0, {0, 1}, 1.0, {{true, 0, 20.0, 60.0}}});
  workload.AddQuery({"Qt", 0, {0}, 1.0, {{false, 1, 1.0, 45.0}}});
  workload.AddQuery(
      {"Qrt", 0, {1}, 1.0, {{true, 1, 30.0, 100.0}, {false, 0, 10.0, 70.0}}});
  const PartitionedTable pr = PartitionTable(r, 4).value();
  const PartitionedTable pt = PartitionTable(t, 4).value();
  const RegionCollection rc = BuildRegions(pr, pt, workload).value();
  ASSERT_EQ(rc.predicate_slots, (std::vector<int>{0}));

  std::vector<const OutputRegion*> region_of(
      static_cast<size_t>(pr.num_cells()) * pt.num_cells(), nullptr);
  for (const OutputRegion& region : rc.regions) {
    region_of[static_cast<size_t>(region.cell_r) * pt.num_cells() +
              region.cell_t] = &region;
  }
  int classes[3] = {0, 0, 0};
  for (int a = 0; a < pr.num_cells(); ++a) {
    const LeafCell& cell_r = pr.cell(a);
    for (int b = 0; b < pt.num_cells(); ++b) {
      const LeafCell& cell_t = pt.cell(b);
      const OutputRegion* region =
          region_of[static_cast<size_t>(a) * pt.num_cells() + b];
      int64_t join_size = 0;
      for (const int64_t i : cell_r.rows) {
        for (const int64_t j : cell_t.rows) {
          if (r.key(i, 0) == t.key(j, 0)) ++join_size;
        }
      }
      if (region != nullptr) {
        EXPECT_EQ(region->join_sizes[0], join_size);
      }
      if (join_size == 0) continue;
      rc.queries_of_slot[0].ForEach([&](int q) {
        SCOPED_TRACE("cells " + std::to_string(a) + "," + std::to_string(b) +
                     " query " + std::to_string(q));
        const SjQuery& query = workload.query(q);
        const SelectionCoarse cls = CoarseSelectionTest(query, cell_r, cell_t);
        ++classes[static_cast<int>(cls)];
        const bool in_rql = region != nullptr && region->rql.Contains(q);
        const bool guaranteed =
            region != nullptr && region->guaranteed.Contains(q);
        EXPECT_EQ(in_rql, cls != SelectionCoarse::kDisjoint);
        EXPECT_EQ(guaranteed, cls == SelectionCoarse::kContained);
        if (guaranteed) {
          EXPECT_TRUE(in_rql);
          EXPECT_TRUE(RowsPass(r, cell_r, query, /*on_r=*/true, /*all=*/true));
          EXPECT_TRUE(
              RowsPass(t, cell_t, query, /*on_r=*/false, /*all=*/true));
        }
        if (!in_rql) {
          EXPECT_TRUE(
              !RowsPass(r, cell_r, query, /*on_r=*/true, /*all=*/false) ||
              !RowsPass(t, cell_t, query, /*on_r=*/false, /*all=*/false));
        }
      });
    }
  }
  EXPECT_GT(classes[static_cast<int>(SelectionCoarse::kDisjoint)], 0);
  EXPECT_GT(classes[static_cast<int>(SelectionCoarse::kContained)], 0);
  EXPECT_GT(classes[static_cast<int>(SelectionCoarse::kOverlap)], 0);
}

TEST_F(RegionBuilderTest, LineageMatchesSignatureIntersection) {
  for (const OutputRegion& region : rc_->regions) {
    EXPECT_FALSE(region.rql.empty());
    EXPECT_EQ(region.join_size(0) > 0,
              region.rql == QuerySet::AllOf(workload_.num_queries()));
    EXPECT_EQ(region.rows_r,
              static_cast<int64_t>(part_r_->cell(region.cell_r).rows.size()));
  }
}

TEST_F(RegionBuilderTest, CoarsePruneIsSound) {
  // Tuples of regions pruned for query q must all be dominated in q's
  // preference by some tuple of the surviving join output.
  RegionCollection pruned = *rc_;
  const CoarsePruneStats stats = CoarseSkylinePrune(pruned, workload_);
  EXPECT_GE(stats.pruned_pairs, 0);

  for (int q = 0; q < workload_.num_queries(); ++q) {
    const auto oracle = ::caqe::testing::OracleSkyline(*r_, *t_, workload_, q);
    // Collect the join output restricted to unpruned regions for q.
    PointSet survivors(workload_.num_output_dims());
    std::vector<double> values;
    for (const OutputRegion& region : pruned.regions) {
      if (!region.rql.Contains(q)) continue;
      const LeafCell& cr = part_r_->cell(region.cell_r);
      const LeafCell& ct = part_t_->cell(region.cell_t);
      for (int64_t i : cr.rows) {
        for (int64_t j : ct.rows) {
          if (r_->key(i, 0) != t_->key(j, 0)) continue;
          workload_.Project(*r_, i, *t_, j, values);
          survivors.Append(values);
        }
      }
    }
    // The skyline of the survivors must equal the oracle skyline.
    const std::vector<int>& pref = workload_.query(q).preference;
    const std::vector<int64_t> sky = BruteForceSkyline(survivors, pref);
    std::vector<std::vector<double>> rows;
    for (int64_t id : sky) {
      std::vector<double> row;
      for (int k : pref) row.push_back(survivors.row(id)[k]);
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_EQ(rows, oracle) << "query " << q;
  }
}

TEST_F(RegionBuilderTest, DependencyGraphInvariants) {
  RegionCollection pruned = *rc_;
  CoarseSkylinePrune(pruned, workload_);
  const DependencyGraph dg = DependencyGraph::Build(pruned, workload_);
  ASSERT_EQ(dg.num_regions(), static_cast<int>(pruned.regions.size()));

  // In-degrees match incoming edge counts; edges annotate shared queries
  // with a real (full or partial) dominance relation.
  std::vector<int> in_count(dg.num_regions(), 0);
  for (int i = 0; i < dg.num_regions(); ++i) {
    for (const auto& [target, queries] : dg.out_edges(i)) {
      ++in_count[target];
      EXPECT_FALSE(queries.empty());
      queries.ForEach([&](int q) {
        EXPECT_TRUE(pruned.regions[i].rql.Contains(q));
        EXPECT_TRUE(pruned.regions[target].rql.Contains(q));
        EXPECT_NE(CompareRegions(pruned.regions[i], pruned.regions[target],
                                 workload_.query(q).preference),
                  RegionDomResult::kIncomparable);
      });
    }
  }
  for (int i = 0; i < dg.num_regions(); ++i) {
    EXPECT_EQ(dg.in_degree(i), in_count[i]);
  }
  // Roots are never empty while regions remain.
  std::vector<int> roots;
  dg.Roots(&roots);
  EXPECT_FALSE(roots.empty());
}

TEST_F(RegionBuilderTest, DeactivationPromotesRoots) {
  RegionCollection pruned = *rc_;
  DependencyGraph dg = DependencyGraph::Build(pruned, workload_);
  std::set<int> alive;
  for (int i = 0; i < dg.num_regions(); ++i) {
    if (dg.active(i)) alive.insert(i);
  }
  std::vector<int> roots;
  while (!alive.empty()) {
    dg.Roots(&roots);
    ASSERT_FALSE(roots.empty());
    const int victim = roots[0];
    std::vector<int> promoted;
    dg.Deactivate(victim, &promoted);
    EXPECT_FALSE(dg.active(victim));
    for (int p : promoted) {
      EXPECT_EQ(dg.in_degree(p), 0);
    }
    alive.erase(victim);
  }
}

// Serial reference for the batched CoarseSkylinePrune: per (query, victim),
// scan candidate dominators in ascending region id and stop at the first
// guaranteed region whose upper corner fully dominates the victim, charging
// one coarse op per scalar test.
CoarsePruneStats ReferenceCoarsePrune(RegionCollection& rc,
                                      const Workload& workload) {
  CoarsePruneStats stats;
  const int n = static_cast<int>(rc.regions.size());
  std::vector<QuerySet> original(n);
  std::vector<QuerySet> before(n);
  for (int i = 0; i < n; ++i) {
    original[i] = rc.regions[i].guaranteed;
    before[i] = rc.regions[i].rql;
  }
  for (int q = 0; q < workload.num_queries(); ++q) {
    const std::vector<int>& dims = workload.query(q).preference;
    for (int j = 0; j < n; ++j) {
      OutputRegion& victim = rc.regions[j];
      if (!victim.rql.Contains(q)) continue;
      for (int i = 0; i < n; ++i) {
        if (i == j || !original[i].Contains(q)) continue;
        ++stats.coarse_ops;
        if (PointFullyDominatesRegion(rc.regions[i].upper.data(), victim,
                                      dims)) {
          victim.rql.Remove(q);
          victim.guaranteed.Remove(q);
          ++stats.pruned_pairs;
          break;
        }
      }
    }
  }
  for (int j = 0; j < n; ++j) {
    if (!before[j].empty() && rc.regions[j].rql.empty()) ++stats.pruned_regions;
  }
  return stats;
}

// Runs the batched prune and the serial reference on copies of `rc` and
// expects the same statistics, lineages and guarantees. Returns the pruned
// pair count.
int64_t ExpectPruneMatchesReference(const RegionCollection& rc,
                                    const Workload& workload) {
  RegionCollection batched = rc;
  RegionCollection serial = rc;
  const CoarsePruneStats batched_stats = CoarseSkylinePrune(batched, workload);
  const CoarsePruneStats serial_stats = ReferenceCoarsePrune(serial, workload);
  EXPECT_EQ(batched_stats.pruned_pairs, serial_stats.pruned_pairs);
  EXPECT_EQ(batched_stats.pruned_regions, serial_stats.pruned_regions);
  EXPECT_EQ(batched_stats.coarse_ops, serial_stats.coarse_ops);
  EXPECT_EQ(batched.regions.size(), serial.regions.size());
  for (size_t i = 0; i < batched.regions.size(); ++i) {
    EXPECT_EQ(batched.regions[i].rql, serial.regions[i].rql) << i;
    EXPECT_EQ(batched.regions[i].guaranteed, serial.regions[i].guaranteed)
        << i;
  }
  return serial_stats.pruned_pairs;
}

TEST_F(RegionBuilderTest, BatchedCoarsePruneMatchesSerialReference) {
  ExpectPruneMatchesReference(*rc_, workload_);
  // Quad-tree partitions of independent tables across output widths, join
  // selectivities and seeds.
  int64_t pruned_pairs = 0;
  for (const int dims : {2, 3, 4}) {
    for (const double selectivity : {0.02, 0.1}) {
      for (const uint64_t seed : {11ull, 77ull}) {
        SCOPED_TRACE("dims=" + std::to_string(dims) +
                     " selectivity=" + std::to_string(selectivity) +
                     " seed=" + std::to_string(seed));
        auto [r, t] = MakeTables(Distribution::kIndependent, 400, dims,
                                 selectivity, seed);
        const Workload workload =
            MakeSubspaceWorkload(dims, 0, dims == 2 ? 1 : 4,
                                 PriorityPolicy::kUniform, seed)
                .value();
        const PartitionedTable pr =
            PartitionTableQuadTreeTarget(r, 32).value();
        const PartitionedTable pt =
            PartitionTableQuadTreeTarget(t, 32).value();
        pruned_pairs += ExpectPruneMatchesReference(
            BuildRegions(pr, pt, workload).value(), workload);
      }
    }
  }
  EXPECT_GT(pruned_pairs, 0);  // The sweep exercises real pruning.
}

TEST_F(RegionBuilderTest, BatchedDependencyGraphMatchesScalarCompareRegions) {
  RegionCollection pruned = *rc_;
  CoarseSkylinePrune(pruned, workload_);
  int64_t batched_ops = 0;
  const DependencyGraph dg =
      DependencyGraph::Build(pruned, workload_, &batched_ops);

  // Serial reference straight from Definition 8: edge i -> j annotated with
  // q iff i fully dominates j, or i partially dominates j while j is
  // incomparable back. Both directions' box tests are charged.
  const int n = static_cast<int>(pruned.regions.size());
  int64_t serial_ops = 0;
  int edges = 0;
  for (int i = 0; i < n; ++i) {
    const OutputRegion& a = pruned.regions[i];
    std::vector<std::pair<int, QuerySet>> expected_out;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const OutputRegion& b = pruned.regions[j];
      const QuerySet common = a.rql.Intersect(b.rql);
      if (common.empty()) continue;
      QuerySet annotated;
      common.ForEach([&](int q) {
        serial_ops += 2;
        const std::vector<int>& dims = workload_.query(q).preference;
        const RegionDomResult forward = CompareRegions(a, b, dims);
        if (forward == RegionDomResult::kIncomparable) return;
        if (forward == RegionDomResult::kPartiallyDominates &&
            CompareRegions(b, a, dims) != RegionDomResult::kIncomparable) {
          return;
        }
        annotated.Add(q);
      });
      if (!annotated.empty()) expected_out.emplace_back(j, annotated);
    }
    EXPECT_EQ(dg.out_edges(i), expected_out) << "region " << i;
    edges += static_cast<int>(expected_out.size());
  }
  EXPECT_EQ(batched_ops, serial_ops);
  EXPECT_GT(edges, 0);  // The fixture produces a nontrivial graph.
}

TEST(RegionBuilderErrorTest, RejectsInvalidWorkload) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 50, 2, 0.1);
  const PartitionedTable pr = PartitionTable(r, 2).value();
  const PartitionedTable pt = PartitionTable(t, 2).value();
  Workload bad;  // No queries.
  EXPECT_FALSE(BuildRegions(pr, pt, bad).ok());

  // One bit per predicate slot in the slot masks: 33 join keys are too
  // many.
  constexpr int kKeys = RegionCollection::kMaxSlots + 1;
  Table wide_r("R", 1, kKeys);
  Table wide_t("T", 1, kKeys);
  wide_r.AppendRow({0.5}, std::vector<int32_t>(kKeys, 1));
  wide_t.AppendRow({0.5}, std::vector<int32_t>(kKeys, 1));
  Workload wide;
  wide.AddOutputDim({0, 0, 1.0, 1.0});
  for (int key = 0; key < kKeys; ++key) {
    wide.AddQuery({"Q" + std::to_string(key), key, {0}, 1.0, {}});
  }
  const PartitionedTable wide_pr = PartitionTable(wide_r, 1).value();
  const PartitionedTable wide_pt = PartitionTable(wide_t, 1).value();
  EXPECT_FALSE(BuildRegions(wide_pr, wide_pt, wide).ok());
  wide = Workload();
  wide.AddOutputDim({0, 0, 1.0, 1.0});
  for (int key = 0; key < RegionCollection::kMaxSlots; ++key) {
    wide.AddQuery({"Q" + std::to_string(key), key, {0}, 1.0, {}});
  }
  EXPECT_TRUE(BuildRegions(wide_pr, wide_pt, wide).ok());
}

}  // namespace
}  // namespace caqe
