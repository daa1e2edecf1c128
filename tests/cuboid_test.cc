// Unit and property tests for subspaces, the min-max cuboid (Def. 7), and
// the shared skyline evaluator (Theorem 1 / Corollary 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cuboid/min_max_cuboid.h"
#include "cuboid/shared_skyline.h"
#include "cuboid/subspace.h"
#include "data/generator.h"
#include "skyline/algorithms.h"

namespace caqe {
namespace {

TEST(SubspaceTest, BasicAlgebra) {
  const Subspace a = Subspace::FromDims({0, 2});
  const Subspace b = Subspace::FromDims({0, 1, 2});
  EXPECT_EQ(a.size(), 2);
  EXPECT_TRUE(a.Contains(0));
  EXPECT_FALSE(a.Contains(1));
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsStrictSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_FALSE(a.IsStrictSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_EQ(a.Union(b), b);
  EXPECT_EQ(a.Intersect(b), a);
  EXPECT_EQ(a.Dims(), (std::vector<int>{0, 2}));
  EXPECT_EQ(a.ToString(), "{d0,d2}");
  EXPECT_EQ(Subspace::FullSpace(3), Subspace::FromDims({0, 1, 2}));
}

// The paper's running workload (Figures 1 and 6): P1={d0,d1},
// P2={d0,d1,d2}, P3={d1,d2}, P4={d1,d2,d3} (zero-indexed).
std::vector<Subspace> RunningExample() {
  return {Subspace::FromDims({0, 1}), Subspace::FromDims({0, 1, 2}),
          Subspace::FromDims({1, 2}), Subspace::FromDims({1, 2, 3})};
}

TEST(MinMaxCuboidTest, MatchesPaperFigureSix) {
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(RunningExample()).value();
  std::set<uint32_t> masks;
  for (const CuboidNode& node : cuboid.nodes()) {
    masks.insert(node.subspace.mask());
  }
  // Level 0: the four singletons; level 1: {d0,d1} and {d1,d2}; level 2:
  // {d0,d1,d2} and {d1,d2,d3}. Nothing else (e.g. no {d0,d2}, no {d2,d3},
  // no full space).
  const std::set<uint32_t> expected = {
      0b0001, 0b0010, 0b0100, 0b1000,  // singletons
      0b0011, 0b0110,                  // preferences of Q1, Q3
      0b0111, 0b1110,                  // preferences of Q2, Q4
  };
  EXPECT_EQ(masks, expected);
}

TEST(MinMaxCuboidTest, ExampleTwelveServeSets) {
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(RunningExample()).value();
  // {d1,d2} contributes to Q2, Q3 and Q4 (Example 12).
  const int node = cuboid.FindNode(Subspace::FromDims({1, 2}));
  ASSERT_GE(node, 0);
  QuerySet expected;
  expected.Add(1);
  expected.Add(2);
  expected.Add(3);
  EXPECT_EQ(cuboid.nodes()[node].serves, expected);
  EXPECT_EQ(cuboid.nodes()[node].preference_of, QuerySet::Of(2));
}

TEST(MinMaxCuboidTest, EveryPreferenceHasANode) {
  const std::vector<Subspace> prefs = RunningExample();
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  for (size_t q = 0; q < prefs.size(); ++q) {
    const int node = cuboid.preference_node(static_cast<int>(q));
    ASSERT_GE(node, 0);
    EXPECT_EQ(cuboid.nodes()[node].subspace, prefs[q]);
    EXPECT_TRUE(cuboid.nodes()[node].preference_of.Contains(
        static_cast<int>(q)));
  }
}

TEST(MinMaxCuboidTest, NodesOrderedFeedersFirst) {
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(RunningExample()).value();
  for (size_t i = 0; i < cuboid.nodes().size(); ++i) {
    const CuboidNode& node = cuboid.nodes()[i];
    if (node.feeder >= 0) {
      EXPECT_LT(node.feeder, static_cast<int>(i));
      EXPECT_TRUE(node.subspace.IsStrictSubsetOf(
          cuboid.nodes()[node.feeder].subspace));
    }
    EXPECT_EQ(node.level, node.subspace.size() - 1);
    EXPECT_FALSE(node.serves.empty());
  }
}

TEST(MinMaxCuboidTest, DefinitionSevenProperties) {
  // Every retained non-singleton, non-preference node must serve more than
  // one query or have no strict superspace with the same serve set.
  const std::vector<Subspace> prefs = {
      Subspace::FromDims({0, 1}), Subspace::FromDims({0, 1, 2, 3}),
      Subspace::FromDims({1, 3})};
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  for (const CuboidNode& node : cuboid.nodes()) {
    const bool cond1 =
        node.subspace.size() == 1 || node.serves.size() > 1;
    const bool cond3 = !node.preference_of.empty();
    bool cond2 = true;
    for (const CuboidNode& other : cuboid.nodes()) {
      if (node.subspace.IsStrictSubsetOf(other.subspace) &&
          node.serves == other.serves) {
        cond2 = false;
      }
    }
    EXPECT_TRUE(cond1 || cond2 || cond3) << node.subspace.ToString();
  }
}

TEST(MinMaxCuboidTest, SmallerThanFullSkycube) {
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(RunningExample()).value();
  EXPECT_EQ(cuboid.FullSkycubeSize(), 15);
  EXPECT_LT(cuboid.num_nodes(), 15);
}

TEST(MinMaxCuboidTest, RejectsBadInputs) {
  EXPECT_FALSE(MinMaxCuboid::Build({}).ok());
  EXPECT_FALSE(MinMaxCuboid::Build({Subspace()}).ok());
  // Union dimensionality limit (submask enumeration bound).
  std::vector<int> wide;
  for (int k = 0; k < 21; ++k) wide.push_back(k);
  EXPECT_FALSE(MinMaxCuboid::Build({Subspace::FromDims(wide)}).ok());
  // Query-count limit.
  std::vector<Subspace> many(65, Subspace::FromDims({0, 1}));
  EXPECT_FALSE(MinMaxCuboid::Build(many).ok());
}

TEST(MinMaxCuboidTest, SingleQueryWorkload) {
  const MinMaxCuboid cuboid =
      MinMaxCuboid::Build({Subspace::FromDims({0, 1})}).value();
  // Singletons + the preference itself.
  EXPECT_EQ(cuboid.num_nodes(), 3);
  EXPECT_EQ(cuboid.preference_node(0),
            cuboid.FindNode(Subspace::FromDims({0, 1})));
}

// ---- Shared skyline evaluator ----

PointSet RandomPoints(Distribution dist, int64_t n, int width, uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_rows = n;
  cfg.num_attrs = width;
  cfg.distribution = dist;
  cfg.seed = seed;
  const Table t = GenerateTable("P", cfg).value();
  PointSet points(width);
  std::vector<double> row(width);
  for (int64_t i = 0; i < n; ++i) {
    for (int k = 0; k < width; ++k) row[k] = t.attr(i, k);
    points.Append(row);
  }
  return points;
}

class SharedSkylineTest : public ::testing::TestWithParam<bool> {};

TEST_P(SharedSkylineTest, QuerySkylinesMatchBruteForce) {
  const bool dva = GetParam();
  const std::vector<Subspace> prefs = RunningExample();
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    const PointSet points = RandomPoints(dist, 400, 4, 9);
    SharedSkylineEvaluator eval(&cuboid, dva);
    for (int64_t i = 0; i < points.size(); ++i) {
      eval.Insert(points.row(i), i);
    }
    for (size_t q = 0; q < prefs.size(); ++q) {
      std::vector<int64_t> members =
          eval.query_skyline(static_cast<int>(q)).MemberIds();
      std::sort(members.begin(), members.end());
      EXPECT_EQ(members, BruteForceSkyline(points, prefs[q].Dims()))
          << "query " << q << " dva=" << dva;
    }
  }
}

TEST_P(SharedSkylineTest, ReportsAcceptanceAndEvictionPerQuery) {
  const bool dva = GetParam();
  const MinMaxCuboid cuboid =
      MinMaxCuboid::Build({Subspace::FromDims({0, 1})}).value();
  SharedSkylineEvaluator eval(&cuboid, dva);
  const SharedInsertOutcome first =
      eval.Insert(std::vector<double>{5, 5}.data(), 1);
  EXPECT_TRUE(first.accepted.Contains(0));
  const SharedInsertOutcome second_out =
      eval.Insert(std::vector<double>{1, 1}.data(), 2);
  EXPECT_TRUE(second_out.accepted.Contains(0));
  ASSERT_EQ(second_out.evictions.size(), 1u);
  EXPECT_EQ(second_out.evictions[0].first, 0);
  EXPECT_EQ(second_out.evictions[0].second, int64_t{1});
  const SharedInsertOutcome third =
      eval.Insert(std::vector<double>{2, 2}.data(), 3);
  EXPECT_TRUE(third.accepted.empty());
}

// Serving retirement: releasing the nodes only retired queries need stops
// their events and their comparisons, while every surviving query's
// skyline stays exactly SKY of all tuples inserted, before and after.
TEST_P(SharedSkylineTest, ReleasedQueriesStopWhileSurvivorsStayExact) {
  const bool dva = GetParam();
  const std::vector<Subspace> prefs = RunningExample();
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  const PointSet points =
      RandomPoints(Distribution::kAntiCorrelated, 400, 4, 21);
  SharedSkylineEvaluator released(&cuboid, dva);
  SharedSkylineEvaluator full(&cuboid, dva);
  const int64_t half = points.size() / 2;
  for (int64_t i = 0; i < half; ++i) {
    released.Insert(points.row(i), i);
    full.Insert(points.row(i), i);
  }
  // Q0 ({d0,d1}) retires: no survivor's gating chain runs through its node.
  QuerySet survivors;
  for (int q : {1, 2, 3}) survivors.Add(q);
  released.ReleaseQueries(survivors);
  int64_t cmps_released = 0;
  int64_t cmps_full = 0;
  for (int64_t i = half; i < points.size(); ++i) {
    const SharedInsertOutcome out =
        released.Insert(points.row(i), i, &cmps_released);
    full.Insert(points.row(i), i, &cmps_full);
    EXPECT_FALSE(out.accepted.Contains(0)) << "tuple " << i;
    for (const auto& [q, id] : out.evictions) EXPECT_NE(q, 0) << id;
  }
  EXPECT_LT(cmps_released, cmps_full);
  for (int q : {1, 2, 3}) {
    std::vector<int64_t> members = released.query_skyline(q).MemberIds();
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, BruteForceSkyline(points, prefs[q].Dims()))
        << "query " << q << " dva=" << dva;
  }
}

INSTANTIATE_TEST_SUITE_P(DvaModes, SharedSkylineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "dva" : "tiesafe";
                         });

TEST(SharedSkylineTest, DvaGatingSavesComparisons) {
  const std::vector<Subspace> prefs = RunningExample();
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  const PointSet points =
      RandomPoints(Distribution::kIndependent, 800, 4, 13);
  int64_t cmps_dva = 0;
  int64_t cmps_safe = 0;
  SharedSkylineEvaluator dva(&cuboid, true);
  SharedSkylineEvaluator safe(&cuboid, false);
  for (int64_t i = 0; i < points.size(); ++i) {
    dva.Insert(points.row(i), i, &cmps_dva);
    safe.Insert(points.row(i), i, &cmps_safe);
  }
  EXPECT_LT(cmps_dva, cmps_safe);
}

TEST(SharedSkylineTest, TheoremOneHoldsOnContinuousData) {
  // SKY_U ⊆ SKY_V for U ⊂ V on (tie-free) continuous data.
  const PointSet points =
      RandomPoints(Distribution::kIndependent, 300, 3, 99);
  const std::vector<int64_t> sky_u = BruteForceSkyline(points, {0, 1});
  const std::vector<int64_t> sky_v = BruteForceSkyline(points, {0, 1, 2});
  EXPECT_TRUE(std::includes(sky_v.begin(), sky_v.end(), sky_u.begin(),
                            sky_u.end()));
}

}  // namespace
}  // namespace caqe
