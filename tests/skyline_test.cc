// Unit and property tests for the skyline kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "skyline/algorithms.h"
#include "skyline/cardinality.h"
#include "skyline/dominance.h"
#include "skyline/incremental.h"
#include "skyline/point_set.h"

namespace caqe {
namespace {

TEST(DominanceTest, PaperExampleThree) {
  // Hotels h1($200, 5, 0.5, $20), h2($350, 5, 0.5, $20), h3($89, 2, 3, $0);
  // smaller preferred everywhere. h1 dominates h2; h1 vs h3 incomparable.
  const std::vector<double> h1 = {200, 5, 0.5, 20};
  const std::vector<double> h2 = {350, 5, 0.5, 20};
  const std::vector<double> h3 = {89, 2, 3, 0};
  const std::vector<int> full = {0, 1, 2, 3};
  EXPECT_EQ(CompareDominance(h1.data(), h2.data(), full),
            DomResult::kDominates);
  EXPECT_EQ(CompareDominance(h2.data(), h1.data(), full),
            DomResult::kDominatedBy);
  EXPECT_EQ(CompareDominance(h1.data(), h3.data(), full),
            DomResult::kIncomparable);
}

TEST(DominanceTest, PaperExampleFourSubspace) {
  // In subspace {price, wifi}, h3 dominates both h1 and h2 (Example 4).
  const std::vector<double> h1 = {200, 5, 0.5, 20};
  const std::vector<double> h2 = {350, 5, 0.5, 20};
  const std::vector<double> h3 = {89, 2, 3, 0};
  const std::vector<int> pw = {0, 3};
  EXPECT_TRUE(Dominates(h3.data(), h1.data(), pw));
  EXPECT_TRUE(Dominates(h3.data(), h2.data(), pw));
}

TEST(DominanceTest, EqualTuplesDoNotDominate) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {1, 2, 3};
  const std::vector<int> dims = {0, 1, 2};
  EXPECT_EQ(CompareDominance(a.data(), b.data(), dims), DomResult::kEqual);
  EXPECT_FALSE(Dominates(a.data(), b.data(), dims));
  EXPECT_TRUE(WeaklyDominates(a.data(), b.data(), dims));
}

TEST(DominanceTest, WeakVsStrict) {
  const std::vector<double> a = {1, 2};
  const std::vector<double> b = {1, 3};
  const std::vector<int> dims = {0, 1};
  EXPECT_TRUE(WeaklyDominates(a.data(), b.data(), dims));
  EXPECT_TRUE(Dominates(a.data(), b.data(), dims));
  EXPECT_FALSE(WeaklyDominates(b.data(), a.data(), dims));
}

TEST(DominanceTest, AxiomsOnRandomPoints) {
  // Irreflexivity, antisymmetry, transitivity on random triples.
  Rng rng(5);
  const std::vector<int> dims = {0, 1, 2};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::vector<double>> pts(3, std::vector<double>(3));
    for (auto& p : pts) {
      for (double& v : p) v = rng.Uniform(0, 10);
    }
    EXPECT_FALSE(Dominates(pts[0].data(), pts[0].data(), dims));
    if (Dominates(pts[0].data(), pts[1].data(), dims)) {
      EXPECT_FALSE(Dominates(pts[1].data(), pts[0].data(), dims));
      if (Dominates(pts[1].data(), pts[2].data(), dims)) {
        EXPECT_TRUE(Dominates(pts[0].data(), pts[2].data(), dims));
      }
    }
  }
}

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

using AlgoCase = std::tuple<Distribution, int, int64_t>;

class SkylineAlgoTest : public ::testing::TestWithParam<AlgoCase> {};

TEST_P(SkylineAlgoTest, BnlAndSfsMatchBruteForce) {
  const auto [dist, d, n] = GetParam();
  const PointSet points = RandomPoints(dist, n, d, 77 + d + n);
  std::vector<int> dims(d);
  for (int k = 0; k < d; ++k) dims[k] = k;

  const std::vector<int64_t> oracle = BruteForceSkyline(points, dims);
  EXPECT_EQ(BnlSkyline(points, dims), oracle);
  EXPECT_EQ(SfsSkyline(points, dims), oracle);
}

TEST_P(SkylineAlgoTest, SubspaceResultsMatchBruteForce) {
  const auto [dist, d, n] = GetParam();
  if (d < 2) GTEST_SKIP();
  const PointSet points = RandomPoints(dist, n, d, 123 + d);
  // Every 2-dim subspace.
  for (int a = 0; a < d; ++a) {
    for (int b = a + 1; b < d; ++b) {
      const std::vector<int> dims = {a, b};
      const std::vector<int64_t> oracle = BruteForceSkyline(points, dims);
      EXPECT_EQ(BnlSkyline(points, dims), oracle);
      EXPECT_EQ(SfsSkyline(points, dims), oracle);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkylineAlgoTest,
    ::testing::Combine(
        ::testing::Values(Distribution::kIndependent,
                          Distribution::kCorrelated,
                          Distribution::kAntiCorrelated),
        ::testing::Values(2, 3, 4), ::testing::Values<int64_t>(1, 50, 400)),
    [](const ::testing::TestParamInfo<AlgoCase>& info) {
      return std::string(DistributionName(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SkylineAlgoTest, SfsUsesFewerComparisonsThanBruteForce) {
  const PointSet points =
      RandomPoints(Distribution::kIndependent, 500, 3, 999);
  const std::vector<int> dims = {0, 1, 2};
  int64_t brute = 0;
  int64_t sfs = 0;
  BruteForceSkyline(points, dims, &brute);
  SfsSkyline(points, dims, &sfs);
  EXPECT_LT(sfs, brute / 2);
}

TEST(SkylineAlgoTest, DuplicatePointsAllSurvive) {
  PointSet points(2);
  points.Append({1.0, 2.0});
  points.Append({1.0, 2.0});
  points.Append({3.0, 4.0});  // Dominated by both copies.
  const std::vector<int> dims = {0, 1};
  const std::vector<int64_t> expected = {0, 1};
  EXPECT_EQ(BruteForceSkyline(points, dims), expected);
  EXPECT_EQ(BnlSkyline(points, dims), expected);
  EXPECT_EQ(SfsSkyline(points, dims), expected);
}

TEST(SkylineAlgoTest, EmptyInput) {
  PointSet points(2);
  const std::vector<int> dims = {0, 1};
  EXPECT_TRUE(BruteForceSkyline(points, dims).empty());
  EXPECT_TRUE(BnlSkyline(points, dims).empty());
  EXPECT_TRUE(SfsSkyline(points, dims).empty());
}

TEST(IncrementalSkylineTest, MatchesBatchUnderRandomInserts) {
  for (Distribution dist :
       {Distribution::kIndependent, Distribution::kAntiCorrelated}) {
    const PointSet points = RandomPoints(dist, 300, 3, 42);
    const std::vector<int> dims = {0, 1, 2};
    IncrementalSkyline inc(dims);
    for (int64_t i = 0; i < points.size(); ++i) {
      inc.Insert(points.row(i), i);
    }
    std::vector<int64_t> members = inc.MemberIds();
    std::sort(members.begin(), members.end());
    EXPECT_EQ(members, BruteForceSkyline(points, dims));
  }
}

TEST(IncrementalSkylineTest, ReportsEvictions) {
  IncrementalSkyline inc({0, 1});
  EXPECT_TRUE(inc.Insert(std::vector<double>{5, 5}.data(), 1).accepted);
  EXPECT_TRUE(inc.Insert(std::vector<double>{4, 6}.data(), 2).accepted);
  // (4.5, 4.5) dominates (5, 5) but is incomparable with (4, 6).
  const InsertOutcome out = inc.Insert(std::vector<double>{4.5, 4.5}.data(), 3);
  EXPECT_TRUE(out.accepted);
  EXPECT_EQ(out.evicted, std::vector<int64_t>{1});
  EXPECT_EQ(inc.size(), 2);
}

TEST(IncrementalSkylineTest, RejectsDominatedWithoutEvicting) {
  IncrementalSkyline inc({0, 1});
  inc.Insert(std::vector<double>{1, 1}.data(), 1);
  const InsertOutcome out = inc.Insert(std::vector<double>{2, 2}.data(), 2);
  EXPECT_FALSE(out.accepted);
  EXPECT_TRUE(out.evicted.empty());
  EXPECT_EQ(inc.size(), 1);
}

TEST(IncrementalSkylineTest, EqualPointsCoexist) {
  IncrementalSkyline inc({0, 1});
  EXPECT_TRUE(inc.Insert(std::vector<double>{1, 2}.data(), 1).accepted);
  EXPECT_TRUE(inc.Insert(std::vector<double>{1, 2}.data(), 2).accepted);
  EXPECT_EQ(inc.size(), 2);
}

TEST(IncrementalSkylineTest, SubspaceDimsRespected) {
  IncrementalSkyline inc({0, 2});  // Ignore dim 1.
  inc.Insert(std::vector<double>{1, 100, 1}.data(), 1);
  // Dominated on {0,2} despite better dim 1.
  EXPECT_FALSE(inc.Insert(std::vector<double>{2, 0, 2}.data(), 2).accepted);
}

// Serial reference for IncrementalSkyline::InsertInto. Members are kept
// sorted by ascending score (sum over the compared dims), ties in arrival
// order. The smaller-score prefix is walked with scalar CompareDominance
// plus an all-dimension strict test, one comparison per member visited,
// and the walk breaks at the first strict dominator (a non-strict
// dominator alone is charged the whole prefix). An undominated point is
// compared with every larger-score member and evicts those it dominates.
class SerialSkylineReference {
 public:
  struct Step {
    bool accepted = false;
    bool strictly_dominated = false;
    std::vector<int64_t> evicted;
    int64_t comparisons = 0;
    int64_t prefix = 0;     // Members with a smaller score.
    int64_t strict_at = -1;  // Position of the strict dominator, if any.
    bool non_strict_first = false;  // A non-strict dominator came earlier.
  };

  explicit SerialSkylineReference(std::vector<int> dims)
      : dims_(std::move(dims)) {
    for (size_t k = 0; k < dims_.size(); ++k) {
      gathered_dims_.push_back(static_cast<int>(k));
    }
  }

  Step Insert(const double* values, int64_t id) {
    Member point{id, 0.0, {}};
    for (int k : dims_) {
      point.values.push_back(values[k]);
      point.score += values[k];
    }
    Step step;
    size_t end = 0;
    while (end < members_.size() && members_[end].score < point.score) ++end;
    step.prefix = static_cast<int64_t>(end);
    bool dominated = false;
    for (size_t i = 0; i < end; ++i) {
      ++step.comparisons;
      if (CompareDominance(members_[i].values.data(), point.values.data(),
                           gathered_dims_) != DomResult::kDominates) {
        continue;
      }
      if (StrictlyBetter(members_[i], point)) {
        step.strictly_dominated = true;
        step.strict_at = static_cast<int64_t>(i);
        step.non_strict_first = dominated;
        dominated = true;
        break;
      }
      dominated = true;
    }
    if (dominated) return step;

    size_t insert_at = end;
    while (insert_at < members_.size() &&
           members_[insert_at].score == point.score) {
      ++insert_at;
    }
    std::vector<Member> kept(members_.begin(), members_.begin() + insert_at);
    kept.push_back(point);
    for (size_t i = insert_at; i < members_.size(); ++i) {
      ++step.comparisons;
      if (CompareDominance(point.values.data(), members_[i].values.data(),
                           gathered_dims_) == DomResult::kDominates) {
        step.evicted.push_back(members_[i].id);
      } else {
        kept.push_back(members_[i]);
      }
    }
    members_ = std::move(kept);
    step.accepted = true;
    return step;
  }

  std::vector<int64_t> MemberIds() const {
    std::vector<int64_t> ids;
    for (const Member& m : members_) ids.push_back(m.id);
    return ids;
  }

 private:
  struct Member {
    int64_t id;
    double score;
    std::vector<double> values;
  };

  static bool StrictlyBetter(const Member& a, const Member& b) {
    for (size_t k = 0; k < a.values.size(); ++k) {
      if (!(a.values[k] < b.values[k])) return false;
    }
    return true;
  }

  std::vector<int> dims_;
  std::vector<int> gathered_dims_;
  std::vector<Member> members_;
};

/// Integer-coordinate points of width 8. Independent points draw each
/// coordinate from [0, range); anti-correlated ones split a near-constant
/// sum across the dims, so most points are mutually incomparable and the
/// skyline grows large. Small ranges produce value ties, equal scores and
/// duplicate points.
PointSet IntegerPoints(bool anti_correlated, int64_t n, int range,
                       uint64_t seed) {
  constexpr int kWidth = 8;
  Rng rng(seed);
  PointSet points(kWidth);
  std::vector<double> row(kWidth);
  for (int64_t i = 0; i < n; ++i) {
    if (anti_correlated) {
      int64_t weights[kWidth];
      int64_t total = 0;
      for (int k = 0; k < kWidth; ++k) {
        weights[k] = rng.UniformInt(1, 100);
        total += weights[k];
      }
      for (int k = 0; k < kWidth; ++k) {
        row[k] = static_cast<double>(range * weights[k] / total +
                                     rng.UniformInt(0, 2));
      }
    } else {
      for (int k = 0; k < kWidth; ++k) {
        row[k] = static_cast<double>(rng.UniformInt(0, range - 1));
      }
    }
    points.Append(row);
  }
  return points;
}

// InsertInto stops at the first strict dominator inside its head scan and
// hands the rest of the prefix to galloping kernel blocks. Every insert
// must still match the serial walk: outcome, strictness, evicted ids in
// order and the comparison charge, over streams whose skylines grow past
// the head and past the block edges.
TEST(IncrementalSkylineTest, InsertIntoMatchesSerialWalk) {
  const std::vector<int> order = {5, 2, 7, 0, 3, 6, 1, 4};
  int64_t max_prefix = 0;
  int64_t max_strict_at = -1;
  int64_t head_stops = 0;
  int64_t non_strict_first = 0;
  int64_t evictions = 0;
  uint64_t seed = 100;
  for (int d = 1; d <= 8; ++d) {
    const std::vector<int> dims(order.begin(), order.begin() + d);
    for (bool anti : {false, true}) {
      for (int range : {6, 400}) {
        SCOPED_TRACE(::testing::Message() << "d=" << d << " anti=" << anti
                                          << " range=" << range);
        const PointSet points = IntegerPoints(anti, 1200, range, ++seed);
        IncrementalSkyline inc(dims);
        SerialSkylineReference ref(dims);
        std::vector<int64_t> evicted;
        for (int64_t i = 0; i < points.size(); ++i) {
          const SerialSkylineReference::Step want =
              ref.Insert(points.row(i), i);
          evicted.clear();
          bool strict = false;
          int64_t cmps = 0;
          const bool accepted =
              inc.InsertInto(points.row(i), i, evicted, &strict, &cmps);
          ASSERT_EQ(accepted, want.accepted) << "insert " << i;
          ASSERT_EQ(strict, want.strictly_dominated) << "insert " << i;
          ASSERT_EQ(evicted, want.evicted) << "insert " << i;
          ASSERT_EQ(cmps, want.comparisons) << "insert " << i;
          max_prefix = std::max(max_prefix, want.prefix);
          max_strict_at = std::max(max_strict_at, want.strict_at);
          if (want.strict_at >= 0 && want.strict_at < 4) ++head_stops;
          if (want.non_strict_first) ++non_strict_first;
          evictions += static_cast<int64_t>(want.evicted.size());
        }
        EXPECT_EQ(inc.MemberIds(), ref.MemberIds());
      }
    }
  }
  // The streams reach past the head and every galloping block edge.
  EXPECT_GT(max_prefix, 340);
  EXPECT_GT(max_strict_at, 84);
  EXPECT_GT(head_stops, 0);
  EXPECT_GT(non_strict_first, 0);
  EXPECT_GT(evictions, 0);
}

// A staircase of 500 mutually incomparable members with rising scores;
// each probe is strictly dominated only by the member at `t`, right after
// a tying (non-strict) dominator at t - 1, so the walk must stop exactly
// at t wherever t falls: in the head, at its edge, or inside any galloping
// block. Each rejected probe is followed by an undominated one, which
// must not inherit the rejected probe's non-strict hit.
TEST(IncrementalSkylineTest, StrictDominatorStopsTheWalkAtEveryDepth) {
  const std::vector<int> dims = {0, 1};
  IncrementalSkyline inc(dims);
  SerialSkylineReference ref(dims);
  int64_t id = 0;
  std::vector<int64_t> evicted;
  const auto insert = [&](double x, double y, bool want_accepted,
                          int64_t want_cmps) {
    const double values[] = {x, y};
    const SerialSkylineReference::Step want = ref.Insert(values, id);
    evicted.clear();
    bool strict = false;
    int64_t cmps = 0;
    const bool accepted = inc.InsertInto(values, id, evicted, &strict, &cmps);
    ++id;
    EXPECT_EQ(accepted, want_accepted) << "point " << x << "," << y;
    EXPECT_EQ(strict, !want_accepted) << "point " << x << "," << y;
    if (want_cmps >= 0) {
      EXPECT_EQ(cmps, want_cmps);
    }
    EXPECT_EQ(accepted, want.accepted);
    EXPECT_EQ(strict, want.strictly_dominated);
    EXPECT_EQ(cmps, want.comparisons);
    EXPECT_EQ(evicted, want.evicted);
  };
  for (int i = 0; i < 500; ++i) insert(2 * i, 2000 - i, true, i);
  for (int t : {0, 1, 2, 3, 4, 5, 19, 20, 21, 83, 84, 85, 339, 340, 341, 499}) {
    insert(2 * t + 1, 2001 - t, /*want_accepted=*/false, t + 1);
    insert(-1 - t, 3000 + t, /*want_accepted=*/true, /*want_cmps=*/-1);
  }
  EXPECT_EQ(inc.MemberIds(), ref.MemberIds());
}

// The engine's retained-tuple store: ids arrive ascending with gaps (the
// join matches no query accepted), and each lookup is a binary search.
TEST(TupleStoreTest, SparseAscendingIdsReadBack) {
  const int64_t ids[] = {3, 4, 17, 250, 1000000007};
  const double rows[][2] = {{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}};
  TupleStore store(2);
  EXPECT_EQ(store.size(), 0);
  for (int i = 0; i < 5; ++i) store.Append(ids[i], rows[i]);
  EXPECT_EQ(store.size(), 5);
  EXPECT_EQ(store.width(), 2);
  // First, middle and last ids, plus both neighbors of the widest gaps.
  for (int i : {0, 2, 4, 1, 3}) {
    EXPECT_EQ(store.row(ids[i])[0], rows[i][0]) << "id " << ids[i];
    EXPECT_EQ(store.row(ids[i])[1], rows[i][1]) << "id " << ids[i];
  }
}

TEST(TupleStoreDeathTest, MissingIdCheckFails) {
  const double value = 1.0;
  TupleStore store(1);
  store.Append(2, &value);
  store.Append(9, &value);
  EXPECT_DEATH((void)store.row(5), "CAQE_CHECK failed");   // In a gap.
  EXPECT_DEATH((void)store.row(0), "CAQE_CHECK failed");   // Below the first.
  EXPECT_DEATH((void)store.row(10), "CAQE_CHECK failed");  // Past the last.
  const TupleStore empty(1);
  EXPECT_DEATH((void)empty.row(0), "CAQE_CHECK failed");
}

TEST(TupleStoreDeathTest, NonAscendingAppendDebugCheckFails) {
  const double value = 1.0;
  TupleStore store(1);
  store.Append(5, &value);
  EXPECT_DEBUG_DEATH(store.Append(5, &value), "CAQE_CHECK failed");
}

TEST(CardinalityTest, BuchtaFormulaValues) {
  // d=1: always 1. d=2: ln(n). d=3: ln(n)^2/2.
  EXPECT_DOUBLE_EQ(BuchtaSkylineCardinality(1000, 1), 1.0);
  EXPECT_NEAR(BuchtaSkylineCardinality(1000, 2), std::log(1000.0), 1e-9);
  EXPECT_NEAR(BuchtaSkylineCardinality(1000, 3),
              std::pow(std::log(1000.0), 2) / 2.0, 1e-9);
  EXPECT_NEAR(BuchtaSkylineCardinality(1000, 4),
              std::pow(std::log(1000.0), 3) / 6.0, 1e-9);
}

TEST(CardinalityTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(BuchtaSkylineCardinality(0.5, 3), 0.0);
  EXPECT_GE(BuchtaSkylineCardinality(1.0, 3), 1.0);   // Floor of 1.
  EXPECT_GE(BuchtaSkylineCardinality(2.0, 5), 1.0);
}

TEST(CardinalityTest, MonotoneInNAndD) {
  for (int d = 2; d <= 5; ++d) {
    EXPECT_LE(BuchtaSkylineCardinality(1000, d),
              BuchtaSkylineCardinality(10000, d));
  }
  // Larger d => more skyline points (for large n).
  EXPECT_LT(BuchtaSkylineCardinality(1e6, 2), BuchtaSkylineCardinality(1e6, 4));
}

TEST(CardinalityTest, RegionEstimateUsesJoinSize) {
  const double est = EstimateRegionSkylineCardinality(0.1, 100, 100, 3);
  EXPECT_NEAR(est, std::pow(std::log(1000.0), 2) / 2.0, 1e-9);
}

TEST(CardinalityTest, ApproximatesIndependentData) {
  // Buchta should be within a small factor of the true expected skyline
  // size on independent data.
  const PointSet points =
      RandomPoints(Distribution::kIndependent, 2000, 3, 321);
  const std::vector<int> dims = {0, 1, 2};
  const double actual =
      static_cast<double>(BruteForceSkyline(points, dims).size());
  const double estimate = BuchtaSkylineCardinality(2000, 3);
  EXPECT_GT(actual, estimate / 3.0);
  EXPECT_LT(actual, estimate * 3.0);
}

}  // namespace
}  // namespace caqe
