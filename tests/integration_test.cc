// End-to-end correctness: every engine must report, for every query,
// exactly the reference skyline of that query's join output — and report it
// progressively without ever retracting a result.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "caqe/session.h"
#include "obs/observability.h"
#include "skyline/dominance.h"
#include "query/workload_generator.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::MakeTables;
using ::caqe::testing::OracleSkyline;

struct EngineCase {
  std::string engine;
  Distribution dist;
  int num_queries;
};

class EngineCorrectnessTest : public ::testing::TestWithParam<EngineCase> {};

std::vector<std::vector<double>> SortedReportedValues(
    const QueryReport& report, const Workload& workload, int q) {
  std::vector<std::vector<double>> rows;
  for (const ReportedResult& r : report.tuples) {
    rows.push_back(::caqe::testing::ProjectReported(r.values, workload, q));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST_P(EngineCorrectnessTest, ReportsExactlyTheOracleSkyline) {
  const EngineCase& param = GetParam();
  auto [r, t] = MakeTables(param.dist, /*rows=*/400, /*attrs=*/4,
                           /*selectivity=*/0.02);
  const Workload workload =
      MakeSubspaceWorkload(/*num_output_dims=*/4, /*join_key=*/0,
                           param.num_queries, PriorityPolicy::kUniform)
          .value();

  std::vector<Contract> contracts;
  for (int q = 0; q < workload.num_queries(); ++q) {
    contracts.push_back(MakeLogDecayContract());
  }

  ExecOptions options;
  options.capture_results = true;
  std::unique_ptr<Engine> engine = MakeEngine(param.engine).value();
  const Result<ExecutionReport> result =
      engine->Execute(r, t, workload, contracts, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ExecutionReport& report = *result;

  ASSERT_EQ(report.queries.size(), static_cast<size_t>(param.num_queries));
  for (int q = 0; q < workload.num_queries(); ++q) {
    SCOPED_TRACE("engine=" + param.engine + " query=" +
                 workload.query(q).name);
    const auto oracle = OracleSkyline(r, t, workload, q);
    const auto reported = SortedReportedValues(report.queries[q], workload, q);
    EXPECT_EQ(reported, oracle);
    EXPECT_EQ(report.queries[q].results,
              static_cast<int64_t>(oracle.size()));

    // Progressive reports carry non-decreasing timestamps.
    double last = 0.0;
    for (const ReportedResult& tuple : report.queries[q].tuples) {
      EXPECT_GE(tuple.time, last);
      last = tuple.time;
    }
  }
  EXPECT_GT(report.stats.virtual_seconds, 0.0);
}

std::string CaseName(const ::testing::TestParamInfo<EngineCase>& info) {
  std::string name = info.param.engine + "_" +
                     DistributionName(info.param.dist) + "_q" +
                     std::to_string(info.param.num_queries);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

std::vector<EngineCase> AllCases() {
  std::vector<EngineCase> cases;
  for (const char* engine :
       {"CAQE", "S-JFSL", "JFSL", "SSMJ", "SSMJ+", "ProgXe+", "CAQE-nofb",
        "CAQE-noprune", "CAQE-count"}) {
    for (Distribution dist :
         {Distribution::kIndependent, Distribution::kCorrelated,
          Distribution::kAntiCorrelated}) {
      cases.push_back({engine, dist, 5});
    }
  }
  // Workload-size sweep on one engine pair.
  for (int nq : {1, 3, 11}) {
    cases.push_back({"CAQE", Distribution::kIndependent, nq});
    cases.push_back({"ProgXe+", Distribution::kIndependent, nq});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineCorrectnessTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// CAQE must remain exact with tie-heavy data when DVA mode is off.
TEST(TieSafetyTest, CaqeExactWithoutDvaOnTieHeavyData) {
  // Integer-quantized attributes force massive ties.
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05};
  cfg.seed = 5;
  Table raw_r = GenerateTable("R", cfg).value();
  cfg.seed = 6;
  Table raw_t = GenerateTable("T", cfg).value();
  auto quantize = [](const Table& in) {
    Table out(in.name(), in.num_attrs(), in.num_keys());
    std::vector<double> attrs(in.num_attrs());
    std::vector<int32_t> keys(in.num_keys());
    for (int64_t row = 0; row < in.num_rows(); ++row) {
      for (int a = 0; a < in.num_attrs(); ++a) {
        attrs[a] = std::floor(in.attr(row, a) / 20.0);  // 5 distinct values.
      }
      for (int k = 0; k < in.num_keys(); ++k) keys[k] = in.key(row, k);
      out.AppendRow(attrs, keys);
    }
    return out;
  };
  Table r = quantize(raw_r);
  Table t = quantize(raw_t);

  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract());
  ExecOptions options;
  options.capture_results = true;
  options.dva_mode = false;

  std::unique_ptr<Engine> engine = MakeEngine("CAQE").value();
  const Result<ExecutionReport> result =
      engine->Execute(r, t, workload, contracts, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (int q = 0; q < workload.num_queries(); ++q) {
    SCOPED_TRACE(workload.query(q).name);
    EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
              OracleSkyline(r, t, workload, q));
  }
}

// Same tie-heavy data with gating enabled: the strict-dominator form of
// the Theorem-1 shortcut must stay exact without the DVA assumption.
TEST(TieSafetyTest, CaqeExactWithDvaGatingOnTieHeavyData) {
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05};
  cfg.seed = 5;
  Table raw_r = GenerateTable("R", cfg).value();
  cfg.seed = 6;
  Table raw_t = GenerateTable("T", cfg).value();
  auto quantize = [](const Table& in) {
    Table out(in.name(), in.num_attrs(), in.num_keys());
    std::vector<double> attrs(in.num_attrs());
    std::vector<int32_t> keys(in.num_keys());
    for (int64_t row = 0; row < in.num_rows(); ++row) {
      for (int a = 0; a < in.num_attrs(); ++a) {
        attrs[a] = std::floor(in.attr(row, a) / 20.0);
      }
      for (int k = 0; k < in.num_keys(); ++k) keys[k] = in.key(row, k);
      out.AppendRow(attrs, keys);
    }
    return out;
  };
  Table r = quantize(raw_r);
  Table t = quantize(raw_t);

  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract());
  ExecOptions options;
  options.capture_results = true;
  options.dva_mode = true;

  for (const char* name : {"CAQE", "S-JFSL"}) {
    SCOPED_TRACE(name);
    const Result<ExecutionReport> result =
        MakeEngine(name).value()->Execute(r, t, workload, contracts,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
                OracleSkyline(r, t, workload, q));
    }
  }
}

// Multi-predicate workloads: queries joining on different key columns.
TEST(MultiPredicateTest, CaqeExactAcrossJoinPredicates) {
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05, 0.02};
  cfg.seed = 21;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = 22;
  Table t = GenerateTable("T", cfg).value();

  Workload workload;
  for (int k = 0; k < 3; ++k) workload.AddOutputDim({k, k, 1.0, 1.0});
  workload.AddQuery({"Q1", /*join_key=*/0, {0, 1}, 0.9});
  workload.AddQuery({"Q2", /*join_key=*/1, {1, 2}, 0.6});
  workload.AddQuery({"Q3", /*join_key=*/0, {0, 1, 2}, 0.4});
  workload.AddQuery({"Q4", /*join_key=*/1, {0, 2}, 0.2});

  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeHyperbolicDecayContract(5.0));
  ExecOptions options;
  options.capture_results = true;

  for (const char* name :
       {"CAQE", "S-JFSL", "JFSL", "SSMJ", "SSMJ+", "ProgXe+"}) {
    SCOPED_TRACE(name);
    std::unique_ptr<Engine> engine = MakeEngine(name).value();
    const Result<ExecutionReport> result =
        engine->Execute(r, t, workload, contracts, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
                OracleSkyline(r, t, workload, q));
    }
  }
}

// Per-query selection predicates (the paper's Section 4.1 generalization):
// engines must stay exact when queries filter their inputs, including when
// queries with different selections share a join predicate.
TEST(SelectionTest, MixedSelectionsStayExactAcrossEngines) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 350, 3, 0.04);
  Workload workload;
  for (int k = 0; k < 3; ++k) workload.AddOutputDim({k, k, 1.0, 1.0});
  // Q1: unfiltered. Q2: cheap-R only. Q3: mid-range T. Q4: both sides,
  // same predicate as the others (three distinct plan groups result).
  workload.AddQuery({"Q1", 0, {0, 1}, 0.9});
  workload.AddQuery(
      {"Q2", 0, {0, 2}, 0.7, {{true, 0, 1.0, 40.0}}});
  workload.AddQuery(
      {"Q3", 0, {1, 2}, 0.5, {{false, 1, 25.0, 75.0}}});
  workload.AddQuery({"Q4",
                     0,
                     {0, 1, 2},
                     0.3,
                     {{true, 0, 1.0, 60.0}, {false, 2, 10.0, 90.0}}});

  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract(0.01));
  ExecOptions options;
  options.capture_results = true;

  for (const char* name :
       {"CAQE", "S-JFSL", "JFSL", "SSMJ", "SSMJ+", "ProgXe+", "CAQE-nofb",
        "CAQE-noprune"}) {
    SCOPED_TRACE(name);
    const Result<ExecutionReport> result =
        MakeEngine(name).value()->Execute(r, t, workload, contracts,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
                OracleSkyline(r, t, workload, q));
    }
  }
}

TEST(SelectionTest, EmptySelectionRangeYieldsNoResults) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 100, 2, 0.1);
  Workload workload;
  workload.AddOutputDim({0, 0, 1.0, 1.0});
  workload.AddOutputDim({1, 1, 1.0, 1.0});
  // Selection range outside the attribute domain [1, 100].
  workload.AddQuery(
      {"Q1", 0, {0, 1}, 1.0, {{true, 0, 500.0, 600.0}}});
  std::vector<Contract> contracts = {MakeLogDecayContract()};
  ExecOptions options;
  options.capture_results = true;
  for (const char* name : {"CAQE", "JFSL", "SSMJ", "ProgXe+"}) {
    SCOPED_TRACE(name);
    const ExecutionReport report = MakeEngine(name)
                                       .value()
                                       ->Execute(r, t, workload, contracts,
                                                 options)
                                       .value();
    EXPECT_EQ(report.queries[0].results, 0);
  }
}

TEST(SelectionTest, CoarsePruneRemainsSoundWithSelections) {
  // A narrow selection leaves most regions only *overlapping* (not
  // guaranteed); the guarded coarse prune must not discard results.
  auto [r, t] = MakeTables(Distribution::kCorrelated, 300, 2, 0.05);
  Workload workload;
  workload.AddOutputDim({0, 0, 1.0, 1.0});
  workload.AddOutputDim({1, 1, 1.0, 1.0});
  workload.AddQuery(
      {"Q1", 0, {0, 1}, 1.0, {{true, 0, 45.0, 55.0}}});
  workload.AddQuery({"Q2", 0, {0, 1}, 0.5});
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract(0.01));
  ExecOptions options;
  options.capture_results = true;
  const ExecutionReport report = MakeEngine("CAQE")
                                     .value()
                                     ->Execute(r, t, workload, contracts,
                                               options)
                                     .value();
  for (int q = 0; q < workload.num_queries(); ++q) {
    SCOPED_TRACE(workload.query(q).name);
    EXPECT_EQ(SortedReportedValues(report.queries[q], workload, q),
              OracleSkyline(r, t, workload, q));
  }
}

// The no-retraction guarantee, checked directly: once a result is
// reported for a query, no later-reported result of that query may
// dominate it (progressive engines would otherwise have surfaced a tuple
// that the final skyline excludes).
class EmissionSafetyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmissionSafetyTest, NoEmittedResultIsDominatedLater) {
  const uint64_t seed = GetParam();
  auto [r, t] = MakeTables(static_cast<Distribution>(seed % 3),
                           300 + static_cast<int64_t>(seed % 100), 3, 0.04,
                           seed);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform, seed).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeHyperbolicDecayContract(0.05, 0.05));
  ExecOptions options;
  options.capture_results = true;

  for (const char* name : {"CAQE", "S-JFSL", "ProgXe+", "CAQE-count"}) {
    SCOPED_TRACE(std::string(name) + " seed=" + std::to_string(seed));
    const ExecutionReport report = MakeEngine(name)
                                       .value()
                                       ->Execute(r, t, workload, contracts,
                                                 options)
                                       .value();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      // Normalize to preference-dim projections (per-query engines report
      // sliced tuples, shared engines full-width ones).
      std::vector<std::vector<double>> projected;
      for (const ReportedResult& tuple : report.queries[q].tuples) {
        projected.push_back(
            ::caqe::testing::ProjectReported(tuple.values, workload, q));
      }
      std::vector<int> dims;
      for (size_t k = 0; k < workload.query(q).preference.size(); ++k) {
        dims.push_back(static_cast<int>(k));
      }
      for (size_t i = 0; i < projected.size(); ++i) {
        for (size_t j = i + 1; j < projected.size(); ++j) {
          EXPECT_FALSE(
              Dominates(projected[j].data(), projected[i].data(), dims))
              << "result " << j << " dominates earlier result " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmissionSafetyTest,
                         ::testing::Values<uint64_t>(7, 19, 42, 77));

// Degenerate inputs must be handled gracefully by every engine.
TEST(EdgeCaseTest, EmptyJoinOutputYieldsEmptyResults) {
  // Disjoint key domains: R uses keys {0..9}, T gets keys shifted out of
  // range, so no pair ever joins.
  GeneratorConfig cfg;
  cfg.num_rows = 100;
  cfg.num_attrs = 2;
  cfg.join_selectivities = {0.1};
  cfg.seed = 1;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = 2;
  Table raw_t = GenerateTable("T", cfg).value();
  Table t("T", 2, 1);
  for (int64_t row = 0; row < raw_t.num_rows(); ++row) {
    t.AppendRow({raw_t.attr(row, 0), raw_t.attr(row, 1)},
                {static_cast<int32_t>(raw_t.key(row, 0) + 1000)});
  }

  const Workload workload =
      MakeSubspaceWorkload(2, 0, 1, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts = {MakeLogDecayContract()};
  ExecOptions options;
  options.capture_results = true;
  for (const char* name :
       {"CAQE", "S-JFSL", "JFSL", "SSMJ", "SSMJ+", "ProgXe+"}) {
    SCOPED_TRACE(name);
    const Result<ExecutionReport> result =
        MakeEngine(name).value()->Execute(r, t, workload, contracts,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->queries[0].results, 0);
    EXPECT_EQ(result->stats.emitted_results, 0);
  }
}

TEST(EdgeCaseTest, SingleRowTables) {
  Table r("R", 2, 1);
  r.AppendRow({3.0, 4.0}, {7});
  Table t("T", 2, 1);
  t.AppendRow({1.0, 2.0}, {7});
  Workload workload;
  workload.AddOutputDim({0, 0, 1.0, 1.0});
  workload.AddOutputDim({1, 1, 1.0, 1.0});
  workload.AddQuery({"Q1", 0, {0, 1}, 1.0});
  std::vector<Contract> contracts = {MakeTimeStepContract(10.0)};
  ExecOptions options;
  options.capture_results = true;
  for (const char* name : {"CAQE", "S-JFSL", "JFSL", "SSMJ", "ProgXe+"}) {
    SCOPED_TRACE(name);
    const ExecutionReport report = MakeEngine(name)
                                       .value()
                                       ->Execute(r, t, workload, contracts,
                                                 options)
                                       .value();
    ASSERT_EQ(report.queries[0].results, 1);
    EXPECT_DOUBLE_EQ(report.queries[0].tuples[0].values[0], 4.0);
    EXPECT_DOUBLE_EQ(report.queries[0].tuples[0].values[1], 6.0);
    EXPECT_DOUBLE_EQ(report.queries[0].satisfaction, 1.0);
  }
}

TEST(EdgeCaseTest, CrossProductJoinSelectivityOne) {
  // Selectivity 1 => a single key value => the join is a full cross
  // product; engines stay exact.
  auto [r, t] = MakeTables(Distribution::kIndependent, 60, 2, 1.0);
  const Workload workload =
      MakeSubspaceWorkload(2, 0, 1, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts = {MakeLogDecayContract()};
  ExecOptions options;
  options.capture_results = true;
  for (const char* name : {"CAQE", "SSMJ+"}) {
    SCOPED_TRACE(name);
    const ExecutionReport report = MakeEngine(name)
                                       .value()
                                       ->Execute(r, t, workload, contracts,
                                                 options)
                                       .value();
    EXPECT_EQ(SortedReportedValues(report.queries[0], workload, 0),
              OracleSkyline(r, t, workload, 0));
  }
}

// Quad-tree partitioning must leave every engine exact.
TEST(QuadTreePartitioningTest, CaqeExactWithQuadTree) {
  auto [r, t] = MakeTables(Distribution::kCorrelated, 400, 3, 0.03);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract(0.01));
  ExecOptions options;
  options.capture_results = true;
  options.partition_strategy = PartitionStrategy::kQuadTree;
  for (const char* name : {"CAQE", "ProgXe+"}) {
    SCOPED_TRACE(name);
    const Result<ExecutionReport> result =
        MakeEngine(name).value()->Execute(r, t, workload, contracts,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
                OracleSkyline(r, t, workload, q));
    }
  }
}

// The virtual clock makes runs deterministic: identical inputs produce
// bit-identical reports.
TEST(DeterminismTest, IdenticalRunsProduceIdenticalReports) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 400, 3, 0.03);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeHyperbolicDecayContract(0.1, 0.1));
  ExecOptions options;
  options.capture_results = true;

  for (const char* name : {"CAQE", "ProgXe+"}) {
    SCOPED_TRACE(name);
    const ExecutionReport a = MakeEngine(name)
                                  .value()
                                  ->Execute(r, t, workload, contracts,
                                            options)
                                  .value();
    const ExecutionReport b = MakeEngine(name)
                                  .value()
                                  ->Execute(r, t, workload, contracts,
                                            options)
                                  .value();
    EXPECT_EQ(a.stats.join_results, b.stats.join_results);
    EXPECT_EQ(a.stats.dominance_cmps, b.stats.dominance_cmps);
    EXPECT_EQ(a.stats.virtual_seconds, b.stats.virtual_seconds);
    EXPECT_EQ(a.workload_pscore, b.workload_pscore);
    for (int q = 0; q < workload.num_queries(); ++q) {
      ASSERT_EQ(a.queries[q].tuples.size(), b.queries[q].tuples.size());
      for (size_t i = 0; i < a.queries[q].tuples.size(); ++i) {
        EXPECT_EQ(a.queries[q].tuples[i].time, b.queries[q].tuples[i].time);
        EXPECT_EQ(a.queries[q].tuples[i].values,
                  b.queries[q].tuples[i].values);
      }
    }
  }
}

// Seed fuzzing: randomized workloads stay exact across engines.
class FuzzSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSeedTest, RandomWorkloadsAreExact) {
  const uint64_t seed = GetParam();
  GeneratorConfig cfg;
  cfg.num_rows = 200 + static_cast<int64_t>(seed % 150);
  cfg.num_attrs = 3 + static_cast<int>(seed % 2);
  cfg.join_selectivities = {0.03, 0.08};
  cfg.distribution = static_cast<Distribution>(seed % 3);
  cfg.join_key_correlation = (seed % 5 == 0) ? 0.8 : 0.0;
  cfg.seed = seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = seed + 1000;
  Table t = GenerateTable("T", cfg).value();

  const Workload workload =
      MakeRandomWorkload(cfg.num_attrs, 2, 5, PriorityPolicy::kRandom, seed)
          .value();
  std::vector<Contract> contracts;
  for (int q = 0; q < workload.num_queries(); ++q) {
    contracts.push_back(q % 2 == 0 ? MakeLogDecayContract(0.01)
                                   : MakeCardinalityContract(0.2, 0.1));
  }
  ExecOptions options;
  options.capture_results = true;
  options.dva_mode = (seed % 2 == 0);

  for (const char* name : {"CAQE", "S-JFSL", "SSMJ+"}) {
    SCOPED_TRACE(std::string(name) + " seed=" + std::to_string(seed));
    const Result<ExecutionReport> result =
        MakeEngine(name).value()->Execute(r, t, workload, contracts,
                                          options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (int q = 0; q < workload.num_queries(); ++q) {
      SCOPED_TRACE(workload.query(q).name);
      EXPECT_EQ(SortedReportedValues(result->queries[q], workload, q),
                OracleSkyline(r, t, workload, q));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Range<uint64_t>(100, 112));

// Engines fill the always-on utility trace consistently with the captured
// tuples, and the CAQE core reports a coherent event trace.
TEST(TraceTest, EventTraceIsCoherent) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 400, 3, 0.03);
  const Workload workload =
      MakeSubspaceWorkload(3, 0, 4, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract(0.01));
  ExecOptions options;
  Observability obs;
  options.obs = &obs;

  const ExecutionReport report = MakeEngine("CAQE")
                                     .value()
                                     ->Execute(r, t, workload, contracts,
                                               options)
                                     .value();
  int64_t scheduled = 0;
  int64_t discarded = 0;
  int64_t emitted = 0;
  double last_time = 0.0;
  for (const ContractEvent& event : obs.events.Snapshot()) {
    EXPECT_GE(event.vtime, last_time);
    last_time = event.vtime;
    switch (event.kind) {
      case ContractEventKind::kRegionScheduled:
        ++scheduled;
        EXPECT_GE(event.region, 0);
        break;
      case ContractEventKind::kRegionDiscarded:
        ++discarded;
        break;
      case ContractEventKind::kResultsEmitted:
        emitted += event.count;
        EXPECT_GE(event.query, 0);
        break;
      case ContractEventKind::kRegionStep:
      case ContractEventKind::kQueryPruned:
        break;
      default:
        ADD_FAILURE() << "batch run recorded a serving event: "
                      << ContractEventKindName(event.kind);
    }
  }
  EXPECT_EQ(scheduled, report.stats.regions_processed);
  EXPECT_EQ(discarded + report.stats.regions_processed,
            report.stats.regions_built);
  EXPECT_EQ(emitted, report.stats.emitted_results);
  // The always-on utility trace agrees with the per-query counts.
  for (const QueryReport& query : report.queries) {
    EXPECT_EQ(static_cast<int64_t>(query.utility_trace.size()),
              query.results);
  }
}

// Sharing must pay off: CAQE generates no more join results and no more
// dominance comparisons than the non-shared JFSL baseline.
TEST(EfficiencyTest, CaqeDoesLessWorkThanJfsl) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 600, 4, 0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 11, PriorityPolicy::kUniform).value();
  std::vector<Contract> contracts(workload.num_queries(),
                                  MakeLogDecayContract());
  ExecOptions options;

  const ExecutionReport caqe = MakeEngine("CAQE")
                                   .value()
                                   ->Execute(r, t, workload, contracts,
                                             options)
                                   .value();
  const ExecutionReport jfsl = MakeEngine("JFSL")
                                   .value()
                                   ->Execute(r, t, workload, contracts,
                                             options)
                                   .value();
  EXPECT_LT(caqe.stats.join_results, jfsl.stats.join_results);
  EXPECT_LT(caqe.stats.dominance_cmps, jfsl.stats.dominance_cmps);
}

}  // namespace
}  // namespace caqe
