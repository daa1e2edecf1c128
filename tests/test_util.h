// Shared helpers for CAQE tests: oracle computation, data setup and report
// comparison.
#ifndef CAQE_TESTS_TEST_UTIL_H_
#define CAQE_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/generator.h"
#include "data/table.h"
#include "metrics/report.h"
#include "query/query.h"
#include "skyline/algorithms.h"
#include "skyline/point_set.h"

namespace caqe {
namespace testing {

/// Materializes the full projected join output of query `q` (nested loop —
/// the slow, obviously correct path).
inline PointSet FullJoinOutput(const Table& r, const Table& t,
                               const Workload& workload, int q) {
  const SjQuery& query = workload.query(q);
  PointSet out(workload.num_output_dims());
  std::vector<double> values;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    for (int64_t j = 0; j < t.num_rows(); ++j) {
      if (r.key(i, query.join_key) != t.key(j, query.join_key)) continue;
      if (!workload.SelectionsPass(q, r, i, t, j)) continue;
      workload.Project(r, i, t, j, values);
      out.Append(values);
    }
  }
  return out;
}

/// The reference skyline of query `q`, as sorted rows of preference-dim
/// values (in preference order — comparable across engines that report
/// full-width or preference-only tuples).
inline std::vector<std::vector<double>> OracleSkyline(const Table& r,
                                                      const Table& t,
                                                      const Workload& workload,
                                                      int q) {
  const PointSet output = FullJoinOutput(r, t, workload, q);
  const std::vector<int>& pref = workload.query(q).preference;
  const std::vector<int64_t> sky = BruteForceSkyline(output, pref);
  std::vector<std::vector<double>> rows;
  for (int64_t id : sky) {
    std::vector<double> row;
    for (int k : pref) row.push_back(output.row(id)[k]);
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Projects a reported result row onto the query's preference dimensions.
/// Engines either report full-width output tuples or (per-query engines)
/// tuples already reduced to the preference dims in preference order.
inline std::vector<double> ProjectReported(const std::vector<double>& values,
                                           const Workload& workload, int q) {
  const std::vector<int>& pref = workload.query(q).preference;
  if (values.size() == pref.size()) return values;
  std::vector<double> row;
  for (int k : pref) row.push_back(values[k]);
  return row;
}

/// Generates an (R, T) pair with matching schemas and distinct seeds.
inline std::pair<Table, Table> MakeTables(Distribution dist, int64_t rows,
                                          int attrs, double selectivity,
                                          uint64_t seed = 11) {
  GeneratorConfig cfg;
  cfg.num_rows = rows;
  cfg.num_attrs = attrs;
  cfg.join_selectivities = {selectivity};
  cfg.distribution = dist;
  cfg.seed = seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = seed + 1;
  Table t = GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

/// Asserts bit-identity of every determinism-contract report field.
inline void ExpectReportsIdentical(const ExecutionReport& got,
                                   const ExecutionReport& want) {
  EXPECT_EQ(got.stats.join_probes, want.stats.join_probes);
  EXPECT_EQ(got.stats.join_results, want.stats.join_results);
  EXPECT_EQ(got.stats.dominance_cmps, want.stats.dominance_cmps);
  EXPECT_EQ(got.stats.coarse_ops, want.stats.coarse_ops);
  EXPECT_EQ(got.stats.emitted_results, want.stats.emitted_results);
  EXPECT_EQ(got.stats.regions_built, want.stats.regions_built);
  EXPECT_EQ(got.stats.regions_processed, want.stats.regions_processed);
  EXPECT_EQ(got.stats.regions_discarded, want.stats.regions_discarded);
  EXPECT_EQ(got.stats.virtual_seconds, want.stats.virtual_seconds);
  EXPECT_EQ(got.workload_pscore, want.workload_pscore);
  EXPECT_EQ(got.average_satisfaction, want.average_satisfaction);
  ASSERT_EQ(got.queries.size(), want.queries.size());
  for (size_t q = 0; q < got.queries.size(); ++q) {
    const QueryReport& g = got.queries[q];
    const QueryReport& w = want.queries[q];
    EXPECT_EQ(g.results, w.results);
    EXPECT_EQ(g.pscore, w.pscore);
    EXPECT_EQ(g.satisfaction, w.satisfaction);
    ASSERT_EQ(g.utility_trace.size(), w.utility_trace.size());
    for (size_t i = 0; i < g.utility_trace.size(); ++i) {
      EXPECT_EQ(g.utility_trace[i].time, w.utility_trace[i].time);
      EXPECT_EQ(g.utility_trace[i].utility, w.utility_trace[i].utility);
    }
    ASSERT_EQ(g.tuples.size(), w.tuples.size());
    for (size_t i = 0; i < g.tuples.size(); ++i) {
      EXPECT_EQ(g.tuples[i].tuple_id, w.tuples[i].tuple_id);
      EXPECT_EQ(g.tuples[i].time, w.tuples[i].time);
      EXPECT_EQ(g.tuples[i].values, w.tuples[i].values);
    }
  }
}

}  // namespace testing
}  // namespace caqe

#endif  // CAQE_TESTS_TEST_UTIL_H_
