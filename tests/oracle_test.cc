// Differential oracle for the shared-plan engines: a deliberately naive
// reference executor — per-query nested-loop join, then an O(n^2) skyline
// written right here with no code shared with src/skyline — is compared
// against the engine over randomized workloads (seeds x dims x join
// selectivities x contract mixes), at every cell of
// threads {1, 8} x pipeline {off, on}.
//
// Two properties are asserted per cell:
//   1. Correctness: the reported result set of every query equals the
//      naive executor's skyline exactly.
//   2. Determinism: the full execution report (every counter, virtual
//      time, pScore, satisfaction, utility trace, and captured tuple with
//      its timestamp) is bit-identical to the threads=1/pipeline=off
//      reference.
//
// The third determinism axis, the SIMD build (CAQE_SIMD=OFF/ON), cannot be
// toggled in-process — kernel dispatch is a function-local static resolved
// once per process — so it is covered by scripts/run_simd_matrix.sh, which
// runs this whole test binary under both builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "caqe/session.h"
#include "query/workload_generator.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "test_util.h"

namespace caqe {
namespace {

// ---- The naive reference executor ----
//
// No partitioning, no regions, no sharing across queries, no incremental
// skyline maintenance: materialize each query's join output by brute force
// and keep exactly the rows no other row strictly dominates.

/// Strict dominance over `pref`, restated from the paper's Definition 2
/// (smaller is better): a <= b everywhere and a < b somewhere.
bool NaiveDominates(const std::vector<double>& a, const std::vector<double>& b,
                    const std::vector<int>& pref) {
  bool strictly_better = false;
  for (int k : pref) {
    if (a[k] > b[k]) return false;
    if (a[k] < b[k]) strictly_better = true;
  }
  return strictly_better;
}

/// Runs query `q` end to end the slow way; returns its skyline as sorted
/// preference-dim rows (the comparable form of integration_test).
std::vector<std::vector<double>> NaiveQueryResult(const Table& r,
                                                  const Table& t,
                                                  const Workload& workload,
                                                  int q) {
  const SjQuery& query = workload.query(q);
  std::vector<std::vector<double>> output;
  std::vector<double> values;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    for (int64_t j = 0; j < t.num_rows(); ++j) {
      if (r.key(i, query.join_key) != t.key(j, query.join_key)) continue;
      if (!workload.SelectionsPass(q, r, i, t, j)) continue;
      workload.Project(r, i, t, j, values);
      output.push_back(values);
    }
  }
  std::vector<std::vector<double>> skyline;
  for (size_t i = 0; i < output.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < output.size() && !dominated; ++j) {
      if (i == j) continue;
      dominated = NaiveDominates(output[j], output[i], query.preference);
    }
    if (dominated) continue;
    std::vector<double> row;
    for (int k : query.preference) row.push_back(output[i][k]);
    skyline.push_back(std::move(row));
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

std::vector<std::vector<double>> SortedReportedValues(
    const QueryReport& report, const Workload& workload, int q) {
  std::vector<std::vector<double>> rows;
  for (const ReportedResult& r : report.tuples) {
    rows.push_back(::caqe::testing::ProjectReported(r.values, workload, q));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// One randomized differential case. Workload flavors: "subspace" uses a
/// single shared join key (maximum sharing), "random" draws per-query join
/// keys from `num_join_keys` predicates (partial sharing).
struct OracleCase {
  std::string name;
  std::string engine;
  std::string workload_kind;  // "subspace" | "random"
  Distribution dist = Distribution::kIndependent;
  int64_t rows = 300;
  int attrs = 4;
  int num_join_keys = 1;
  double selectivity = 0.02;
  int num_queries = 5;
  PriorityPolicy policy = PriorityPolicy::kUniform;
  std::string contract_mix;  // "log" | "mixed" | "all"
  uint64_t seed = 11;
  int target_regions = 512;
  /// The regions are large enough that projection and plan-group
  /// evaluation fork at 8 threads; the sweep asserts that they do.
  bool forks = false;
};

Contract ContractFor(const OracleCase& c, int q) {
  if (c.contract_mix == "log") return MakeLogDecayContract(0.05);
  if (c.contract_mix == "mixed") {
    switch (q % 3) {
      case 0:
        return MakeLogDecayContract(0.02);
      case 1:
        return MakeTimeStepContract(1.0);
      default:
        return MakeCardinalityContract(0.1, 0.2);
    }
  }
  // "all": rotate through every contract class of Table 2.
  switch (q % 5) {
    case 0:
      return MakeTimeStepContract(0.8);
    case 1:
      return MakeLogDecayContract(0.05);
    case 2:
      return MakeHyperbolicDecayContract(0.5, 0.1);
    case 3:
      return MakeCardinalityContract(0.1, 0.2);
    default:
      return MakeHybridContract(0.1, 0.2, 0.1);
  }
}

std::pair<Table, Table> TablesFor(const OracleCase& c) {
  GeneratorConfig cfg;
  cfg.num_rows = c.rows;
  cfg.num_attrs = c.attrs;
  cfg.join_selectivities.assign(c.num_join_keys, c.selectivity);
  cfg.distribution = c.dist;
  cfg.seed = c.seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = c.seed + 1;
  Table t = GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

Workload WorkloadFor(const OracleCase& c) {
  if (c.workload_kind == "subspace") {
    return MakeSubspaceWorkload(c.attrs, /*join_key=*/0, c.num_queries,
                                c.policy, c.seed)
        .value();
  }
  return MakeRandomWorkload(c.attrs, c.num_join_keys, c.num_queries, c.policy,
                            c.seed)
      .value();
}

class OracleDifferentialTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleDifferentialTest, EngineMatchesNaiveExecutorAtEveryCell) {
  const OracleCase& c = GetParam();
  auto [r, t] = TablesFor(c);
  const Workload workload = WorkloadFor(c);
  std::vector<Contract> contracts;
  for (int q = 0; q < workload.num_queries(); ++q) {
    contracts.push_back(ContractFor(c, q));
  }

  // The naive executor's verdict, computed once per case.
  std::vector<std::vector<std::vector<double>>> naive;
  for (int q = 0; q < workload.num_queries(); ++q) {
    naive.push_back(NaiveQueryResult(r, t, workload, q));
  }

  bool have_reference = false;
  ExecutionReport reference;
  for (int threads : {1, 8}) {
    for (bool pipeline : {false, true}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads) +
                   " pipeline=" + (pipeline ? "on" : "off"));
      ExecOptions options;
      options.capture_results = true;
      options.num_threads = threads;
      options.pipeline_regions = pipeline;
      options.target_regions = c.target_regions;
      Observability obs;
      options.obs = &obs;
      std::unique_ptr<Engine> engine = MakeEngine(c.engine).value();
      const Result<ExecutionReport> result =
          engine->Execute(r, t, workload, contracts, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const ExecutionReport& report = *result;
      if (c.forks && threads > 1) {
        EXPECT_GT(::caqe::testing::PhaseForks(obs, "project"), 0);
        EXPECT_GT(::caqe::testing::PhaseForks(obs, "evaluate"), 0);
      }

      ASSERT_EQ(report.queries.size(),
                static_cast<size_t>(workload.num_queries()));
      for (int q = 0; q < workload.num_queries(); ++q) {
        SCOPED_TRACE("query=" + workload.query(q).name);
        EXPECT_EQ(SortedReportedValues(report.queries[q], workload, q),
                  naive[q]);
        EXPECT_EQ(report.queries[q].results,
                  static_cast<int64_t>(naive[q].size()));
      }

      if (!have_reference) {
        reference = report;
        have_reference = true;
      } else {
        ::caqe::testing::ExpectReportsIdentical(report, reference);
      }
    }
  }
}

std::string CaseName(const ::testing::TestParamInfo<OracleCase>& info) {
  return info.param.name;
}

std::vector<OracleCase> AllCases() {
  std::vector<OracleCase> cases;
  {
    // Maximum sharing, uniform priorities, one contract class.
    OracleCase c;
    c.name = "caqe_subspace_independent_log";
    c.engine = "CAQE";
    c.workload_kind = "subspace";
    c.dist = Distribution::kIndependent;
    c.rows = 300;
    c.attrs = 4;
    c.selectivity = 0.02;
    c.num_queries = 5;
    c.contract_mix = "log";
    c.seed = 101;
    cases.push_back(c);
  }
  {
    // Correlated data, two join predicates, random preferences, mixed
    // contracts — exercises partial sharing and multi-slot regions.
    OracleCase c;
    c.name = "caqe_random_correlated_mixed";
    c.engine = "CAQE";
    c.workload_kind = "random";
    c.dist = Distribution::kCorrelated;
    c.rows = 300;
    c.attrs = 5;
    c.num_join_keys = 2;
    c.selectivity = 0.04;
    c.num_queries = 6;
    c.policy = PriorityPolicy::kRandom;
    c.contract_mix = "mixed";
    c.seed = 202;
    cases.push_back(c);
  }
  {
    // Anti-correlated data (largest skylines), decreasing priorities.
    OracleCase c;
    c.name = "caqe_subspace_anticorrelated_mixed";
    c.engine = "CAQE";
    c.workload_kind = "subspace";
    c.dist = Distribution::kAntiCorrelated;
    c.rows = 250;
    c.attrs = 3;
    c.selectivity = 0.03;
    c.num_queries = 4;
    c.policy = PriorityPolicy::kDimDecreasing;
    c.contract_mix = "mixed";
    c.seed = 303;
    cases.push_back(c);
  }
  {
    // Dense join, every contract class of Table 2, bigger workload.
    OracleCase c;
    c.name = "caqe_random_independent_all";
    c.engine = "CAQE";
    c.workload_kind = "random";
    c.dist = Distribution::kIndependent;
    c.rows = 250;
    c.attrs = 4;
    c.num_join_keys = 2;
    c.selectivity = 0.05;
    c.num_queries = 8;
    c.policy = PriorityPolicy::kRandom;
    c.contract_mix = "all";
    c.seed = 404;
    cases.push_back(c);
  }
  {
    // Few, large regions over two join keys: the pooled projection,
    // plan-group evaluation and emission flush run at 8 threads.
    OracleCase c;
    c.name = "caqe_random_independent_large_regions";
    c.engine = "CAQE";
    c.workload_kind = "random";
    c.dist = Distribution::kIndependent;
    c.rows = 1000;
    c.attrs = 4;
    c.num_join_keys = 2;
    c.selectivity = 0.07;
    c.num_queries = 4;
    c.contract_mix = "mixed";
    c.seed = 707;
    c.target_regions = 16;
    c.forks = true;
    cases.push_back(c);
  }
  {
    // The other shared-plan engine that grew the pipeline flag.
    OracleCase c;
    c.name = "progxe_subspace_independent_mixed";
    c.engine = "ProgXe+";
    c.workload_kind = "subspace";
    c.dist = Distribution::kIndependent;
    c.rows = 300;
    c.attrs = 4;
    c.selectivity = 0.02;
    c.num_queries = 5;
    c.contract_mix = "mixed";
    c.seed = 505;
    cases.push_back(c);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Randomized, OracleDifferentialTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ---- Serving-layer oracle: calibration never changes correctness ----
//
// Self-tuning admission (--calibrate) may flip admit/defer/reject verdicts
// and their timing, but the result *stream* of every request that runs to
// completion must still be exactly its query's skyline — under both
// controllers. In particular a request completed in both legs emits the
// identical result set.
TEST(ServingOracleTest, CalibrationPreservesEmittedResultSets) {
  GeneratorConfig cfg;
  cfg.num_rows = 250;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.05, 0.05};
  cfg.seed = 606;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 607;
  const Table t = GenerateTable("T", cfg).value();
  const std::vector<MappingFunction> dims = {
      MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};

  TraceConfig trace_config;
  trace_config.num_requests = 12;
  trace_config.arrival_rate = 30.0;
  trace_config.seed = 606;
  trace_config.reference_seconds = 0.05;
  trace_config.deadline_fraction = 0.25;
  const std::vector<TraceRequest> trace =
      MakeSyntheticTrace(trace_config, {0, 1}, 3);

  // One reference workload holding every trace query, so the naive
  // executor and the projection helper see identical selection semantics.
  Workload reference;
  for (const MappingFunction& f : dims) reference.AddOutputDim(f);
  for (const TraceRequest& request : trace) reference.AddQuery(request.query);

  struct Leg {
    ServingReport report;
    std::vector<std::vector<std::vector<double>>> streamed;  // by request
  };
  const auto run_leg = [&](bool calibrate) {
    ServeOptions options;
    options.target_regions = 64;
    options.calibrate = calibrate;
    auto server =
        CaqeServer::Create(r, t, dims, {0, 1}, options).value();
    Leg leg;
    leg.streamed.resize(trace.size());
    std::vector<std::vector<int64_t>> ids(trace.size());
    SubmitTrace(*server, trace,
                [&](int request_id, int64_t tuple_id, double, double) {
                  ids[static_cast<size_t>(request_id)].push_back(tuple_id);
                });
    leg.report = server->Run().value();
    for (size_t q = 0; q < trace.size(); ++q) {
      for (int64_t tuple : ids[q]) {
        const double* values = server->store().row(tuple);
        leg.streamed[q].push_back(::caqe::testing::ProjectReported(
            std::vector<double>(values, values + 3), reference,
            static_cast<int>(q)));
      }
      std::sort(leg.streamed[q].begin(), leg.streamed[q].end());
    }
    return leg;
  };

  const Leg off = run_leg(false);
  const Leg on = run_leg(true);
  EXPECT_GE(on.report.completed, 1);

  int both_completed = 0;
  for (size_t q = 0; q < trace.size(); ++q) {
    SCOPED_TRACE("request " + std::to_string(q));
    const auto naive = NaiveQueryResult(r, t, reference, static_cast<int>(q));
    const bool off_done =
        off.report.requests[q].status == RequestStatus::kCompleted;
    const bool on_done =
        on.report.requests[q].status == RequestStatus::kCompleted;
    // Completion means the exact skyline streamed — with either controller.
    if (off_done) EXPECT_EQ(off.streamed[q], naive);
    if (on_done) EXPECT_EQ(on.streamed[q], naive);
    if (off_done && on_done) {
      ++both_completed;
      EXPECT_EQ(off.streamed[q], on.streamed[q]);
    }
  }
  EXPECT_GE(both_completed, 1);
}

}  // namespace
}  // namespace caqe
