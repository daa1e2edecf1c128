// Unit tests for the execution layer: emission manager, join kernel, input
// partitioning, and the metrics printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "caqe/session.h"
#include "contracts/utility.h"
#include "exec/emission.h"
#include "exec/engine.h"
#include "exec/join_kernel.h"
#include "exec/shared_core.h"
#include "metrics/export.h"
#include "metrics/printer.h"
#include "obs/observability.h"
#include "partition/partitioner.h"
#include "query/workload_generator.h"
#include "region/region_builder.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::MakeTables;

TEST(ExactTotalJoinSizeTest, MatchesNestedLoop) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 150, 2, 0.1);
  int64_t brute = 0;
  for (int64_t i = 0; i < r.num_rows(); ++i) {
    for (int64_t j = 0; j < t.num_rows(); ++j) {
      if (r.key(i, 0) == t.key(j, 0)) ++brute;
    }
  }
  EXPECT_EQ(ExactTotalJoinSize(r, t, 0), brute);
}

TEST(AdaptiveTargetRegionsTest, ScalesWithJoinOutput) {
  ExecOptions options;
  options.target_regions = 512;
  auto [small_r, small_t] = MakeTables(Distribution::kIndependent, 200, 2, 0.01);
  auto [big_r, big_t] = MakeTables(Distribution::kIndependent, 5000, 2, 0.05);
  Workload wl;
  wl.AddOutputDim({0, 0, 1.0, 1.0});
  wl.AddQuery({"Q1", 0, {0}, 1.0});
  const int small_target = AdaptiveTargetRegions(options, small_r, small_t, wl);
  const int big_target = AdaptiveTargetRegions(options, big_r, big_t, wl);
  EXPECT_LT(small_target, big_target);
  EXPECT_GE(small_target, 16);
  EXPECT_LE(big_target, 512);
  // Explicit cells_per_dim bypasses adaptation.
  options.cells_per_dim = 3;
  EXPECT_EQ(AdaptiveTargetRegions(options, small_r, small_t, wl), 512);
}

// ---- Join kernel ----

TEST(JoinKernelTest, MatchesNestedLoopPerRegion) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 200, 2, 0.1);
  const Workload workload =
      MakeSubspaceWorkload(2, 0, 1, PriorityPolicy::kUniform).value();
  const PartitionedTable pr = PartitionTable(r, 2).value();
  const PartitionedTable pt = PartitionTable(t, 2).value();
  const RegionCollection rc = BuildRegions(pr, pt, workload).value();

  CellJoinKernel kernel(&pr, &pt);
  EngineStats stats;
  for (const OutputRegion& region : rc.regions) {
    std::vector<JoinMatch> matches;
    kernel.Join(rc, region, /*slots_mask=*/1, matches, stats);
    // Count nested-loop matches.
    int64_t expected = 0;
    for (int64_t i : pr.cell(region.cell_r).rows) {
      for (int64_t j : pt.cell(region.cell_t).rows) {
        if (r.key(i, 0) == t.key(j, 0)) ++expected;
      }
    }
    EXPECT_EQ(static_cast<int64_t>(matches.size()), expected);
    EXPECT_EQ(expected, region.join_size(0));
    for (const JoinMatch& m : matches) {
      EXPECT_EQ(r.key(m.row_r, 0), t.key(m.row_t, 0));
      EXPECT_EQ(m.slot_mask, 1u);
    }
  }
  EXPECT_GT(stats.join_probes, 0);
  EXPECT_EQ(stats.join_results, rc.total_join_sizes[0]);
}

TEST(JoinKernelTest, MultiSlotDeduplicatesPairs) {
  // Two predicates on the same key column: every matching pair matches
  // both slots and must appear once with both bits set.
  GeneratorConfig cfg;
  cfg.num_rows = 120;
  cfg.num_attrs = 2;
  cfg.join_selectivities = {0.2, 0.2};
  cfg.seed = 31;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = 32;
  Table t = GenerateTable("T", cfg).value();

  Workload wl;
  wl.AddOutputDim({0, 0, 1.0, 1.0});
  wl.AddOutputDim({1, 1, 1.0, 1.0});
  wl.AddQuery({"Q1", 0, {0, 1}, 1.0});
  wl.AddQuery({"Q2", 1, {0, 1}, 0.5});

  const PartitionedTable pr = PartitionTable(r, 1).value();
  const PartitionedTable pt = PartitionTable(t, 1).value();
  const RegionCollection rc = BuildRegions(pr, pt, wl).value();
  ASSERT_EQ(rc.regions.size(), 1u);
  ASSERT_EQ(rc.predicate_slots.size(), 2u);

  CellJoinKernel kernel(&pr, &pt);
  EngineStats stats;
  std::vector<JoinMatch> matches;
  kernel.Join(rc, rc.regions[0], /*slots_mask=*/0b11, matches, stats);

  std::set<std::pair<int64_t, int64_t>> seen;
  for (const JoinMatch& m : matches) {
    EXPECT_TRUE(seen.emplace(m.row_r, m.row_t).second)
        << "pair reported twice";
    const bool match0 = r.key(m.row_r, 0) == t.key(m.row_t, 0);
    const bool match1 = r.key(m.row_r, 1) == t.key(m.row_t, 1);
    EXPECT_EQ((m.slot_mask & 1) != 0, match0);
    EXPECT_EQ((m.slot_mask & 2) != 0, match1);
    EXPECT_TRUE(match0 || match1);
  }
}

// pipeline_regions, compact_layout and join_index_cache_entries name engine
// paths that no longer exist; the core accepts only the values it runs.
TEST(SharedCoreTest, RejectsDeletedKnobValues) {
  auto [r, t] = MakeTables(Distribution::kIndependent, 200, 2, 0.05);
  Workload wl;
  wl.AddOutputDim({0, 0, 1.0, 1.0});
  wl.AddQuery({"Q1", 0, {0}, 1.0, {}});
  const PartitionedTable pr = PartitionTable(r, 2).value();
  const PartitionedTable pt = PartitionTable(t, 2).value();
  for (int knob = 0; knob < 4; ++knob) {
    CoreOptions core;
    if (knob == 1) core.pipeline_regions = true;
    if (knob == 2) core.compact_layout = false;
    if (knob == 3) core.join_index_cache_entries = 0;
    SatisfactionTracker tracker({MakeLogDecayContract()});
    VirtualClock clock(CostModel{});
    EngineStats stats;
    std::vector<QueryReport> reports(1);
    const Status status = RunSharedCore(pr, pt, wl, {0}, tracker, clock,
                                        stats, reports, core);
    if (knob == 0) {
      EXPECT_TRUE(status.ok()) << status.ToString();
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << knob;
    }
  }
}

// ---- Parallel determinism ----

// The contract machinery scores in virtual time, so the *entire report* —
// pScores, emission timestamps, work counters, event traces — must be
// bit-identical at every thread count, for both partitioning structures.
TEST(ParallelDeterminismTest, ReportsAreIdenticalAcrossThreadCounts) {
  auto [r, t] = MakeTables(Distribution::kAntiCorrelated, 400, 4, 0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 6, PriorityPolicy::kUniform).value();
  const std::vector<Contract> contracts(workload.num_queries(),
                                        MakeLogDecayContract());

  for (PartitionStrategy strategy :
       {PartitionStrategy::kGrid, PartitionStrategy::kQuadTree}) {
    ExecutionReport reference;
    std::vector<ContractEvent> reference_events;
    std::string reference_exec;
    std::string reference_health;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE("strategy=" +
                   std::to_string(static_cast<int>(strategy)) +
                   " threads=" + std::to_string(threads));
      ExecOptions options;
      options.partition_strategy = strategy;
      options.capture_results = true;
      options.num_threads = threads;
      Observability obs;
      options.obs = &obs;
      std::unique_ptr<Engine> engine = MakeEngine("CAQE").value();
      const Result<ExecutionReport> result =
          engine->Execute(r, t, workload, contracts, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      if (threads == 1) {
        reference = *result;
        reference_events = obs.events.Snapshot();
        reference_exec = obs.events.ExecEventsJsonl();
        reference_health = obs.events.HealthJsonl();
        EXPECT_GT(reference.stats.emitted_results, 0);
        continue;
      }
      const ExecutionReport& report = *result;
      EXPECT_EQ(report.workload_pscore, reference.workload_pscore);
      EXPECT_EQ(report.average_satisfaction,
                reference.average_satisfaction);
      EXPECT_EQ(report.stats.join_probes, reference.stats.join_probes);
      EXPECT_EQ(report.stats.join_results, reference.stats.join_results);
      EXPECT_EQ(report.stats.dominance_cmps, reference.stats.dominance_cmps);
      EXPECT_EQ(report.stats.coarse_ops, reference.stats.coarse_ops);
      EXPECT_EQ(report.stats.emitted_results,
                reference.stats.emitted_results);
      EXPECT_EQ(report.stats.regions_built, reference.stats.regions_built);
      EXPECT_EQ(report.stats.regions_processed,
                reference.stats.regions_processed);
      EXPECT_EQ(report.stats.regions_discarded,
                reference.stats.regions_discarded);
      EXPECT_EQ(report.stats.virtual_seconds,
                reference.stats.virtual_seconds);
      ASSERT_EQ(report.queries.size(), reference.queries.size());
      for (size_t q = 0; q < report.queries.size(); ++q) {
        const QueryReport& got = report.queries[q];
        const QueryReport& want = reference.queries[q];
        EXPECT_EQ(got.pscore, want.pscore);
        EXPECT_EQ(got.results, want.results);
        EXPECT_EQ(got.satisfaction, want.satisfaction);
        ASSERT_EQ(got.utility_trace.size(), want.utility_trace.size());
        for (size_t i = 0; i < got.utility_trace.size(); ++i) {
          EXPECT_EQ(got.utility_trace[i].time, want.utility_trace[i].time);
          EXPECT_EQ(got.utility_trace[i].utility,
                    want.utility_trace[i].utility);
        }
        ASSERT_EQ(got.tuples.size(), want.tuples.size());
        for (size_t i = 0; i < got.tuples.size(); ++i) {
          EXPECT_EQ(got.tuples[i].tuple_id, want.tuples[i].tuple_id);
          EXPECT_EQ(got.tuples[i].time, want.tuples[i].time);
          EXPECT_EQ(got.tuples[i].values, want.tuples[i].values);
        }
      }
      // Every logged event, compared exactly: the views below print vtime
      // and pScore to 9 decimals only.
      const std::vector<ContractEvent> events = obs.events.Snapshot();
      ASSERT_EQ(events.size(), reference_events.size());
      for (size_t i = 0; i < events.size(); ++i) {
        const ContractEvent& got = events[i];
        const ContractEvent& want = reference_events[i];
        EXPECT_EQ(static_cast<int>(got.kind), static_cast<int>(want.kind));
        EXPECT_EQ(got.vtime, want.vtime);
        EXPECT_EQ(got.region, want.region);
        EXPECT_EQ(got.query, want.query);
        EXPECT_EQ(got.request_id, want.request_id);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.results, want.results);
        EXPECT_EQ(got.pscore, want.pscore);
        EXPECT_EQ(got.pscore_before, want.pscore_before);
        EXPECT_EQ(got.weight, want.weight);
      }
      EXPECT_EQ(obs.events.ExecEventsJsonl(), reference_exec);
      EXPECT_EQ(obs.events.HealthJsonl(), reference_health);
    }
  }
}

// The inputs above are too small for any region phase to fork. Here the
// regions are large enough that projection, plan-group evaluation (two join
// keys, so two plan groups) and the discard scan of the big anti-correlated
// skylines all fork at 4 threads, and the report stays the serial one.
TEST(ParallelDeterminismTest, LargeRegionsForkEveryPhaseAndMatchSerial) {
  GeneratorConfig cfg;
  cfg.num_rows = 2000;
  cfg.num_attrs = 5;
  cfg.join_selectivities = {0.05, 0.05};
  cfg.distribution = Distribution::kAntiCorrelated;
  cfg.seed = 7;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 8;
  const Table t = GenerateTable("T", cfg).value();
  const Workload workload =
      MakeRandomWorkload(5, 2, 6, PriorityPolicy::kUniform, 5).value();
  const std::vector<Contract> contracts(workload.num_queries(),
                                        MakeLogDecayContract());
  const auto run = [&](int threads, Observability* obs) {
    ExecOptions options;
    options.num_threads = threads;
    options.target_regions = 128;
    options.capture_results = true;
    options.obs = obs;
    return MakeEngine("CAQE")
        .value()
        ->Execute(r, t, workload, contracts, options)
        .value();
  };
  Observability serial_obs;
  const ExecutionReport serial = run(1, &serial_obs);
  Observability pooled_obs;
  ::caqe::testing::ExpectReportsIdentical(run(4, &pooled_obs), serial);
  EXPECT_EQ(pooled_obs.events.ExecEventsJsonl(),
            serial_obs.events.ExecEventsJsonl());
  for (const char* phase : {"project", "evaluate", "discard"}) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(::caqe::testing::PhaseForks(serial_obs, phase), 0);
    EXPECT_GT(::caqe::testing::PhaseForks(pooled_obs, phase), 0);
  }
}

// ---- Emission manager ----

class EmissionTest : public ::testing::Test {
 protected:
  // Output space: one dim. Two regions: near [0,1], far [5,6]; both serve
  // query 0.
  void SetUp() override {
    workload_.AddOutputDim({0, 0, 1.0, 1.0});
    workload_.AddQuery({"Q1", 0, {0}, 1.0});
    rc_.predicate_slots = {0};
    rc_.slot_of_query = {0};
    rc_.queries_of_slot = {QuerySet::Of(0)};
    rc_.total_join_sizes = {4};
    OutputRegion near;
    near.id = 0;
    near.lower = {0.0};
    near.upper = {1.0};
    near.rql = QuerySet::Of(0);
    near.join_sizes = {2};
    OutputRegion far;
    far.id = 1;
    far.lower = {5.0};
    far.upper = {6.0};
    far.rql = QuerySet::Of(0);
    far.join_sizes = {2};
    rc_.regions = {near, far};
    store_ = std::make_unique<TupleStore>(1);
    pending_ = {1, 1};
    manager_ = std::make_unique<EmissionManager>(&workload_, &rc_,
                                                 store_.get(), &pending_);
  }

  /// Stores a one-dim tuple under the next sparse id. The gaps between
  /// ids (the engine's ids skip every unaccepted join match) make each
  /// witness scan read through the store's id lookup.
  int64_t AddTuple(double value) {
    next_id_ += 7;
    store_->Append(next_id_, &value);
    return next_id_;
  }

  Workload workload_;
  RegionCollection rc_;
  std::unique_ptr<TupleStore> store_;
  int64_t next_id_ = 3;
  std::vector<char> pending_;
  std::unique_ptr<EmissionManager> manager_;
};

TEST_F(EmissionTest, SafeTupleEmitsImmediately) {
  // A tuple better than every pending region's best corner is safe.
  const int64_t id = AddTuple(-1.0);
  pending_[0] = 0;  // Its own region was just processed.
  std::vector<int64_t> now;
  manager_->OnAccepted(0, id, now);
  EXPECT_EQ(now, std::vector<int64_t>{id});
  EXPECT_EQ(manager_->parked(0), 0);
}

TEST_F(EmissionTest, ThreatenedTupleParksUntilWitnessResolves) {
  // Tuple 5.5 from region 0's processing can be dominated by region 1
  // (lower corner 5.0).
  pending_[0] = 0;
  const int64_t id = AddTuple(5.5);
  std::vector<int64_t> now;
  manager_->OnAccepted(0, id, now);
  EXPECT_TRUE(now.empty());
  EXPECT_EQ(manager_->parked(0), 1);

  pending_[1] = 0;  // Region 1 processed.
  std::vector<std::pair<int, int64_t>> resolved;
  manager_->OnRegionResolved(1, resolved);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0], std::make_pair(0, id));
  EXPECT_EQ(manager_->parked(0), 0);
}

TEST_F(EmissionTest, EvictedCandidateNeverEmits) {
  pending_[0] = 0;
  const int64_t id = AddTuple(5.5);
  std::vector<int64_t> now;
  manager_->OnAccepted(0, id, now);
  ASSERT_TRUE(now.empty());
  manager_->OnEvicted(0, id);
  EXPECT_EQ(manager_->parked(0), 0);

  pending_[1] = 0;
  std::vector<std::pair<int, int64_t>> resolved;
  manager_->OnRegionResolved(1, resolved);
  EXPECT_TRUE(resolved.empty());
}

TEST_F(EmissionTest, PruningAQueryResolvesThreat) {
  pending_[0] = 0;
  const int64_t id = AddTuple(5.5);
  std::vector<int64_t> now;
  manager_->OnAccepted(0, id, now);
  ASSERT_TRUE(now.empty());
  // Region 1 loses query 0 from its lineage (dominated-region discarding).
  rc_.regions[1].rql.Remove(0);
  std::vector<std::pair<int, int64_t>> resolved;
  manager_->OnRegionResolvedForQuery(1, 0, resolved);
  ASSERT_EQ(resolved.size(), 1u);
  EXPECT_EQ(resolved[0].second, id);
}

TEST_F(EmissionTest, DrainFlushesLeftovers) {
  const int64_t id = AddTuple(5.5);
  pending_[0] = 0;
  std::vector<int64_t> now;
  manager_->OnAccepted(0, id, now);
  ASSERT_TRUE(now.empty());
  std::vector<std::pair<int, int64_t>> drained;
  manager_->DrainAll(drained);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].second, id);
  EXPECT_EQ(manager_->parked(0), 0);
}

// ---- Metrics printer ----

TEST(PrinterTest, RendersAlignedTableAndCsv) {
  TablePrinter printer({"engine", "score"});
  printer.AddRow({"CAQE", "0.91"});
  printer.AddRow({"S-JFSL", "0.45"});
  const std::string table = printer.Render();
  EXPECT_NE(table.find("| CAQE"), std::string::npos);
  EXPECT_NE(table.find("| engine"), std::string::npos);
  EXPECT_NE(table.find("|---"), std::string::npos);
  const std::string csv = printer.RenderCsv();
  EXPECT_NE(csv.find("engine,score\n"), std::string::npos);
  EXPECT_NE(csv.find("CAQE,0.91\n"), std::string::npos);
}

TEST(ExportTest, CsvShapes) {
  ExecutionReport report;
  report.engine = "CAQE";
  report.average_satisfaction = 0.5;
  report.workload_pscore = 12.0;
  report.stats.join_results = 100;
  QueryReport query;
  query.name = "Q1";
  query.results = 2;
  query.pscore = 1.5;
  query.satisfaction = 0.75;
  query.utility_trace = {{0.5, 1.0}, {1.5, 0.25}};
  report.queries.push_back(query);

  const std::string summary = ReportSummaryCsv({report});
  EXPECT_NE(summary.find("engine,avg_satisfaction"), std::string::npos);
  EXPECT_NE(summary.find("CAQE,0.500000"), std::string::npos);

  const std::string breakdown = QueryBreakdownCsv(report);
  EXPECT_NE(breakdown.find("CAQE,Q1,2,1.500000,0.750000"),
            std::string::npos);

  const std::string trace = UtilityTraceCsv(report);
  // Two data rows plus the header.
  EXPECT_EQ(std::count(trace.begin(), trace.end(), '\n'), 3);
  EXPECT_NE(trace.find("CAQE,Q1,0.500000000,1.000000"), std::string::npos);
}

TEST(ExportTest, WriteTextFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/caqe_export_test.csv";
  ASSERT_TRUE(WriteTextFile(path, "a,b\n1,2\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  EXPECT_EQ(std::string(buf, n), "a,b\n1,2\n");
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x.csv", "x").ok());
}

TEST(PrinterTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-42), "-42");
  EXPECT_EQ(FormatCount(0), "0");
}

}  // namespace
}  // namespace caqe
