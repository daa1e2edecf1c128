// Serving layer tests (src/serve/): contract-aware admission, dynamic
// workload grafting, mid-run retirement, streaming emission, and the
// determinism and cancellation-equivalence guarantees. They hold
// src/serve/admission.cc above its 80% line-coverage floor
// (scripts/run_coverage.sh).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "contracts/utility.h"
#include "data/generator.h"
#include "exec/emission.h"
#include "obs/observability.h"
#include "optimizer/scheduler.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "serve/trace.h"
#include "test_util.h"

namespace caqe {
namespace {

/// (R, T) with `num_keys` join-key columns so the server bootstraps one
/// workload slot per key.
std::pair<Table, Table> MakeServeTables(int num_keys, int64_t rows = 200,
                                        uint64_t seed = 11) {
  GeneratorConfig cfg;
  cfg.num_rows = rows;
  cfg.num_attrs = 3;
  cfg.join_selectivities.assign(num_keys, 0.05);
  cfg.distribution = Distribution::kIndependent;
  cfg.seed = seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = seed + 1;
  Table t = GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

std::vector<MappingFunction> ThreeDims() {
  return {MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
}

ServeOptions SmallServeOptions() {
  ServeOptions options;
  options.target_regions = 64;
  return options;
}

/// Values of the `streamed` tuple ids, projected onto `reference`'s query
/// 0 and sorted: comparable with OracleSkyline.
std::vector<std::vector<double>> StreamedRows(
    const CaqeServer& server, const std::vector<int64_t>& streamed,
    const Workload& reference) {
  std::vector<std::vector<double>> rows;
  for (int64_t tuple : streamed) {
    const double* values = server.store().row(tuple);
    rows.push_back(::caqe::testing::ProjectReported(
        std::vector<double>(values, values + reference.num_output_dims()),
        reference, 0));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CaqeServerTest, CreateValidatesInputs) {
  auto [r, t] = MakeServeTables(1);
  EXPECT_EQ(CaqeServer::Create(r, t, {}, {0}, SmallServeOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CaqeServer::Create(r, t, ThreeDims(), {}, SmallServeOptions())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The region target sizes the bootstrap partitions: below 1 it names no
// partition, so Create refuses it instead of building one region.
TEST(CaqeServerTest, CreateRejectsNonPositiveTargetRegions) {
  auto [r, t] = MakeServeTables(1);
  for (const int target : {0, -5}) {
    ServeOptions options = SmallServeOptions();
    options.target_regions = target;
    EXPECT_EQ(CaqeServer::Create(r, t, ThreeDims(), {0}, options)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << target;
  }
  ServeOptions options = SmallServeOptions();
  options.target_regions = 1;
  EXPECT_TRUE(CaqeServer::Create(r, t, ThreeDims(), {0}, options).ok());
}

// The static scan is S-JFSL's batch policy; a server always schedules
// with a contract- or count-driven scheduler.
TEST(CaqeServerTest, CreateRejectsStaticScanPolicy) {
  auto [r, t] = MakeServeTables(1);
  ServeOptions options = SmallServeOptions();
  options.policy = SchedulePolicy::kStaticScan;
  EXPECT_EQ(CaqeServer::Create(r, t, ThreeDims(), {0}, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.policy = SchedulePolicy::kCountDriven;
  EXPECT_TRUE(CaqeServer::Create(r, t, ThreeDims(), {0}, options).ok());
}

// A single admitted query must stream exactly its oracle skyline: the graft
// path (bootstrap regions + re-derived lineage) loses and invents nothing
// relative to a batch run over the same data. Every streamed id reads its
// values back from store(), which keeps only the tuples the query
// accepted — a small fraction of the join results.
TEST(CaqeServerTest, SingleQueryStreamsExactSkyline) {
  auto [r, t] = MakeServeTables(1, 1200);
  Workload reference;
  for (const MappingFunction& f : ThreeDims()) reference.AddOutputDim(f);
  const SjQuery query{"Q0", 0, {0, 1, 2}, 1.0, {}};
  reference.AddQuery(query);

  auto server =
      CaqeServer::Create(r, t, ThreeDims(), {0}, SmallServeOptions()).value();
  std::vector<int64_t> streamed;
  double last_time = 0.0;
  const int id = server->Submit(
      query, MakeTimeStepContract(10.0), 0.0, 0.0,
      [&](int request_id, int64_t tuple_id, double vtime, double utility) {
        EXPECT_EQ(request_id, 0);
        EXPECT_GE(vtime, last_time);
        EXPECT_GE(utility, 0.0);
        last_time = vtime;
        streamed.push_back(tuple_id);
      });
  EXPECT_EQ(id, 0);
  const ServingReport report = server->Run().value();

  ASSERT_EQ(report.requests.size(), 1u);
  const RequestReport& request = report.requests[0];
  EXPECT_EQ(request.status, RequestStatus::kCompleted);
  EXPECT_EQ(request.results, static_cast<int64_t>(streamed.size()));
  EXPECT_GE(request.time_to_first_result, 0.0);
  EXPECT_GT(request.pscore, 0.0);
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.admission_rate, 1.0);
  EXPECT_GE(report.stats.join_results, 10000);
  EXPECT_LT(server->store().size() * 100, report.stats.join_results);

  EXPECT_EQ(StreamedRows(*server, streamed, reference),
            ::caqe::testing::OracleSkyline(r, t, reference, 0));
}

// The server partitions with its own options: on quad-tree cells a
// full-dims query streams exactly its oracle skyline too, though the
// regions it runs over differ from the grid's.
TEST(CaqeServerTest, QuadTreePartitionsStreamExactSkyline) {
  auto [r, t] = MakeServeTables(1, 1200);
  Workload reference;
  for (const MappingFunction& f : ThreeDims()) reference.AddOutputDim(f);
  const SjQuery query{"Q0", 0, {0, 1, 2}, 1.0, {}};
  reference.AddQuery(query);
  const std::vector<std::vector<double>> oracle =
      ::caqe::testing::OracleSkyline(r, t, reference, 0);

  const auto run = [&](PartitionStrategy strategy) {
    ServeOptions options = SmallServeOptions();
    options.partition_strategy = strategy;
    auto server = CaqeServer::Create(r, t, ThreeDims(), {0}, options).value();
    std::vector<int64_t> streamed;
    server->Submit(query, MakeTimeStepContract(10.0), 0.0, 0.0,
                   [&](int, int64_t tuple_id, double, double) {
                     streamed.push_back(tuple_id);
                   });
    const ServingReport report = server->Run().value();
    EXPECT_EQ(report.completed, 1);
    EXPECT_EQ(StreamedRows(*server, streamed, reference), oracle);
    return ServingReportText(report);
  };
  EXPECT_NE(run(PartitionStrategy::kQuadTree), run(PartitionStrategy::kGrid));
}

// The full trace replay is a pure function of the trace: byte-identical
// serving reports across thread counts and across reruns. The 300-row
// tables keep every region step on the calling thread; over 1000 rows and
// 16 target regions the steps are large enough that projection and
// plan-group evaluation fork at 8 threads.
TEST(CaqeServerTest, ReportIsDeterministicAcrossThreads) {
  TraceConfig config;
  config.num_requests = 10;
  config.arrival_rate = 30.0;
  config.reference_seconds = 0.05;
  config.deadline_fraction = 0.3;
  config.cancel_fraction = 0.2;
  for (const bool large : {false, true}) {
    SCOPED_TRACE(large ? "large regions" : "small regions");
    const auto run = [&](int threads, Observability* obs) {
      auto [r, t] = MakeServeTables(2, large ? 1000 : 300);
      ServeOptions options = SmallServeOptions();
      if (large) options.target_regions = 16;
      options.num_threads = threads;
      options.obs = obs;
      auto server = CaqeServer::Create(std::move(r), std::move(t),
                                       ThreeDims(), {0, 1}, options)
                        .value();
      const std::vector<TraceRequest> trace =
          MakeSyntheticTrace(config, {0, 1}, 3);
      SubmitTrace(*server, trace);
      const ServingReport report = server->Run().value();
      EXPECT_GE(report.admitted, 1);
      return ServingReportText(report);
    };
    const std::string serial = run(1, nullptr);
    Observability obs;
    EXPECT_EQ(serial, run(8, &obs));
    EXPECT_EQ(serial, run(1, nullptr));
    if (large) {
      EXPECT_GT(::caqe::testing::PhaseForks(obs, "project"), 0);
      EXPECT_GT(::caqe::testing::PhaseForks(obs, "evaluate"), 0);
    }
  }
}

TEST(CaqeServerTest, RejectsUnknownJoinPredicate) {
  auto [r, t] = MakeServeTables(1);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();
  server->Submit(SjQuery{"bad", 2, {0, 1}, 1.0, {}},
                 MakeTimeStepContract(10.0), 0.0);
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.requests[0].status, RequestStatus::kRejected);
  EXPECT_EQ(report.requests[0].reason, "no-predicate");
  EXPECT_EQ(report.rejected, 1);
}

// Selections are bounded by their side's table width, as in
// Workload::Validate: an attribute equal to num_attrs() is rejected on
// either side before admission reads the leaf cells' bounds, and the last
// attribute is accepted and served.
TEST(CaqeServerTest, SubmitLiveRejectsOutOfRangeSelectionAttribute) {
  auto [r, t] = MakeServeTables(1);
  const int r_attrs = r.num_attrs();
  const int t_attrs = t.num_attrs();
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, SmallServeOptions())
                    .value();
  ASSERT_TRUE(server->BeginLive().ok());
  const Contract contract = MakeTimeStepContract(10.0);
  const auto with_selection = [](bool on_r, int attr) {
    return SjQuery{"sel", 0, {0, 1}, 1.0, {SelectionRange{on_r, attr, 0, 1}}};
  };
  const double now = server->VirtualNow();
  EXPECT_EQ(server->SubmitLive(with_selection(true, r_attrs), contract, now)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->SubmitLive(with_selection(false, t_attrs), contract, now)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server->num_requests(), 0);
  ASSERT_TRUE(
      server->SubmitLive(with_selection(true, r_attrs - 1), contract, now)
          .ok());
  ASSERT_TRUE(
      server->SubmitLive(with_selection(false, t_attrs - 1), contract, now)
          .ok());
  while (server->StepLive()) {
  }
  const ServingReport report = server->FinishLive().value();
  ASSERT_EQ(report.requests.size(), 2u);
  for (const auto& request : report.requests) {
    EXPECT_NE(request.status, RequestStatus::kQueued);
  }
}

TEST(CaqeServerTest, RejectsHopelessContract) {
  auto [r, t] = MakeServeTables(1);
  ServeOptions options = SmallServeOptions();
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  // A step contract whose deadline is below any feasible first-result time
  // previews to zero utility everywhere in the service window.
  server->Submit(SjQuery{"hopeless", 0, {0, 1}, 1.0, {}},
                 MakeTimeStepContract(1e-12), 0.0);
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.requests[0].status, RequestStatus::kRejected);
  EXPECT_EQ(report.requests[0].reason, "low-utility");
}

// With one active-query slot, a simultaneous second arrival defers and is
// admitted once the first completes; both finish.
TEST(CaqeServerTest, DefersOnCapacityThenAdmits) {
  auto [r, t] = MakeServeTables(1, 300);
  ServeOptions options = SmallServeOptions();
  options.max_active_queries = 1;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  server->Submit(SjQuery{"first", 0, {0, 1}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  server->Submit(SjQuery{"second", 0, {1, 2}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.requests[0].defers, 0);
  EXPECT_GE(report.requests[1].defers, 1);
  // The deferred query only started after the first finished.
  EXPECT_GE(report.requests[1].decision_time,
            report.requests[0].finish_time);
}

// Slots recycle: many more requests than concurrent capacity all complete.
TEST(CaqeServerTest, SlotsRecycleAcrossManyRequests) {
  auto [r, t] = MakeServeTables(1, 200);
  ServeOptions options = SmallServeOptions();
  options.max_active_queries = 2;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  for (int i = 0; i < 6; ++i) {
    // Step contracts keep full utility while queued, so deferred requests
    // stay admissible once capacity frees (a fast-decaying contract would
    // legitimately reject as low-utility by then).
    server->Submit(SjQuery{"W" + std::to_string(i), 0,
                           {i % 3, (i + 1) % 3}, 1.0, {}},
                   MakeTimeStepContract(10.0), 0.0);
  }
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.admitted, 6);
  EXPECT_EQ(report.completed, 6);
  for (const RequestReport& request : report.requests) {
    EXPECT_EQ(request.status, RequestStatus::kCompleted);
    EXPECT_GT(request.results, 0);
  }
}

// A plan group is erased when its last member retires, so a long session
// holds groups only for its live requests: none once every request is done.
TEST(CaqeServerTest, RetiredRequestsLeaveNoPlanGroups) {
  auto [r, t] = MakeServeTables(1, 200);
  ServeOptions options = SmallServeOptions();
  options.max_active_queries = 4;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  constexpr int kRequests = 120;
  for (int i = 0; i < kRequests; ++i) {
    server->Submit(SjQuery{"G" + std::to_string(i), 0,
                           {i % 3, (i + 1) % 3}, 1.0, {}},
                   MakeTimeStepContract(1e6), 0.0);
  }
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.completed, kRequests);
  EXPECT_EQ(server->num_plan_groups(), 0);
}

// A deadlined query admitted under admit_all expires mid-run; the other
// query's stream and report stay valid.
TEST(CaqeServerTest, ExpiresMidRunWithoutDisturbingSurvivors) {
  auto [r, t] = MakeServeTables(1, 300);
  ServeOptions options = SmallServeOptions();
  options.admit_all = true;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  server->Submit(SjQuery{"slow", 0, {0, 1, 2}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  int64_t doomed_results = 0;
  double last_doomed_vtime = -1.0;
  server->Submit(SjQuery{"doomed", 0, {0, 1}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0,
                 /*deadline_seconds=*/1e-4,
                 [&](int, int64_t, double vtime, double) {
                   ++doomed_results;
                   last_doomed_vtime = vtime;
                 });
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.requests[0].status, RequestStatus::kCompleted);
  EXPECT_GT(report.requests[0].results, 0);
  EXPECT_EQ(report.requests[1].status, RequestStatus::kExpired);
  EXPECT_EQ(report.requests[1].results, doomed_results);
  EXPECT_EQ(report.expired, 1);
  // Expiry is enforced at region boundaries (in-flight regions are never
  // restarted): nothing streams after the retirement time, and the query
  // is retired at the first boundary past its deadline.
  EXPECT_GE(report.requests[1].finish_time, 1e-4);
  EXPECT_LE(last_doomed_vtime, report.requests[1].finish_time);
}

// Live-vs-replay regression: an expiry retires the last running request in
// a control-only step (no region runs, so the clock stays put), and the
// next arrival is quantized against that clock. Live, the arrival can only
// fire after that step's sweeps; the Submit()+Run() replay must see it the
// same way, which holds only when the quantizer stamps strictly after now.
// Every cost is a multiple of a power-of-two quantum, so each virtual time
// is an exact quantum multiple and a stamp "at now" is representable.
TEST(CaqeServerTest, ArrivalAfterControlOnlyStepReplaysIdentically) {
  const double quantum = std::ldexp(1.0, -20);
  ServeOptions options = SmallServeOptions();
  options.admit_all = true;
  options.cost.join_probe_seconds = 2 * quantum;
  options.cost.join_result_seconds = 4 * quantum;
  options.cost.dominance_cmp_seconds = quantum;
  options.cost.emit_seconds = quantum;
  options.cost.schedule_seconds = 64 * quantum;
  options.cost.coarse_op_seconds = quantum;
  const Contract contract = MakeLogDecayContract(0.001);
  struct Recorded {
    SjQuery query;
    double vtime = 0.0;
    double deadline = 0.0;
  };
  std::vector<Recorded> recorded;
  std::string live_text;
  {
    auto [r, t] = MakeServeTables(1, 300);
    auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                     {0}, options)
                      .value();
    ASSERT_TRUE(server->BeginLive().ok());
    ArrivalQuantizer quantizer(quantum);
    const auto submit = [&](const SjQuery& query, double deadline) {
      const double vtime =
          quantizer.TimeOf(quantizer.Next(server->VirtualNow()));
      EXPECT_GT(vtime, server->VirtualNow());
      ASSERT_TRUE(
          server->SubmitLive(query, contract, vtime, deadline).ok());
      recorded.push_back(Recorded{query, vtime, deadline});
    };
    submit(SjQuery{"doomed", 0, {0, 1, 2}, 1.0, {}}, 128 * quantum);
    int steps = 0;
    while (server->request_status(0) != RequestStatus::kExpired) {
      ASSERT_TRUE(server->StepLive());
      ASSERT_LT(++steps, 100000) << "the deadline never expired";
    }
    submit(SjQuery{"late", 0, {0, 1}, 1.0, {}}, 0.0);
    live_text = ServingReportText(server->FinishLive().value());
  }
  auto [r, t] = MakeServeTables(1, 300);
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  for (const Recorded& rec : recorded) {
    server->Submit(rec.query, contract, rec.vtime, rec.deadline);
  }
  const ServingReport replay = server->Run().value();
  EXPECT_EQ(replay.expired, 1);
  EXPECT_EQ(live_text, ServingReportText(replay));
}

// The cancellation-equivalence guarantee: a query grafted and cancelled
// before any of its regions is processed leaves every survivor's report
// line byte-identical to a run where it was never submitted.
TEST(CaqeServerTest, CancellationIsEquivalentToNeverAdmitted) {
  // Three join keys -> three bootstrap slots, so the cancelled query reuses
  // free slot 2 instead of growing the workload.
  const auto make_server = [] {
    auto [r, t] = MakeServeTables(3, 200);
    return CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                              {0, 1, 2}, SmallServeOptions())
        .value();
  };
  const SjQuery s0{"S0", 0, {0, 1}, 1.0, {}};
  const SjQuery s1{"S1", 1, {1, 2}, 0.8, {}};
  const SjQuery doomed{"C", 2, {0, 2}, 0.5, {}};
  const Contract contract = MakeLogDecayContract(0.001);
  const double cancel_time = 0.0005;

  auto with_cancel = make_server();
  with_cancel->Submit(s0, contract, 0.0);
  with_cancel->Submit(s1, contract, 0.0);
  int64_t doomed_emissions = 0;
  const int doomed_id = with_cancel->Submit(
      doomed, contract, cancel_time, 0.0,
      [&](int, int64_t, double, double) { ++doomed_emissions; });
  ASSERT_TRUE(with_cancel->Cancel(doomed_id, cancel_time).ok());
  const ServingReport cancelled_run = with_cancel->Run().value();

  auto without = make_server();
  without->Submit(s0, contract, 0.0);
  without->Submit(s1, contract, 0.0);
  const ServingReport clean_run = without->Run().value();

  EXPECT_EQ(cancelled_run.requests[doomed_id].status,
            RequestStatus::kCancelled);
  EXPECT_EQ(cancelled_run.requests[doomed_id].results, 0);
  EXPECT_EQ(doomed_emissions, 0);
  for (int q = 0; q < 2; ++q) {
    EXPECT_EQ(RequestReportLine(cancelled_run.requests[q]),
              RequestReportLine(clean_run.requests[q]))
        << "survivor " << q;
  }
  EXPECT_EQ(cancelled_run.finish_vtime, clean_run.finish_vtime);
}

TEST(CaqeServerTest, CancelBeforeArrivalIsCleanRejectionOfWork) {
  auto [r, t] = MakeServeTables(1);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();
  const int id = server->Submit(SjQuery{"late", 0, {0, 1}, 1.0, {}},
                                MakeTimeStepContract(10.0), 1.0);
  ASSERT_TRUE(server->Cancel(id, 0.5).ok());
  const ServingReport report = server->Run().value();
  EXPECT_EQ(report.requests[0].status, RequestStatus::kCancelled);
  EXPECT_EQ(report.requests[0].results, 0);
  EXPECT_EQ(report.admitted, 0);
}

// Serving lifecycle events flow through the event log with monotonically
// nondecreasing virtual timestamps; the exec view shows the graft as
// query_admitted and the retirement as query_retired, both at the slot.
TEST(CaqeServerTest, TraceRecordsAdmissionAndRetirement) {
  auto [r, t] = MakeServeTables(1, 200);
  Observability obs;
  ServeOptions options = SmallServeOptions();
  options.obs = &obs;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  server->Submit(SjQuery{"traced", 0, {0, 1}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  server->Run().value();
  int admitted = 0;
  int retired = 0;
  double last_time = 0.0;
  const std::vector<ContractEvent> events = obs.events.Snapshot();
  for (const ContractEvent& event : events) {
    EXPECT_GE(event.vtime, last_time);
    last_time = event.vtime;
    if (event.kind == ContractEventKind::kGraft) ++admitted;
    if (event.kind == ContractEventKind::kFinish && event.query >= 0) {
      ++retired;
    }
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(retired, 1);
  const std::string exec = obs.events.ExecEventsJsonl();
  EXPECT_NE(exec.find("\"kind\":\"query_admitted\""), std::string::npos);
  EXPECT_NE(exec.find("\"kind\":\"query_retired\""), std::string::npos);
}

// ---- Emission-manager park/flush interplay with retirement ----

/// One pending region whose box can still dominate the store's candidates,
/// shared by two queries. The two candidates sit under sparse tuple ids, as
/// the engine's do (its ids skip every join match no query accepted).
struct EmissionFixture {
  static constexpr int64_t kFirst = 4;
  static constexpr int64_t kSecond = 11;
  Workload workload;
  RegionCollection rc;
  TupleStore store{2};
  std::vector<char> pending{1};

  EmissionFixture() {
    workload.AddOutputDim(MappingFunction{0, 0});
    workload.AddOutputDim(MappingFunction{1, 1});
    workload.AddQuery(SjQuery{"Q0", 0, {0, 1}, 1.0, {}});
    workload.AddQuery(SjQuery{"Q1", 0, {0, 1}, 1.0, {}});
    rc.predicate_slots = {0};
    rc.slot_of_query = {0, 0};
    rc.queries_of_slot = {QuerySet::AllOf(2)};
    OutputRegion blocker;
    blocker.id = 0;
    blocker.lower = {0.0, 0.0};
    blocker.upper = {10.0, 10.0};
    blocker.rql = QuerySet::AllOf(2);
    rc.regions.push_back(std::move(blocker));
    const double first[2] = {5.0, 5.0};
    const double second[2] = {6.0, 4.0};
    store.Append(kFirst, first);
    store.Append(kSecond, second);
  }
};

TEST(EmissionRetirementTest, RetiredQueryParkedTuplesAreDroppedNotEmitted) {
  constexpr int64_t kFirst = EmissionFixture::kFirst;
  constexpr int64_t kSecond = EmissionFixture::kSecond;
  EmissionFixture fx;
  EmissionManager manager(&fx.workload, &fx.rc, &fx.store, &fx.pending);
  std::vector<int64_t> now;
  manager.OnAccepted(0, kFirst, now);
  manager.OnAccepted(0, kSecond, now);
  manager.OnAccepted(1, kFirst, now);
  manager.OnAccepted(1, kSecond, now);
  EXPECT_TRUE(now.empty());  // All parked behind the pending blocker.
  EXPECT_EQ(manager.parked(0), 2);
  EXPECT_EQ(manager.parked(1), 2);

  std::vector<int64_t> flushed;
  manager.RetireQuery(0, &flushed);
  EXPECT_EQ(flushed, (std::vector<int64_t>{kFirst, kSecond}));  // Ascending.
  EXPECT_EQ(manager.parked(0), 0);
  EXPECT_EQ(manager.parked(1), 2);

  // Resolving the blocker emits only the survivor's candidates.
  fx.pending[0] = 0;
  std::vector<std::pair<int, int64_t>> emitted;
  manager.OnRegionResolved(0, emitted);
  for (const auto& [q, id] : emitted) EXPECT_EQ(q, 1);
  EXPECT_EQ(emitted.size(), 2u);
  std::vector<std::pair<int, int64_t>> leftover;
  manager.DrainAll(leftover);
  EXPECT_TRUE(leftover.empty());
}

TEST(EmissionRetirementTest, SurvivorOrderingUnchangedByRetirement) {
  // The survivor's emission sequence must be identical whether or not the
  // other query existed and was retired.
  constexpr int64_t kFirst = EmissionFixture::kFirst;
  constexpr int64_t kSecond = EmissionFixture::kSecond;
  EmissionFixture with_retiree;
  EmissionManager noisy(&with_retiree.workload, &with_retiree.rc,
                        &with_retiree.store, &with_retiree.pending);
  std::vector<int64_t> now;
  noisy.OnAccepted(0, kSecond, now);
  noisy.OnAccepted(1, kFirst, now);
  noisy.OnAccepted(0, kFirst, now);
  noisy.OnAccepted(1, kSecond, now);
  noisy.RetireQuery(0, nullptr);
  with_retiree.pending[0] = 0;
  std::vector<std::pair<int, int64_t>> noisy_emitted;
  noisy.OnRegionResolved(0, noisy_emitted);

  EmissionFixture clean_fx;
  EmissionManager clean(&clean_fx.workload, &clean_fx.rc, &clean_fx.store,
                        &clean_fx.pending);
  clean.OnAccepted(1, kFirst, now);
  clean.OnAccepted(1, kSecond, now);
  clean_fx.pending[0] = 0;
  std::vector<std::pair<int, int64_t>> clean_emitted;
  clean.OnRegionResolved(0, clean_emitted);

  EXPECT_EQ(noisy_emitted, clean_emitted);
}

// Admission cost estimates are internally consistent.
TEST(AdmissionTest, EstimatesScaleWithBacklog) {
  auto [r, t] = MakeServeTables(1, 300);
  ServeOptions options = SmallServeOptions();
  options.max_active_queries = 1;
  auto server = CaqeServer::Create(std::move(r), std::move(t), ThreeDims(),
                                   {0}, options)
                    .value();
  server->Submit(SjQuery{"a", 0, {0, 1}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  server->Submit(SjQuery{"b", 0, {1, 2}, 1.0, {}},
                 MakeLogDecayContract(0.001), 0.0);
  const ServingReport report = server->Run().value();
  // Both carried positive utility expectations and a live lineage at
  // admission time.
  for (const RequestReport& request : report.requests) {
    EXPECT_GT(request.expected_utility, 0.0);
    EXPECT_GT(request.lineage_regions, 0);
  }
  EXPECT_GT(report.control_ops, 0);
}

// Admission prices work with the scheduler's t_c (Eq. 8's cost term): per
// served slot, probes over both cells' rows and the slot's join output,
// then an n log n dominance term and one scheduling step.
double HandTc(int64_t rows, int64_t results) {
  const CostModel cost;
  const double n = static_cast<double>(results);
  return cost.join_probe_seconds * static_cast<double>(rows) +
         cost.join_result_seconds * n +
         cost.dominance_cmp_seconds * (n * std::log2(1.0 + n)) +
         cost.schedule_seconds;
}

// Two predicate slots; slot 1's only query has retired, so no lineage
// holds a query of slot 1 although every region has join output there.
// Region 2 is no longer pending. The backlog is the t_c of regions 0 and 1
// over slot 0 alone, and a one-slot RegionCost — admission's price for a
// newcomer's own work — is that slot's t_c.
TEST(AdmissionTest, BacklogAndSlotCostAreTheSchedulersTc) {
  RegionCollection rc;
  rc.predicate_slots = {0, 1};
  rc.slot_of_query = {0, 1};
  rc.queries_of_slot.resize(2);
  rc.queries_of_slot[0].Add(0);
  const auto add_region = [&](int64_t rows_r, int64_t rows_t,
                              std::vector<int64_t> join_sizes) {
    OutputRegion region;
    region.id = static_cast<int>(rc.regions.size());
    region.rows_r = rows_r;
    region.rows_t = rows_t;
    region.join_sizes = std::move(join_sizes);
    region.rql.Add(0);
    rc.regions.push_back(std::move(region));
  };
  add_region(10, 20, {50, 70});
  add_region(5, 7, {9, 40});
  add_region(30, 30, {100, 100});
  const std::vector<char> pending = {1, 1, 0};
  const CostModel cost;

  EXPECT_EQ(rc.ServedSlots(rc.regions[0]), 1u);
  EXPECT_DOUBLE_EQ(BacklogCost(rc, pending, cost),
                   HandTc(30, 50) + HandTc(12, 9));
  // Reopening region 2 adds exactly its slot-0 t_c.
  EXPECT_DOUBLE_EQ(BacklogCost(rc, {1, 1, 1}, cost),
                   HandTc(30, 50) + HandTc(12, 9) + HandTc(60, 100));
  EXPECT_DOUBLE_EQ(RegionCost(rc.regions[0], 1u << 1, cost), HandTc(30, 70));
  EXPECT_DOUBLE_EQ(RegionCost(rc.regions[1], 1u << 0, cost), HandTc(12, 9));
}

}  // namespace
}  // namespace caqe
