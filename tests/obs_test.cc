// Observability layer tests (src/obs/): span sink thread safety, metrics
// registry exposition formats, the contract event log and its views
// (ledger, health, exec stream), export escaping, and — most importantly —
// the determinism guarantees: attaching an Observability must not change
// a single deterministic byte of any engine or serving report. With
// views_pin_test these tests hold
// src/obs/event_log.cc above its 80% line-coverage floor
// (scripts/run_coverage.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "caqe/caqe.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/stream_writer.h"
#include "test_util.h"

namespace caqe {
namespace {

using ::caqe::testing::MakeTables;

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistryTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry registry;
  registry.counter("caqe_test_ops_total").Inc();
  registry.counter("caqe_test_ops_total").Inc(4);
  registry.gauge("caqe_test_level").Set(2.5);
  EXPECT_EQ(registry.counter("caqe_test_ops_total").value(), 5);
  EXPECT_EQ(registry.gauge("caqe_test_level").value(), 2.5);
}

TEST(MetricsRegistryTest, HistogramUsesInclusiveUpperBounds) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // <= 1
  hist.Observe(1.0);    // <= 1 (inclusive le semantics)
  hist.Observe(10.0);   // <= 10
  hist.Observe(99.0);   // <= 100
  hist.Observe(1000.0); // +Inf
  const Histogram::Snapshot snap = hist.TakeSnapshot();
  ASSERT_EQ(snap.cumulative.size(), 3u);
  EXPECT_EQ(snap.cumulative[0], 2);
  EXPECT_EQ(snap.cumulative[1], 3);
  EXPECT_EQ(snap.cumulative[2], 4);
  EXPECT_EQ(snap.count, 5);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 10.0 + 99.0 + 1000.0);
}

TEST(MetricsRegistryTest, BucketLadders) {
  const std::vector<double> exp = ExponentialBuckets(1e-3, 10.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1e-3);
  EXPECT_DOUBLE_EQ(exp[3], 1.0);

  const std::vector<double> rel = RelativeErrorBuckets();
  ASSERT_EQ(rel.size(), 15u);  // 7 negative, zero, 7 positive.
  EXPECT_DOUBLE_EQ(rel.front(), -5.0);
  EXPECT_DOUBLE_EQ(rel[7], 0.0);
  EXPECT_DOUBLE_EQ(rel.back(), 5.0);
  EXPECT_TRUE(std::is_sorted(rel.begin(), rel.end()));
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("caqe_decisions_total{decision=\"admit\"}").Inc(3);
  registry.counter("caqe_decisions_total{decision=\"reject\"}").Inc();
  registry.gauge("caqe_rate").Set(0.75);
  registry.histogram("caqe_lat_seconds", {0.1, 1.0}).Observe(0.05);
  registry.histogram("caqe_lat_seconds", {0.1, 1.0}).Observe(5.0);
  const std::string text = registry.PrometheusText();

  // One # TYPE line per family, shared across the label variants.
  EXPECT_NE(text.find("# TYPE caqe_decisions_total counter\n"),
            std::string::npos);
  EXPECT_EQ(text.find("# TYPE caqe_decisions_total counter",
                      text.find("# TYPE caqe_decisions_total counter") + 1),
            std::string::npos);
  EXPECT_NE(text.find("caqe_decisions_total{decision=\"admit\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("caqe_decisions_total{decision=\"reject\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE caqe_rate gauge\ncaqe_rate 0.75\n"),
            std::string::npos);
  // Histogram: cumulative buckets, +Inf == count, _sum and _count lines.
  EXPECT_NE(text.find("caqe_lat_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("caqe_lat_seconds_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("caqe_lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("caqe_lat_seconds_sum 5.05\n"), std::string::npos);
  EXPECT_NE(text.find("caqe_lat_seconds_count 2\n"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonSnapshotEscapesHostileNames) {
  MetricsRegistry registry;
  registry.counter("evil{name=\"a\\\"b\\\\c\"}").Inc(7);
  const std::string json = registry.JsonSnapshot();
  // The raw quote/backslash inside the label value must come out escaped.
  EXPECT_NE(json.find("\"evil{name=\\\"a\\\\\\\"b\\\\\\\\c\\\"}\":7"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Spans and the sink.

TEST(TraceSpanTest, DisabledSpanRecordsNothing) {
  // Null sink + null wall accumulator: the span must be inert.
  { TraceSpan span(nullptr, "noop", "test"); }
  TraceSink sink;
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSpanTest, WallSinkAccumulatesWithoutASink) {
  double wall = 0.0;
  { TraceSpan span(nullptr, "timed", "test", &wall); }
  { TraceSpan span(nullptr, "timed", "test", &wall); }
  EXPECT_GT(wall, 0.0);
}

TEST(TraceSpanTest, RecordsDeterministicAttribution) {
  TraceSink sink;
  {
    TraceSpan span(&sink, "eval", "pipeline");
    span.set_region(4);
    span.set_query(2);
    span.set_arg("dominance_cmps", 123);
  }
  const std::vector<SpanRecord> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "eval");
  EXPECT_STREQ(spans[0].category, "pipeline");
  EXPECT_EQ(spans[0].region, 4);
  EXPECT_EQ(spans[0].query, 2);
  EXPECT_STREQ(spans[0].arg_name, "dominance_cmps");
  EXPECT_EQ(spans[0].arg_value, 123);
  EXPECT_GE(spans[0].dur_us, 0.0);
}

// The cross-thread path: many threads record into one sink concurrently.
// Run under ThreadSanitizer (build-tsan) this is the data-race proof for
// the sharded sink; the single-writer `wall_sink` contract is exercised
// everywhere else on the serial driver thread only.
TEST(TraceSinkTest, ConcurrentRecordingIsSafeAndLossless) {
  TraceSink sink;
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&sink] {
      for (int j = 0; j < kSpansPerThread; ++j) {
        TraceSpan span(&sink, "worker", "test");
        span.set_arg("iteration", j);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sink.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  // Snapshot is seq-sorted and loses nothing.
  const std::vector<SpanRecord> spans = sink.Snapshot();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LT(spans[i - 1].seq, spans[i].seq);
  }
}

TEST(TraceExportTest, ChromeTraceJsonShape) {
  TraceSink sink;
  {
    TraceSpan span(&sink, "join", "pipeline");
    span.set_region(1);
    span.set_arg("join_results", 42);
  }
  ContractEventLog events;
  events.SetName(0, "S\"3\\");  // Hostile name must be escaped.
  events.Append({.kind = ContractEventKind::kRegionStep,
                 .request_id = 0,
                 .vtime = 0.5,
                 .results = 10,
                 .pscore = 1.25,
                 .weight = 0.75});
  // No name bound: the track is labelled by id alone.
  events.Append({.kind = ContractEventKind::kRegionStep,
                 .request_id = 1,
                 .vtime = 0.5,
                 .results = 2,
                 .pscore = 0.5,
                 .weight = 1.0});
  const std::string json = ChromeTraceJson(sink.Snapshot(), &events);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // Span event.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // Counter track.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // Process names.
  EXPECT_NE(json.find("\"region\":1"), std::string::npos);
  EXPECT_NE(json.find("\"join_results\":42"), std::string::npos);
  EXPECT_NE(json.find("pscore S\\\"3\\\\#0"), std::string::npos);
  // No raw (unescaped) quote inside the hostile name.
  EXPECT_EQ(json.find("S\"3"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"pscore #1\",\"ph\":\"C\",\"ts\":500000.000,"
                      "\"pid\":1,\"tid\":0,\"args\":{\"pscore\":0.500}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"weight #1\""), std::string::npos);
}

TEST(TraceExportTest, SpansJsonlExcludesTimingByDefault) {
  TraceSink sink;
  {
    TraceSpan span(&sink, "discard", "pipeline");
    span.set_region(7);
  }
  const std::string bare = SpansJsonl(sink.Snapshot());
  EXPECT_NE(bare.find("\"name\":\"discard\""), std::string::npos);
  EXPECT_NE(bare.find("\"region\":7"), std::string::npos);
  EXPECT_EQ(bare.find("ts_us"), std::string::npos);
  const std::string timed = SpansJsonl(sink.Snapshot(), true);
  EXPECT_NE(timed.find("\"ts_us\":"), std::string::npos);
  EXPECT_NE(timed.find("\"dur_us\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming obs (wall-clock serving): Drain, sampling, incremental writer.

TEST(TraceSinkTest, DrainMovesRecordsOutAndResetsTheSink) {
  TraceSink sink;
  for (int i = 0; i < 5; ++i) {
    TraceSpan span(&sink, "step", "serve");
    span.set_region(i);
  }
  const std::vector<SpanRecord> first = sink.Drain();
  ASSERT_EQ(first.size(), 5u);
  for (size_t i = 1; i < first.size(); ++i) {
    EXPECT_LT(first[i - 1].seq, first[i].seq);  // Seq-sorted, like Snapshot.
  }
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(sink.Drain().empty());
  // The sink keeps working after a drain; seq keeps advancing globally.
  { TraceSpan span(&sink, "later", "serve"); }
  const std::vector<SpanRecord> second = sink.Drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_GT(second[0].seq, first.back().seq);
}

TEST(TraceSinkTest, SamplingIsStickyPerRootDeterministically) {
  TraceSink sink;
  sink.set_sample_every(3);
  for (int i = 0; i < 10; ++i) {
    TraceSpan span(&sink, "sampled", "serve");
  }
  const std::vector<SpanRecord> kept = sink.Snapshot();
  // Span ids 1..10 were assigned; an unparented span roots its own tree,
  // so the sampling key is the id and 3, 6, 9 survive.
  ASSERT_EQ(kept.size(), 3u);
  for (const SpanRecord& span : kept) {
    EXPECT_EQ(span.root % 3, 0u);
    EXPECT_EQ(span.id, span.root);
  }
  sink.set_sample_every(0);  // Clamped to 1: keep everything again.
  { TraceSpan span(&sink, "all", "serve"); }
  EXPECT_EQ(sink.size(), 4u);
}

TEST(TraceSinkTest, SamplingKeepsWholeCausalTrees) {
  TraceSink sink;
  sink.set_sample_every(2);
  {
    TraceSpan dropped_root(&sink, "root", "serve");  // id 1: dropped tree.
    TraceSpan kept_root(&sink, "root", "serve");     // id 2: kept tree.
    {
      TraceSpan child(&sink, "child", "serve");  // id 3, tree 2.
      child.set_parent(kept_root.id(), kept_root.id());
    }
    {
      TraceSpan child(&sink, "child", "serve");  // id 4, tree 1.
      child.set_parent(dropped_root.id(), dropped_root.id());
    }
  }
  // The sampling unit is the root: tree 2 (root and child) survives whole,
  // tree 1 is dropped whole — never a child without its parent.
  const std::vector<SpanRecord> kept = sink.Snapshot();
  ASSERT_EQ(kept.size(), 2u);
  for (const SpanRecord& span : kept) {
    EXPECT_EQ(span.root, 2u);
  }
  EXPECT_STREQ(kept[0].name, "child");  // Destructs (and records) first.
  EXPECT_EQ(kept[0].parent, 2u);
  EXPECT_STREQ(kept[1].name, "root");
  EXPECT_EQ(kept[1].parent, 0u);
}

TEST(StreamingTraceWriterTest, ChromeFormatStreamsLoadableBatches) {
  const std::string path = ::testing::TempDir() + "/caqe_stream.trace.json";
  TraceSink sink;
  {
    auto writer =
        StreamingTraceWriter::Open(path, StreamingTraceWriter::Format::kChrome)
            .value();
    {
      TraceSpan span(&sink, "batch1", "serve");
      span.set_region(1);
    }
    writer->Append(sink.Drain());
    {
      TraceSpan span(&sink, "batch2", "serve");
      span.set_query(2);
    }
    { TraceSpan span(&sink, "batch2b", "serve"); }
    writer->Append(sink.Drain());
    writer->Append({});  // Empty batches are fine.
    EXPECT_EQ(writer->spans_written(), 3u);
    writer->Close();
    writer->Close();  // Idempotent.
  }
  std::string content;
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) content.append(buf, n);
  std::fclose(file);
  EXPECT_EQ(content.rfind("{\"displayTimeUnit\"", 0), 0u);
  EXPECT_NE(content.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(content.find("\"batch1\""), std::string::npos);
  EXPECT_NE(content.find("\"batch2\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\":\"M\""), std::string::npos);  // Process name.
  EXPECT_NE(content.find("]}"), std::string::npos);  // Trailer present.
  std::remove(path.c_str());
}

TEST(StreamingTraceWriterTest, JsonlFormatWritesOneLinePerSpan) {
  const std::string path = ::testing::TempDir() + "/caqe_stream.jsonl";
  TraceSink sink;
  {
    auto writer =
        StreamingTraceWriter::Open(path, StreamingTraceWriter::Format::kJsonl)
            .value();
    for (int i = 0; i < 3; ++i) {
      TraceSpan span(&sink, "row", "serve");
      span.set_region(i);
    }
    writer->Append(sink.Drain());
  }  // Destructor closes.
  std::string content;
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) content.append(buf, n);
  std::fclose(file);
  int lines = 0;
  for (char c : content) lines += c == '\n';
  EXPECT_EQ(lines, 3);
  EXPECT_NE(content.find("\"ts_us\":"), std::string::npos);  // Wall timings.
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Contract event log: the audit ledger view.

TEST(ContractEventLogTest, AppendAssignsLedgerSeqAndTailFiltersByRequest) {
  ContractEventLog log;
  log.Append({.kind = ContractEventKind::kArrival,
              .request_id = 0,
              .vtime = 0.1});
  // An exec event between ledger events takes no ledger seq.
  log.Append({.kind = ContractEventKind::kRegionScheduled, .region = 4});
  log.Append({.kind = ContractEventKind::kDecision,
              .request_id = 1,
              .phase = "admit",
              .reason = "feasible"});
  log.Append({.kind = ContractEventKind::kFinish,
              .request_id = 0,
              .phase = "completed"});

  const std::vector<ContractEvent> all = log.Snapshot();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].seq, 0u);
  EXPECT_EQ(all[2].seq, 1u);
  EXPECT_EQ(all[3].seq, 2u);
  EXPECT_FALSE(IsLedgerEvent(all[1]));
  // Only ledger events read the wall clock; no view prints an exec
  // event's wall_us.
  EXPECT_EQ(all[1].wall_us, 0.0);
  const std::string ledger = log.LedgerJsonl(/*include_wall=*/false);
  EXPECT_EQ(ledger.find("region_scheduled"), std::string::npos);
  EXPECT_NE(ledger.find("{\"seq\":2,\"kind\":\"finish\""),
            std::string::npos);

  const std::vector<ContractEvent> tail = log.Tail(0, 8);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].kind, ContractEventKind::kArrival);
  EXPECT_EQ(tail[1].kind, ContractEventKind::kFinish);
  // With a smaller cap the *latest* records win.
  const std::vector<ContractEvent> last = log.Tail(0, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].kind, ContractEventKind::kFinish);
  EXPECT_TRUE(log.Tail(9, 4).empty());
  // The exec event (request -1) is not a ledger record of request -1.
  EXPECT_TRUE(log.Tail(-1, 4).empty());
}

TEST(ContractEventLogTest, CapacityBoundsLedgerEventsAndCountsDropped) {
  ContractEventLog log;
  log.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    log.Append({.kind = ContractEventKind::kArrival, .request_id = i});
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 3);
  // Dropped events still took their ledger seq: the kept prefix is intact
  // and the next kept record would not reuse a number.
  const std::vector<ContractEvent> kept = log.Snapshot();
  EXPECT_EQ(kept[1].seq, 1u);
}

// One cap covers every kind: engine scheduling events count against it
// and are dropped (and counted) past it like ledger events.
TEST(ContractEventLogTest, CapacityAlsoBoundsExecEvents) {
  ContractEventLog log;
  log.set_capacity(3);
  log.Append({.kind = ContractEventKind::kArrival, .request_id = 0});
  for (int region = 0; region < 4; ++region) {
    log.Append({.kind = ContractEventKind::kRegionScheduled,
                .region = region});
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.dropped(), 2);
  const std::string exec = log.ExecEventsJsonl();
  EXPECT_NE(exec.find("\"region\":1,"), std::string::npos);
  EXPECT_EQ(exec.find("\"region\":2,"), std::string::npos);
}

TEST(ContractEventLogTest, WallClockIsAlwaysTheLastLedgerField) {
  ContractEventLog log;
  log.Append({.kind = ContractEventKind::kDecision,
              .request_id = 3,
              .vtime = 0.25,
              .phase = "admit",
              .reason = "contract-feasible",
              .est_first_seconds = 0.5,
              .est_finish_seconds = 1.5,
              .expected_utility = 0.75});

  const std::string with_wall = log.LedgerJsonl(true);
  const std::string without = log.LedgerJsonl(false);
  // wall_us — the only nondeterministic field — is emitted last so that
  // stripping the `,"wall_us":...` suffix yields exactly LedgerJsonl(false),
  // which is what the replay determinism gates byte-compare.
  const size_t wall_pos = with_wall.find(",\"wall_us\":");
  ASSERT_NE(wall_pos, std::string::npos);
  EXPECT_EQ(with_wall.find('}', wall_pos), with_wall.size() - 2);
  EXPECT_EQ(without.find("wall_us"), std::string::npos);
  EXPECT_EQ(with_wall.substr(0, wall_pos) + "}\n", without);
  EXPECT_NE(without.find("\"kind\":\"decision\""), std::string::npos);
  EXPECT_NE(without.find("\"phase\":\"admit\""), std::string::npos);
  EXPECT_NE(without.find("\"reason\":\"contract-feasible\""),
            std::string::npos);
}

// A grafted request's region steps reach the ledger when they moved its
// (results, pScore, weight): the first against the graft's state, the rest
// against the previous step. An unmoved first step, and every step of a
// query that was never grafted (batch runs), reach the health view only.
TEST(ContractEventLogTest, LedgerAuditsRegionStepsThatMovedAGraftedRequest) {
  ContractEventLog log;
  log.Append({.kind = ContractEventKind::kGraft,
              .request_id = 1,
              .query = 0,
              .weight = 1.0});
  log.Append({.kind = ContractEventKind::kGraft,
              .request_id = 2,
              .query = 1,
              .weight = 1.0});
  // Request 1: first step unmoved, then moved.
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 1,
              .region = 7,
              .vtime = 0.1,
              .weight = 1.0});
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 1,
              .region = 8,
              .vtime = 0.2,
              .results = 2,
              .pscore = 0.5,
              .weight = 1.0});
  // Request 2: first step moved its weight only.
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 2,
              .region = 7,
              .vtime = 0.1,
              .weight = 1.25});
  // Batch query 5: never grafted.
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 5,
              .vtime = 0.1,
              .results = 1,
              .pscore = 0.25,
              .weight = 1.0});
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 5,
              .vtime = 0.2,
              .results = 2,
              .pscore = 0.5,
              .weight = 1.0});

  int health_lines = 0;
  for (const char c : log.HealthJsonl()) health_lines += c == '\n';
  EXPECT_EQ(health_lines, 5);
  const std::string ledger = log.LedgerJsonl(/*include_wall=*/false);
  EXPECT_EQ(ledger,
            "{\"seq\":0,\"kind\":\"graft\",\"req\":1,\"vtime\":0,"
            "\"span\":0,\"parent\":0,\"lineage_regions\":0}\n"
            "{\"seq\":1,\"kind\":\"graft\",\"req\":2,\"vtime\":0,"
            "\"span\":0,\"parent\":0,\"lineage_regions\":0}\n"
            "{\"seq\":2,\"kind\":\"region_step\",\"req\":1,\"vtime\":0.2,"
            "\"span\":0,\"parent\":0,\"region\":8,\"results\":2,"
            "\"pscore_before\":0,\"pscore\":0.5,\"weight\":1}\n"
            "{\"seq\":3,\"kind\":\"region_step\",\"req\":2,\"vtime\":0.1,"
            "\"span\":0,\"parent\":0,\"region\":7,\"results\":0,"
            "\"pscore_before\":0,\"pscore\":0,\"weight\":1.25}\n");
}

// The flight ring receives every ledger event, kept or dropped past the
// capacity — and nothing else the log records.
TEST(ContractEventLogTest, MirrorsLedgerEventsIntoTheFlightRing) {
  FlightRecorder flight(16);
  ContractEventLog log;
  log.set_flight(&flight);
  log.set_capacity(2);
  log.Append({.kind = ContractEventKind::kRegionScheduled, .region = 1});
  log.Append({.kind = ContractEventKind::kRegionStep,
              .request_id = 5,
              .results = 1,
              .pscore = 0.5,
              .weight = 1.0});  // Batch step: health only.
  log.Append({.kind = ContractEventKind::kFirstResult,
              .request_id = 3,
              .vtime = 0.5,
              .results = 1});  // Past the capacity: dropped, still mirrored.
  EXPECT_EQ(log.dropped(), 1);
  const std::vector<FlightEntry> dump = flight.Dump();
  ASSERT_EQ(dump.size(), 1u);
  EXPECT_EQ(dump[0].kind, 'a');
  EXPECT_STREQ(dump[0].name, "first_result");
  EXPECT_EQ(dump[0].request_id, 3);
  EXPECT_EQ(dump[0].value, 1);
}

// ---------------------------------------------------------------------------
// Flight recorder.

TEST(FlightRecorderTest, RingKeepsTheMostRecentEntries) {
  FlightRecorder flight(4);
  EXPECT_EQ(flight.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    FlightEntry entry;
    entry.kind = 'a';
    entry.name = "decision";
    entry.request_id = i;
    flight.Record(entry);
  }
  EXPECT_EQ(flight.total(), 10u);
  const std::vector<FlightEntry> dump = flight.Dump();
  ASSERT_EQ(dump.size(), 4u);
  // Oldest first; requests 6..9 survived the wrap.
  for (size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].request_id, 6 + static_cast<int>(i));
    EXPECT_EQ(dump[i].seq, 6 + i);
  }
}

TEST(FlightRecorderTest, ConcurrentWritersNeverTearTheDump) {
  FlightRecorder flight(64);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&flight, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const FlightEntry& entry : flight.Dump()) {
        // Every surviving entry must be internally consistent — a torn
        // read would break the request_id/value invariant the writers
        // maintain below.
        EXPECT_EQ(entry.kind, 'a');
        EXPECT_EQ(entry.value, static_cast<int64_t>(entry.request_id) * 2);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&flight, t] {
      for (int i = 0; i < kPerThread; ++i) {
        FlightEntry entry;
        entry.kind = 'a';
        entry.name = "region_step";
        entry.request_id = t * kPerThread + i;
        entry.value = static_cast<int64_t>(entry.request_id) * 2;
        flight.Record(entry);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(flight.total(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(FlightRecorderTest, JsonlExportsBothKinds) {
  FlightRecorder flight(8);
  FlightEntry span;
  span.kind = 's';
  span.name = "join";
  span.region = 2;
  flight.Record(span);
  FlightEntry audit;
  audit.kind = 'a';
  audit.name = "finish";
  audit.request_id = 1;
  audit.vtime = 0.5;
  flight.Record(audit);
  const std::string jsonl = flight.Jsonl();
  EXPECT_NE(jsonl.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"audit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"join\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"finish\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"region\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"req\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Contract event log: the health view.

ContractEvent Step(double vtime, int id, int64_t results, double pscore,
                   double weight) {
  return {.kind = ContractEventKind::kRegionStep,
          .request_id = id,
          .vtime = vtime,
          .results = results,
          .pscore = pscore,
          .weight = weight};
}

TEST(ContractEventLogTest, DeduplicatesUnchangedRegionSteps) {
  ContractEventLog log;
  log.Append(Step(0.1, 3, 5, 1.0, 1.0));
  log.Append(Step(0.2, 3, 5, 1.0, 1.0));  // Identical triple: dropped.
  log.Append(Step(0.3, 3, 6, 1.2, 1.0));  // Results moved: recorded.
  log.Append(Step(0.4, 3, 6, 1.2, 0.8));  // Weight moved: recorded.
  const std::vector<ContractEvent> steps = log.Snapshot();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_DOUBLE_EQ(steps[0].vtime, 0.1);
  EXPECT_DOUBLE_EQ(steps[1].vtime, 0.3);
  EXPECT_DOUBLE_EQ(steps[2].weight, 0.8);
  // pscore_before follows the id's previous kept step (0 at its first).
  EXPECT_DOUBLE_EQ(steps[0].pscore_before, 0.0);
  EXPECT_DOUBLE_EQ(steps[1].pscore_before, 1.0);
  EXPECT_DOUBLE_EQ(steps[2].pscore_before, 1.2);
  // A deduplicated step is not a dropped one.
  EXPECT_EQ(log.dropped(), 0);
}

TEST(ContractEventLogTest, CapacityBoundsTheHealthTimeline) {
  ContractEventLog log;
  log.set_capacity(2);
  log.Append(Step(0.1, 0, 1, 0.1, 1.0));
  log.Append(Step(0.2, 0, 2, 0.2, 1.0));
  log.Append(Step(0.3, 0, 3, 0.3, 1.0));  // Over capacity: counted.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1);
}

TEST(ContractEventLogTest, HealthJsonlEscapesNames) {
  ContractEventLog log;
  log.SetName(5, "q\"uote\\slash");
  log.Append(Step(0.25, 5, 2, 0.5, 1.0));
  const std::string jsonl = log.HealthJsonl();
  EXPECT_EQ(jsonl,
            "{\"vtime\":0.250000000,\"id\":5,\"name\":\"q\\\"uote\\\\slash\","
            "\"results\":2,\"pscore\":0.500000000,\"weight\":1.000000000}\n");
}

// ---------------------------------------------------------------------------
// Contract event log: the exec view.

TEST(ExecEventsJsonlTest, EscapesHostileQueryNames) {
  const ContractEvent event{.kind = ContractEventKind::kResultsEmitted,
                            .query = 0,
                            .vtime = 0.5,
                            .count = 3};
  ContractEventLog log;
  log.Append(event);
  const std::string jsonl = log.ExecEventsJsonl({"a\"b\\c"});
  EXPECT_NE(jsonl.find("\"kind\":\"results_emitted\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"a\\\"b\\\\c\""), std::string::npos);
  // The raw, unescaped name must not appear anywhere.
  EXPECT_EQ(jsonl.find("a\"b\\c"), std::string::npos);

  // Out-of-range or negative query indices simply omit the name field.
  ContractEvent far = event;
  far.query = 7;
  ContractEventLog far_log;
  far_log.Append(far);
  const std::string no_name = far_log.ExecEventsJsonl({"only-one"});
  EXPECT_EQ(no_name.find("\"name\""), std::string::npos);
}

// The serving kinds print under their exec names, with `query` the
// workload slot (admitted/retired) or the request id (repreviewed); a
// finish of a request that never ran and the ledger-only kinds are not
// exec events.
TEST(ExecEventsJsonlTest, PrintsServingKindsUnderTheirExecNames) {
  ContractEventLog log;
  log.Append({.kind = ContractEventKind::kArrival, .request_id = 9});
  log.Append({.kind = ContractEventKind::kGraft,
              .request_id = 9,
              .query = 2,
              .count = 14});
  log.Append(
      {.kind = ContractEventKind::kRepreview, .request_id = 9, .count = 1});
  log.Append({.kind = ContractEventKind::kFinish,
              .request_id = 9,
              .query = 2,
              .count = 3});
  log.Append({.kind = ContractEventKind::kFinish, .request_id = 10});
  EXPECT_EQ(log.ExecEventsJsonl(),
            "{\"kind\":\"query_admitted\",\"vtime\":0.000000000,"
            "\"region\":-1,\"query\":2,\"count\":14}\n"
            "{\"kind\":\"query_repreviewed\",\"vtime\":0.000000000,"
            "\"region\":-1,\"query\":9,\"count\":1}\n"
            "{\"kind\":\"query_retired\",\"vtime\":0.000000000,"
            "\"region\":-1,\"query\":2,\"count\":3}\n");
}

// ---------------------------------------------------------------------------
// Engine integration: determinism, wall-phase accounting, span coverage.

/// Region steps in `obs`'s event log (the health view's lines).
size_t RegionSteps(const Observability& obs) {
  size_t n = 0;
  for (const ContractEvent& event : obs.events.Snapshot()) {
    if (event.kind == ContractEventKind::kRegionStep) ++n;
  }
  return n;
}

ExecutionReport RunCaqe(const Table& r, const Table& t,
                        const Workload& workload, int num_threads,
                        Observability* obs) {
  std::vector<Contract> contracts;
  for (int q = 0; q < workload.num_queries(); ++q) {
    contracts.push_back(MakeLogDecayContract());
  }
  ExecOptions options;
  options.num_threads = num_threads;
  options.obs = obs;
  std::unique_ptr<Engine> engine = MakeEngine("CAQE").value();
  return engine->Execute(r, t, workload, contracts, options).value();
}

TEST(ObsIntegrationTest, AttachingObservabilityIsDeterminismNeutral) {
  auto [r, t] = MakeTables(Distribution::kIndependent, /*rows=*/400,
                           /*attrs=*/4, /*selectivity=*/0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 5, PriorityPolicy::kUniform).value();

  const ExecutionReport off = RunCaqe(r, t, workload, 1, nullptr);
  Observability obs;
  const ExecutionReport on = RunCaqe(r, t, workload, 1, &obs);

  EXPECT_EQ(on.workload_pscore, off.workload_pscore);
  EXPECT_EQ(on.average_satisfaction, off.average_satisfaction);
  EXPECT_EQ(on.stats.join_probes, off.stats.join_probes);
  EXPECT_EQ(on.stats.join_results, off.stats.join_results);
  EXPECT_EQ(on.stats.dominance_cmps, off.stats.dominance_cmps);
  EXPECT_EQ(on.stats.coarse_ops, off.stats.coarse_ops);
  EXPECT_EQ(on.stats.emitted_results, off.stats.emitted_results);
  EXPECT_EQ(on.stats.virtual_seconds, off.stats.virtual_seconds);
  ASSERT_EQ(on.queries.size(), off.queries.size());
  for (size_t q = 0; q < on.queries.size(); ++q) {
    EXPECT_EQ(on.queries[q].pscore, off.queries[q].pscore);
    EXPECT_EQ(on.queries[q].results, off.queries[q].results);
  }

  // The traced run actually produced telemetry.
  EXPECT_GT(obs.spans.size(), 0u);
  EXPECT_GT(RegionSteps(obs), 0u);
  const std::string prom = obs.metrics.PrometheusText();
  EXPECT_NE(prom.find("caqe_engine_dominance_cmps_total"),
            std::string::npos);
  EXPECT_NE(prom.find("caqe_scheduler_picks_total"), std::string::npos);
  EXPECT_NE(prom.find("caqe_region_service_virtual_seconds_bucket"),
            std::string::npos);

  // Span taxonomy: every pipeline phase shows up with region attribution.
  bool saw_join = false, saw_eval = false, saw_region_build = false;
  for (const SpanRecord& span : obs.spans.Snapshot()) {
    const std::string name = span.name;
    if (name == "join") saw_join = span.region >= 0;
    if (name == "eval") saw_eval = span.region >= 0;
    if (name == "region_build") saw_region_build = true;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_eval);
  EXPECT_TRUE(saw_region_build);

  // The Chrome export is non-trivial and structurally a trace.
  const std::string trace = obs.ChromeTrace();
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
}

// ProgXe+ runs the shared region core once per query, so it records what
// the shared engines record — a process_region span per region step and
// the region engine's metrics — and reports the same bytes with or without
// obs and at any thread count.
TEST(ObsIntegrationTest, ProgXeRecordsRegionTelemetryDeterminismNeutrally) {
  auto [r, t] = MakeTables(Distribution::kIndependent, /*rows=*/400,
                           /*attrs=*/4, /*selectivity=*/0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 5, PriorityPolicy::kUniform).value();
  const std::vector<Contract> contracts(workload.num_queries(),
                                        MakeLogDecayContract());
  const auto run = [&](int num_threads, Observability* obs) {
    ExecOptions options;
    options.num_threads = num_threads;
    options.capture_results = true;
    options.obs = obs;
    std::unique_ptr<Engine> engine = MakeEngine("ProgXe+").value();
    return engine->Execute(r, t, workload, contracts, options).value();
  };

  const ExecutionReport plain = run(1, nullptr);
  Observability obs;
  ::caqe::testing::ExpectReportsIdentical(run(1, &obs), plain);
  ::caqe::testing::ExpectReportsIdentical(run(4, nullptr), plain);

  int64_t region_spans = 0;
  for (const SpanRecord& span : obs.spans.Snapshot()) {
    if (std::string(span.name) == "process_region") ++region_spans;
  }
  EXPECT_GT(region_spans, 0);
  EXPECT_GT(RegionSteps(obs), 0u);
  const std::string prom = obs.metrics.PrometheusText();
  EXPECT_NE(prom.find("caqe_region_service_virtual_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("caqe_scheduler_picks_total"), std::string::npos);
  EXPECT_NE(prom.find("caqe_engine_dominance_cmps_total"),
            std::string::npos);
}

// Wall-phase buckets are measured on the serial driver thread inside the
// engine's overall wall interval, so their sum can never exceed
// wall_seconds — at any thread count (the phase spans bracket the parallel
// sections, they do not sum per-worker time).
TEST(ObsIntegrationTest, WallPhaseBucketsSumBelowWallSeconds) {
  auto [r, t] = MakeTables(Distribution::kIndependent, /*rows=*/600,
                           /*attrs=*/4, /*selectivity=*/0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 7, PriorityPolicy::kUniform).value();
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const ExecutionReport report =
        RunCaqe(r, t, workload, threads, nullptr);
    const EngineStats& s = report.stats;
    const double phase_sum = s.wall_region_build_seconds +
                             s.wall_join_seconds + s.wall_eval_seconds +
                             s.wall_discard_seconds;
    EXPECT_GT(phase_sum, 0.0);
    EXPECT_LE(phase_sum, s.wall_seconds * (1.0 + 1e-9) + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Serving integration: report text byte-identical with observability on.

TEST(ObsServingTest, ServingReportIdenticalWithObservabilityAttached) {
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.02, 0.02};
  cfg.seed = 2014;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 2015;
  const Table t = GenerateTable("T", cfg).value();
  const std::vector<MappingFunction> dims = {
      MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
  const std::vector<int> keys = {0, 1};

  TraceConfig trace_config;
  trace_config.num_requests = 8;
  trace_config.arrival_rate = 40.0;
  trace_config.seed = 2014;
  trace_config.reference_seconds = 0.1;
  const std::vector<TraceRequest> trace =
      MakeSyntheticTrace(trace_config, keys, 3);

  auto run = [&](Observability* obs) {
    ServeOptions options;
    options.target_regions = 64;
    options.obs = obs;
    auto server = CaqeServer::Create(r, t, dims, keys, options).value();
    SubmitTrace(*server, trace);
    return ServingReportText(server->Run().value());
  };

  const std::string off = run(nullptr);
  Observability obs;
  const std::string on = run(&obs);
  EXPECT_EQ(on, off);

  // The serving run populated admission metrics, TTFR histogram, and
  // per-request health timelines.
  const std::string prom = obs.metrics.PrometheusText();
  EXPECT_NE(prom.find("caqe_serve_admission_decisions_total"),
            std::string::npos);
  EXPECT_NE(prom.find("caqe_serve_time_to_first_result_vseconds_bucket"),
            std::string::npos);
  EXPECT_GT(RegionSteps(obs), 0u);
  bool saw_admission = false;
  for (const SpanRecord& span : obs.spans.Snapshot()) {
    if (std::string(span.name) == "admission" && span.query >= 0) {
      saw_admission = true;
    }
  }
  EXPECT_TRUE(saw_admission);
}

// The tentpole determinism gate, in-process: the audit ledger (minus wall
// time) must be byte-identical across thread counts, and every record must
// hang off the causal tree of its own request — no orphaned children.
TEST(ObsServingTest, LedgerIsDeterministicAndCausallyConnected) {
  GeneratorConfig cfg;
  cfg.num_rows = 300;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.02, 0.02};
  cfg.seed = 2014;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 2015;
  const Table t = GenerateTable("T", cfg).value();
  const std::vector<MappingFunction> dims = {
      MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
  const std::vector<int> keys = {0, 1};

  TraceConfig trace_config;
  trace_config.num_requests = 8;
  trace_config.arrival_rate = 40.0;
  trace_config.seed = 2014;
  trace_config.reference_seconds = 0.1;
  trace_config.cancel_fraction = 0.1;
  const std::vector<TraceRequest> trace =
      MakeSyntheticTrace(trace_config, keys, 3);

  auto run = [&](int threads) {
    Observability obs;
    ServeOptions options;
    options.target_regions = 64;
    options.num_threads = threads;
    options.obs = &obs;
    auto server = CaqeServer::Create(r, t, dims, keys, options).value();
    SubmitTrace(*server, trace);
    server->Run().value();
    std::vector<ContractEvent> ledger;
    for (const ContractEvent& event : obs.events.Snapshot()) {
      if (IsLedgerEvent(event)) ledger.push_back(event);
    }
    return std::make_pair(obs.events.LedgerJsonl(/*include_wall=*/false),
                          ledger);
  };

  const auto [jsonl_t1, records] = run(1);
  const auto [jsonl_t8, records_t8] = run(8);
  EXPECT_EQ(jsonl_t1, jsonl_t8);
  ASSERT_FALSE(records.empty());

  // Connectivity: a record's parent is either 0 (the root arrival) or the
  // span of another record of the same request.
  std::map<int, std::set<uint64_t>> spans_of;
  for (const ContractEvent& record : records) {
    if (record.span != 0) spans_of[record.request_id].insert(record.span);
  }
  for (const ContractEvent& record : records) {
    if (record.parent == 0) continue;
    EXPECT_NE(spans_of[record.request_id].count(record.parent), 0u)
        << LedgerEventJson(record);
  }

  // Every submitted request reached a single terminal finish record, and
  // every request saw an arrival and a decision.
  std::map<int, int> finishes;
  std::set<int> arrived;
  std::set<int> decided;
  for (const ContractEvent& record : records) {
    if (record.kind == ContractEventKind::kFinish) {
      finishes[record.request_id]++;
    }
    if (record.kind == ContractEventKind::kArrival) {
      arrived.insert(record.request_id);
    }
    if (record.kind == ContractEventKind::kDecision) {
      decided.insert(record.request_id);
    }
  }
  EXPECT_EQ(finishes.size(), trace.size());
  for (const auto& [id, count] : finishes) {
    EXPECT_EQ(count, 1) << "request " << id;
  }
  EXPECT_EQ(arrived.size(), trace.size());
  EXPECT_EQ(decided.size(), trace.size());
}

}  // namespace
}  // namespace caqe
