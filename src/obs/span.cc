#include "obs/span.h"

#include <algorithm>

#include "common/json_util.h"
#include "metrics/printer.h"
#include "obs/event_log.h"
#include "obs/flight_recorder.h"

namespace caqe {

namespace {

std::atomic<int> g_next_thread_id{0};

}  // namespace

int LogicalThreadId() {
  thread_local int id = g_next_thread_id.fetch_add(1);
  return id;
}

void TraceSink::Record(SpanRecord record) {
  // The flight recorder mirrors everything, before sampling: its ring is
  // the always-on last-resort view and must not share the sink's blind
  // spots.
  if (FlightRecorder* flight = flight_.load(std::memory_order_acquire)) {
    FlightEntry entry;
    entry.kind = 's';
    entry.name = record.name;
    entry.request_id = record.query;
    entry.region = record.region;
    entry.wall_us = record.start_us;
    entry.value = record.arg_value;
    flight->Record(entry);
  }
  // Sticky tree sampling: keep or drop whole causal trees, keyed by the
  // root span id, so a kept parent never loses its children. Spans with no
  // identity (sink-less construction paths) fall back to seq.
  const uint64_t every = sample_every_.load(std::memory_order_relaxed);
  if (every > 1) {
    const uint64_t key =
        record.root != 0 ? record.root : (record.id != 0 ? record.id
                                                         : record.seq);
    if (key % every != 0) return;
  }
  Shard& shard = shards_[LogicalThreadId() % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.records.push_back(record);
}

std::vector<SpanRecord> TraceSink::Snapshot() const {
  std::vector<SpanRecord> merged;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.insert(merged.end(), shard.records.begin(), shard.records.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.seq < b.seq;
            });
  return merged;
}

std::vector<SpanRecord> TraceSink::Drain() {
  std::vector<SpanRecord> merged;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    merged.insert(merged.end(), shard.records.begin(), shard.records.end());
    shard.records.clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.seq < b.seq;
            });
  return merged;
}

size_t TraceSink::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.records.size();
  }
  return total;
}

std::string ChromeSpanJson(const SpanRecord& span) {
  std::string event = "{\"name\":";
  JsonAppendString(event, span.name);
  event += ",\"cat\":";
  JsonAppendString(event, span.category);
  event += ",\"ph\":\"X\",\"ts\":" + FormatDouble(span.start_us, 3);
  event += ",\"dur\":" + FormatDouble(span.dur_us, 3);
  event += ",\"pid\":0,\"tid\":" + std::to_string(span.tid);
  event += ",\"args\":{\"seq\":" + std::to_string(span.seq);
  if (span.id != 0) {
    event += ",\"span\":" + std::to_string(span.id);
    event += ",\"parent\":" + std::to_string(span.parent);
  }
  if (span.region >= 0) {
    event += ",\"region\":" + std::to_string(span.region);
  }
  if (span.query >= 0) event += ",\"query\":" + std::to_string(span.query);
  if (span.arg_name != nullptr) {
    event += ',';
    JsonAppendString(event, span.arg_name);
    event += ':' + std::to_string(span.arg_value);
  }
  event += "}}";
  return event;
}

std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const ContractEventLog* events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  auto append_event = [&](const std::string& body) {
    if (!first) out += ",\n";
    first = false;
    out += body;
  };

  // Process metadata: pid 0 carries the wall-clock spans, pid 1 the
  // virtual-time contract-health counters (their timestamps are virtual
  // seconds, a different clock domain than the spans').
  append_event(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"caqe wall clock\"}}");
  if (events != nullptr) {
    append_event(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"caqe virtual clock (contract health)\"}}");
  }

  for (const SpanRecord& span : spans) {
    append_event(ChromeSpanJson(span));
  }

  if (events != nullptr) {
    // Counter tracks: one pScore and one weight series per query, stamped
    // in virtual microseconds so trajectories render as Perfetto counters.
    const std::string counters = events->ChromeCounterEvents();
    if (!counters.empty()) append_event(counters);
  }
  out += "\n]}\n";
  return out;
}

std::string SpansJsonl(const std::vector<SpanRecord>& spans,
                       bool include_timing) {
  std::string out;
  for (const SpanRecord& span : spans) {
    out += "{\"name\":";
    JsonAppendString(out, span.name);
    out += ",\"cat\":";
    JsonAppendString(out, span.category);
    out += ",\"seq\":" + std::to_string(span.seq);
    out += ",\"span\":" + std::to_string(span.id);
    out += ",\"parent\":" + std::to_string(span.parent);
    out += ",\"root\":" + std::to_string(span.root);
    out += ",\"region\":" + std::to_string(span.region);
    out += ",\"query\":" + std::to_string(span.query);
    if (span.arg_name != nullptr) {
      out += ",\"arg\":";
      JsonAppendString(out, span.arg_name);
      out += ",\"value\":" + std::to_string(span.arg_value);
    }
    if (include_timing) {
      out += ",\"ts_us\":" + FormatDouble(span.start_us, 3);
      out += ",\"dur_us\":" + FormatDouble(span.dur_us, 3);
      out += ",\"tid\":" + std::to_string(span.tid);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace caqe
