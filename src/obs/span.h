// Trace spans: scoped wall-clock regions with deterministic attribution.
//
// A TraceSpan measures one scoped stretch of work (a pipeline phase, an
// admission decision, a graft) and records it into a lock-sharded TraceSink.
// Spans carry two kinds of payload:
//
//   * deterministic args — region id, query id, and one named operation
//     count (e.g. the dominance_cmps delta of an eval phase). These are
//     identical across thread counts and batch kernels, so two traces diff
//     cleanly on everything except their timestamps.
//   * wall timing — start/duration against the sink's epoch. Wall times are
//     observability-only; nothing downstream of a span may feed a
//     deterministic counter or the virtual clock (see DESIGN.md §10).
//
// Cost discipline: a span whose sink is null and whose wall accumulator is
// null is a single branch in the constructor and one in the destructor — no
// clock reads. The tracing layer is compiled in unconditionally and enabled
// by handing an Observability to the options structs.
//
// Thread ownership: the optional `wall_sink` double accumulator has a
// single writer. The span adds its wall time to it on destruction without
// synchronization, so a given accumulator must only ever be written from
// one thread at a time (all current call sites construct and destroy their
// spans on the serial driver thread). Cross-thread recording goes through
// the sharded sink, which is safe from any number of threads concurrently
// (obs_test.cc covers this under ThreadSanitizer).
#ifndef CAQE_OBS_SPAN_H_
#define CAQE_OBS_SPAN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace caqe {

class FlightRecorder;

/// One completed span. `name`, `category`, and `arg_name` must point to
/// string literals (static storage duration) — the sink stores the pointer.
struct SpanRecord {
  const char* name = "";
  const char* category = "";
  /// Global record order (atomic). With spans emitted from the serial
  /// driver thread (every current call site), seq order is deterministic,
  /// which is what makes the timing-free JSONL export byte-comparable.
  uint64_t seq = 0;
  /// Span identity (assigned at TraceSpan *construction*, so a parent's id
  /// is always smaller than its children's) and causal links; 0 = none.
  /// `root` names the tree this span belongs to — the sampling unit.
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t root = 0;
  /// Wall start/duration in microseconds against the sink's epoch.
  double start_us = 0.0;
  double dur_us = 0.0;
  /// Logical thread id (stable per OS thread for the process lifetime).
  int tid = 0;
  /// Deterministic attribution; -1 = not applicable.
  int region = -1;
  int query = -1;
  /// One named operation count (nullptr when unused).
  const char* arg_name = nullptr;
  int64_t arg_value = 0;
};

/// Thread-safe span collector. Records land in one of kShards vectors keyed
/// by the recording thread's logical id, so concurrent writers from a
/// thread pool contend only when they hash to the same shard.
class TraceSink {
 public:
  static constexpr int kShards = 16;

  TraceSink() : epoch_(std::chrono::steady_clock::now()) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Records one span; safe from any thread. When sampling is enabled
  /// (set_sample_every > 1) the keep/drop decision is *sticky per causal
  /// tree*: a span is kept iff its root span id (its own id when it is the
  /// root) is a multiple of the sampling period, so a sampled tree is kept
  /// or dropped whole — children are never orphaned from a kept parent.
  /// The rule is deterministic: two runs with the same span stream sample
  /// identically. Every record is mirrored into the flight recorder (when
  /// one is attached) *before* sampling — the ring is always-on.
  void Record(SpanRecord record);

  /// Merged view of every shard, sorted by `seq` (global record order).
  std::vector<SpanRecord> Snapshot() const;

  /// Moves the collected records out (sorted by seq) and leaves the sink
  /// empty. The incremental-flush trace writer drains periodically so a
  /// long-lived wall-clock server does not accumulate spans unboundedly.
  /// Safe against concurrent Record; records landing mid-drain are
  /// collected by the next one.
  std::vector<SpanRecord> Drain();

  /// Keep only every `n`-th causal tree (by root span id); 1 (the default)
  /// keeps all. Values < 1 are treated as 1.
  void set_sample_every(int n) {
    sample_every_.store(n < 1 ? 1 : n, std::memory_order_relaxed);
  }

  /// Mirror every recorded span (pre-sampling) into `flight`.
  void set_flight(FlightRecorder* flight) {
    flight_.store(flight, std::memory_order_release);
  }

  /// Total records across shards.
  size_t size() const;

  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Next global sequence number (used by TraceSpan on destruction).
  uint64_t NextSeq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Next span id (used by TraceSpan on construction). Ids start at 1 so
  /// 0 always means "no span".
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<SpanRecord> records;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> next_span_id_{1};
  std::atomic<uint64_t> sample_every_{1};
  std::atomic<FlightRecorder*> flight_{nullptr};
  Shard shards_[kShards];
};

/// Stable logical id of the calling OS thread (assigned on first use).
int LogicalThreadId();

/// Scoped span. Construct at the top of the region of interest; the
/// destructor records into `sink` (when non-null) and accumulates the
/// elapsed seconds into `wall_sink` (when non-null; it has a single
/// writer, see file comment).
class TraceSpan {
 public:
  explicit TraceSpan(TraceSink* sink, const char* name, const char* category,
                     double* wall_sink = nullptr)
      : sink_(sink), wall_sink_(wall_sink), name_(name), category_(category) {
    if (sink_ == nullptr && wall_sink_ == nullptr) return;  // Disabled.
    if (sink_ != nullptr) id_ = sink_->NextSpanId();
    start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (sink_ == nullptr && wall_sink_ == nullptr) return;  // Disabled.
    const auto end = std::chrono::steady_clock::now();
    if (wall_sink_ != nullptr) {
      *wall_sink_ += std::chrono::duration<double>(end - start_).count();
    }
    if (sink_ == nullptr) return;
    SpanRecord record;
    record.name = name_;
    record.category = category_;
    record.seq = sink_->NextSeq();
    record.start_us =
        std::chrono::duration<double, std::micro>(start_ - sink_->epoch())
            .count();
    record.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    record.tid = LogicalThreadId();
    record.region = region_;
    record.query = query_;
    record.arg_name = arg_name_;
    record.arg_value = arg_value_;
    record.id = id_;
    record.parent = parent_;
    // An unparented span roots its own causal tree.
    record.root = root_ != 0 ? root_ : id_;
    sink_->Record(record);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void set_region(int region) { region_ = region; }
  void set_query(int query) { query_ = query; }
  /// `name` must be a string literal.
  void set_arg(const char* name, int64_t value) {
    arg_name_ = name;
    arg_value_ = value;
  }
  /// Links this span under `parent` within the tree rooted at `root`
  /// (pass the parent's own id as `root` when the parent is the root).
  void set_parent(uint64_t parent, uint64_t root) {
    parent_ = parent;
    root_ = root;
  }
  /// This span's id (0 when the sink is disabled).
  uint64_t id() const { return id_; }

 private:
  TraceSink* sink_;
  double* wall_sink_;
  const char* name_;
  const char* category_;
  std::chrono::steady_clock::time_point start_;
  int region_ = -1;
  int query_ = -1;
  const char* arg_name_ = nullptr;
  int64_t arg_value_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t root_ = 0;
};

class ContractEventLog;

/// Chrome/Perfetto `trace_event` JSON of `spans` (complete "X" events,
/// ts/dur in microseconds). When `events` is non-null its region steps —
/// per-query pScore and weight timelines — are appended as counter ("C")
/// tracks on a separate virtual-time process, so contract health is
/// inspectable on the same timeline. Load at ui.perfetto.dev or
/// chrome://tracing.
std::string ChromeTraceJson(const std::vector<SpanRecord>& spans,
                            const ContractEventLog* events = nullptr);

/// One span as a Chrome trace_event JSON object (the element form used
/// inside ChromeTraceJson's traceEvents array) — the unit the streaming
/// trace writer appends incrementally.
std::string ChromeSpanJson(const SpanRecord& span);

/// One JSON object per line per span, in seq order, following the
/// repository's JSONL convention. By default wall timings are *excluded*,
/// leaving only deterministic fields — two runs' exports byte-match iff
/// their span streams match (the tracing analogue of ExecEventsJsonl).
std::string SpansJsonl(const std::vector<SpanRecord>& spans,
                       bool include_timing = false);

}  // namespace caqe

#endif  // CAQE_OBS_SPAN_H_
