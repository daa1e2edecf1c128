// Contract event log: every contract event of a run, recorded once, and the
// views that print it.
//
// CAQE scores each query by its contract (paper Def. 5, Eq. 6-7) and
// reweights it after every region (Eq. 11), so a run is a sequence of
// contract events: a request's arrival, admission decision, graft, first
// result, cancel and finish, calibration re-previews, the region steps that
// move a query's (results, pScore, weight), and the engine's scheduling
// events. Each is one POD ContractEvent, appended once to one capped log.
// The outputs are views over the log:
//
//   LedgerJsonl / LedgerEventJson  the audit ledger (--ledger_out, TRACE,
//                                  /tracez): the request-lifecycle kinds
//                                  plus audited region steps;
//   HealthJsonl                    the contract-health timeline
//                                  (--health_out): every region step;
//   ExecEventsJsonl                the engine event stream (--events_out);
//   ChromeCounterEvents            pScore/weight counter tracks from the
//                                  region steps (ChromeTraceJson's pid 1).
//
// Determinism contract (DESIGN.md §15): events are appended only from the
// serial driver thread at virtual timestamps, so every view except the
// ledger's `wall_us` field is byte-identical across threads x coarse index
// x SIMD and between a live session and `caqe_serve --replay`. Like every obs structure the log is write-only: no engine
// decision may read it.
//
// Alloc discipline: events are PODs (phase/reason are string-literal
// pointers; names live in the log's name table, bound once per id) pushed
// into one vector under a mutex. One capacity bounds every kind: past it,
// events are counted in dropped() instead of kept, and ledger events still
// reach the flight recorder's ring.
#ifndef CAQE_OBS_EVENT_LOG_H_
#define CAQE_OBS_EVENT_LOG_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace caqe {

class FlightRecorder;

enum class ContractEventKind : uint8_t {
  // ---- Request lifecycle (serving layer) ----
  kArrival = 0,
  kDecision,
  /// Admission spliced the request into the running workload.
  kGraft,
  /// One query's contract state after a region step (see Append).
  kRegionStep,
  kFirstResult,
  kCancel,
  /// Terminal status of a request (completed, cancelled, expired,
  /// rejected).
  kFinish,
  /// A calibration shift re-previewed a deferred request; carries before/
  /// after admission estimates.
  kRepreview,
  // ---- Engine scheduling (region pipeline) ----
  /// A region was picked for tuple-level processing.
  kRegionScheduled,
  /// A region was discarded without processing (lineage emptied).
  kRegionDiscarded,
  /// One query was pruned from a region's lineage.
  kQueryPruned,
  /// `count` results of `query` were emitted.
  kResultsEmitted,
};

/// Stable lower-case name: the ledger's kind names ("arrival", "graft",
/// "region_step", ...) and the exec stream's ("region_scheduled", ...).
/// Returned pointer is a string literal.
const char* ContractEventKindName(ContractEventKind kind);

/// One contract event. Field relevance depends on `kind`; irrelevant fields
/// keep their zero values and are omitted from every view. `phase` and
/// `reason` must point to string literals (static storage duration).
struct ContractEvent {
  ContractEventKind kind = ContractEventKind::kArrival;
  /// Request id (serving). A batch run's region steps carry the global
  /// query index here.
  int request_id = -1;
  /// Workload query index: the request's slot for kGraft, and for kFinish
  /// when the request ran (-1 when it never did); the query of
  /// kQueryPruned/kResultsEmitted.
  int query = -1;
  /// Region of kRegionStep and of the scheduling kinds; -1 otherwise.
  int region = -1;
  /// Virtual time of the event (deterministic).
  double vtime = 0.0;
  /// Causal span ids (TraceSink span ids; 0 = none). `span` is the span
  /// recording this event, `parent` its causal parent — together with the
  /// span stream they form the request's causal tree.
  uint64_t span = 0;
  uint64_t parent = 0;
  /// Decision/status name for decision/cancel/finish/repreview events.
  const char* phase = nullptr;
  /// Admission/termination reason, when one applies.
  const char* reason = nullptr;
  int64_t results = 0;
  /// kGraft: live regions in the lineage. kFinish: parked candidates
  /// dropped at retirement. kRepreview: 1 when the re-preview upgraded the
  /// request to an admit. kResultsEmitted: results emitted.
  int64_t count = 0;
  double pscore = 0.0;
  /// Eq. 11 satisfaction weight (kRegionStep; kGraft's starting weight).
  double weight = 0.0;
  double est_first_seconds = 0.0;
  double est_finish_seconds = 0.0;
  /// Pre-shift estimates of a kRepreview event (est_* hold the post-shift
  /// values the re-decision used).
  double est_first_before_seconds = 0.0;
  double est_finish_before_seconds = 0.0;
  /// Observed service time at completion (kFinish).
  double observed_seconds = 0.0;
  double expected_utility = 0.0;
  // ---- Assigned by Append ----
  /// Ledger order: numbers ledger events only (kept or dropped), so it is
  /// the record's position in the audit ledger, not in the log.
  uint64_t seq = 0;
  /// kRegionStep: the query's pScore at its previous step (0 at its first).
  double pscore_before = 0.0;
  /// kRegionStep: whether the ledger shows this step (see Append).
  bool audited = false;
  /// Ledger events: wall microseconds against the log's epoch (0 for every
  /// other kind). Always the *last* ledger JSON field so
  /// `--normalize-wall` diffs can strip it.
  double wall_us = 0.0;
};

/// Whether the audit ledger shows `event`: the request-lifecycle kinds, and
/// region steps Append marked audited.
bool IsLedgerEvent(const ContractEvent& event);

/// One ledger event as a single-line JSON object (no trailing newline).
/// With `include_wall` false the `,"wall_us":...` suffix is omitted — the
/// normalized form the replay determinism gates compare.
std::string LedgerEventJson(const ContractEvent& event,
                            bool include_wall = true);

class ContractEventLog {
 public:
  /// One cap for every kind, sized for 2^18 ledger events plus 2^18 region
  /// steps. At 168 bytes an event (x86-64) a full log holds ~88 MB.
  static constexpr size_t kDefaultCapacity = size_t{1} << 19;

  ContractEventLog();

  /// Appends one event: assigns `seq` and `wall_us` to ledger events, and
  /// mirrors them (kept or dropped) into the flight recorder.
  ///
  /// kGraft seeds its request's progress with the event's (results,
  /// pscore, weight). kRegionStep is deduplicated per request_id: it is
  /// kept only when that triple moved since the id's previous step, or as
  /// the id's first step. Append fills in `pscore_before` and marks the
  /// step `audited` when it moved a grafted request (from its previous
  /// step, or for its first from the graft). Batch queries, never grafted,
  /// reach the health view only.
  ///
  /// Thread-safe, though the determinism contract additionally requires
  /// every append to come from the serial driver thread.
  void Append(ContractEvent event);

  /// Binds a display name to `id` (query/request name; escaped at export).
  void SetName(int id, std::string name);

  /// All kept events in append order.
  std::vector<ContractEvent> Snapshot() const;

  /// The last `max_events` ledger events of `request_id`, in append order.
  std::vector<ContractEvent> Tail(int request_id, size_t max_events) const;

  /// The audit ledger: LedgerEventJson per ledger event, one per line.
  std::string LedgerJsonl(bool include_wall = true) const;

  /// The contract-health timeline: one JSON object per region step,
  ///   {"vtime":...,"id":3,"name":"S3","results":5,"pscore":1.25,
  ///    "weight":0.75}
  /// (`name` only when bound; numbers with 9 decimals).
  std::string HealthJsonl() const;

  /// The engine event stream (--events_out): one JSON object per line for
  /// every scheduling event, graft (query_admitted), finish of a request
  /// that ran (query_retired) and repreview (query_repreviewed):
  ///   {"kind":"region_scheduled","vtime":0.000123000,"region":4,
  ///    "query":-1,"count":0}
  /// `query` is the workload slot for query_admitted/query_retired, the
  /// request id for query_repreviewed, and the workload query index for
  /// the scheduling kinds. Virtual times print with 9 decimals.
  ///
  /// `query_names`, when non-empty, adds a `"name"` field to every event
  /// with a resolvable query (names[query]). Names are caller data and are
  /// JSON-escaped — a query named `a"b\c` exports as `"a\"b\\c"`.
  std::string ExecEventsJsonl(
      const std::vector<std::string>& query_names = {}) const;

  /// The Chrome trace's contract-health counter tracks: a pScore and a
  /// weight counter ("C") event per region step on pid 1, stamped in
  /// virtual microseconds and labelled "name#id" ("#id" when no name is
  /// bound), joined by ",\n" for ChromeTraceJson's traceEvents array.
  /// Empty when the log holds no region step.
  std::string ChromeCounterEvents() const;

  /// Kept events (every kind).
  size_t size() const;
  /// Events past the capacity (every kind).
  int64_t dropped() const;
  void set_capacity(size_t capacity) { capacity_ = capacity; }

  /// Mirror every ledger event (kept or dropped) into `flight`.
  void set_flight(FlightRecorder* flight) { flight_ = flight; }

 private:
  /// Last region-step state per id (the dedup baseline).
  struct Progress {
    int64_t results = 0;
    double pscore = 0.0;
    double weight = 0.0;
    bool sampled = false;
    bool grafted = false;
  };

  mutable std::mutex mu_;
  size_t capacity_ = kDefaultCapacity;
  int64_t dropped_ = 0;
  uint64_t next_seq_ = 0;
  std::vector<ContractEvent> events_;
  std::map<int, Progress> progress_;
  std::map<int, std::string> names_;
  FlightRecorder* flight_ = nullptr;
  // Wall epoch for wall_us (observability-only, never deterministic).
  double epoch_ns_ = 0.0;
};

}  // namespace caqe

#endif  // CAQE_OBS_EVENT_LOG_H_
