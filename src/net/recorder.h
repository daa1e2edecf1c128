// Session recorder: the record half of the record/replay determinism
// oracle.
//
// A live (wall-clock) session's engine-visible inputs are exactly the
// sequence of quantized arrivals and cancellations — everything else the
// engine does is a deterministic function of them (see serve/server.h).
// The recorder persists that sequence as a plain-text trace:
//
//   CAQE-SESSION v1 quantum=<%.17g> [key=value ...]
//   AT <tq> SUBMIT id=<n> name=... key=... pref=... CONTRACT <spec>
//   AT <tq> CANCEL <id>
//
// `tq` is the integer quantum index assigned by ArrivalQuantizer; the
// virtual timestamp is reconstructed as `tq * quantum` on replay, so the
// only doubles in the file are %.17g round-trippable. SUBMIT lines are the
// canonical FormatSubmitCommand form and are parsed back with the same
// ParseCommand the live server uses, so record → replay cannot drift from
// live parsing. Replaying the trace through CaqeServer::Submit()+Run()
// must produce a byte-identical serving report; scripts/run_net_matrix.sh
// byte-diffs exactly that.
#ifndef CAQE_NET_RECORDER_H_
#define CAQE_NET_RECORDER_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "serve/serving.h"

namespace caqe {
namespace net {

/// Appends session events to a trace file as they happen. Lines are
/// flushed eagerly so a crashed or killed server still leaves a replayable
/// prefix.
class SessionRecorder {
 public:
  /// Opens `path` for writing and emits the header. `attrs` are extra
  /// key=value pairs recorded for replay (e.g. the data-generation seed);
  /// keys and values must be space-free printable ASCII.
  static Result<std::unique_ptr<SessionRecorder>> Open(
      const std::string& path, double quantum,
      const std::vector<std::pair<std::string, std::string>>& attrs);

  ~SessionRecorder();

  SessionRecorder(const SessionRecorder&) = delete;
  SessionRecorder& operator=(const SessionRecorder&) = delete;

  /// Records an arrival at quantum index `tq` under server-assigned
  /// request id `id`.
  void RecordSubmit(int64_t tq, int id, const SjQuery& query,
                    const std::string& contract_canonical,
                    double deadline_seconds);

  /// Records a cancellation of request `id` at quantum index `tq`.
  void RecordCancel(int64_t tq, int id);

  /// Flushes and closes the file; further Record calls are invalid.
  void Close();

 private:
  explicit SessionRecorder(std::FILE* file) : file_(file) {}

  void WriteLine(const std::string& line);

  std::FILE* file_ = nullptr;
};

/// One replayable event.
struct SessionEvent {
  int64_t tq = 0;
  Command command;
};

/// A parsed session trace.
struct SessionTrace {
  double quantum = ArrivalQuantizer::kDefaultQuantum;
  /// Header key=value pairs other than `quantum` (insertion order kept;
  /// each key at most once).
  std::vector<std::pair<std::string, std::string>> attrs;
  std::vector<SessionEvent> events;

  /// Returns the value for `key`, or `fallback` when absent.
  std::string Attr(const std::string& key, const std::string& fallback) const;
};

/// Loads and validates a session trace. Each header key appears once;
/// events must be strictly increasing in `tq`; SUBMIT lines must carry ids
/// that are dense from 0 so replay assigns identical request ids. Errors carry stable codes
/// (`bad-header`, `bad-at-line`, plus ParseCommand's codes).
Result<SessionTrace> LoadSessionTrace(const std::string& path);

}  // namespace net
}  // namespace caqe

#endif  // CAQE_NET_RECORDER_H_
