// Observability bundle: one object owning the trace sink, the metrics
// registry, the contract event log and the flight recorder for a run.
//
// Pass a pointer to an Observability through ExecOptions / ServeOptions to
// enable tracing and metrics; leave it null (the default) for zero-cost
// disabled spans. The bundle is observability-only by construction — no
// engine code may read it to make a decision, so deterministic reports stay
// byte-identical whether or not one is attached (scripts/run_obs_matrix.sh
// proves this).
#ifndef CAQE_OBS_OBSERVABILITY_H_
#define CAQE_OBS_OBSERVABILITY_H_

#include <string>

#include "obs/event_log.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace caqe {

struct EngineStats;

struct Observability {
  TraceSink spans;
  MetricsRegistry metrics;
  /// Every contract event of the run: exec events, the audit ledger and
  /// the contract-health timeline are views over it (obs/event_log.h).
  ContractEventLog events;
  FlightRecorder flight;

  /// The flight recorder mirrors every span and ledger event (always-on,
  /// pre-sampling), so the ring is a complete recent-history view even
  /// when span sampling or the event log's capacity cap is active.
  Observability() {
    spans.set_flight(&flight);
    events.set_flight(&flight);
  }

  /// Convenience: sink for spans, or nullptr when `obs` is null.
  static TraceSink* Spans(Observability* obs) {
    return obs == nullptr ? nullptr : &obs->spans;
  }

  /// Convenience: event log, or nullptr when `obs` is null.
  static ContractEventLog* Events(Observability* obs) {
    return obs == nullptr ? nullptr : &obs->events;
  }

  /// Chrome/Perfetto trace of everything collected (spans + health tracks).
  std::string ChromeTrace() const {
    return ChromeTraceJson(spans.Snapshot(), &events);
  }
};

/// Mirrors the deterministic EngineStats counters and the wall_* phase
/// buckets into `registry` as caqe_engine_* gauges/counters. Call once per
/// completed run. Non-empty `labels` (e.g. `engine="CAQE"`) label every
/// series, ahead of the wall-phase gauges' own phase label.
void RecordEngineStats(MetricsRegistry& registry, const EngineStats& stats,
                       const std::string& labels = "");

}  // namespace caqe

#endif  // CAQE_OBS_OBSERVABILITY_H_
