// Deterministic synthetic arrival traces for the serving layer.
//
// A trace is a reproducible function of its seed: exponential inter-arrival
// gaps at a configurable rate, queries drawn over the server's join keys
// and output dimensions, contracts drawn from the paper's Table 2 classes
// scaled to a reference timescale, plus optional deadlines and scripted
// cancellations. The same (config, keys, dims) triple always yields the
// identical trace, which is what makes serving reports byte-comparable
// across thread counts and batch dominance kernels.
#ifndef CAQE_SERVE_TRACE_H_
#define CAQE_SERVE_TRACE_H_

#include <cstdint>
#include <vector>

#include "contracts/utility.h"
#include "query/query.h"
#include "serve/server.h"

namespace caqe {

/// Knobs of the synthetic trace generator.
struct TraceConfig {
  int num_requests = 12;
  /// Mean arrivals per virtual second (exponential gaps).
  double arrival_rate = 50.0;
  uint64_t seed = 2014;
  /// Reference timescale (virtual seconds) the contract deadlines and
  /// intervals scale against — pick something near the expected service
  /// time of one query.
  double reference_seconds = 0.5;
  /// Fraction of requests that carry a hard deadline.
  double deadline_fraction = 0.25;
  /// Fraction of requests cancelled partway through their deadline window.
  double cancel_fraction = 0.0;
  /// Preference sizes are drawn from [1, max_preference_dims] (clamped to
  /// the available output dimensions).
  int max_preference_dims = 3;
};

/// One generated request: the arrival plus an optional scripted cancel.
struct TraceRequest {
  SjQuery query;
  Contract contract;
  double arrival_time = 0.0;
  /// <= 0: no deadline.
  double deadline_seconds = 0.0;
  /// < 0: never cancelled.
  double cancel_time = -1.0;
};

/// Generates a deterministic trace over `join_keys` and `num_output_dims`
/// global dimensions.
std::vector<TraceRequest> MakeSyntheticTrace(const TraceConfig& config,
                                             const std::vector<int>& join_keys,
                                             int num_output_dims);

/// Submits every request (and its scripted cancel) of `trace` to `server`.
/// Returns the request ids in trace order.
std::vector<int> SubmitTrace(CaqeServer& server,
                             const std::vector<TraceRequest>& trace,
                             CaqeServer::ResultCallback callback = nullptr);

}  // namespace caqe

#endif  // CAQE_SERVE_TRACE_H_
