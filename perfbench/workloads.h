// The benchmark's workloads. Each Run* function builds its inputs from the
// seed, drives the real user path, checks the outputs outside the timed
// window, prints provenance (and, when tracing, the layer table) to stdout,
// and returns the metrics of the run.
//
//   serve-churn  open loop of Poisson SUBMIT/CANCEL lines over loopback TCP
//                into an in-process NetServer on small tables: requests are
//                cheap, so the front door and the serve control plane
//                (admission, graft/retire, per-step sweeps) carry the load.
//   serve-heavy  closed loop (a fixed window of outstanding requests, each
//                DONE releases the next SUBMIT) on medium tables with a
//                quarter of requests carrying a sel= range: eval dominates.
//                Sessions of a fixed request count repeat on fresh servers.
//   batch-large  seven subspace queries over four dims through
//                MakeEngine("CAQE")->Execute on two-million-row tables at
//                join selectivity 1/N: partitioning, the region build, the
//                coarse prune and the join dominate.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct ServeConfig {
  std::string name;
  /// Rows per table (both sides); three score attributes, two join keys.
  int64_t rows = 500;
  /// Seed of the tables; 0 draws them from the run's --seed. Skyline sizes,
  /// hence per-request cost, differ by a quarter between draws of
  /// thousand-row tables, so fixed tables leave the requests as the only
  /// input that varies between runs.
  uint64_t table_seed = 0;
  double join_selectivity = 0.01;
  /// Open loop: Poisson arrival rate (requests per wall second). 0 selects
  /// the closed loop.
  double rate = 0.0;
  /// Closed loop: requests kept outstanding (at most max_active_queries, so
  /// admission never defers for capacity).
  int window = 0;
  /// Data connections the client spreads requests over.
  int connections = 2;
  double deadline_fraction = 0.25;
  double cancel_fraction = 0.0;
  /// A cancelled request's CANCEL is sent U(0.1, 0.9) x this many wall
  /// seconds after its due time (or at its QUEUED reply, if later).
  double cancel_window_s = 0.0;
  /// Share of requests carrying one sel= range.
  double selection_fraction = 0.0;
  /// Closed loop: SUBMITs per session. The timed run repeats such sessions,
  /// each on a fresh server with requests of its own (at least
  /// min_sessions, more while the window lasts), and reports medians over
  /// them. 0: one session that sends for the whole window (the open loop).
  int session_requests = 0;
  int min_sessions = 3;
  /// Server set-ups timed per session (setup_s is their median).
  int setup_reps = 101;
};

struct BatchConfig {
  int64_t rows = 2000000;
  int dims = 4;
  int queries = 7;
  /// Execute calls in the timed window: at least this many, and more while
  /// the window lasts.
  int min_executes = 3;
  /// Table-pair generations timed per run (setup_s is their median).
  int setup_reps = 3;
};

ServeConfig ServeChurnConfig();
ServeConfig ServeHeavyConfig();
BatchConfig BatchLargeConfig();

RunResult RunServe(const RunArgs& args, const ServeConfig& config);
RunResult RunBatch(const RunArgs& args, const BatchConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
