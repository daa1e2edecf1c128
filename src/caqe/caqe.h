// Umbrella header: the complete public API of the CAQE library.
//
// CAQE — Contract-Aware Query Execution — processes workloads of concurrent
// skyline-over-join decision-support queries, each carrying a
// progressiveness contract, maximizing the workload's cumulative contract
// satisfaction (Raghavan & Rundensteiner, EDBT 2014).
//
// Typical use:
//
//   #include "caqe/caqe.h"
//
//   caqe::GeneratorConfig cfg;
//   cfg.num_rows = 10'000;
//   cfg.num_attrs = 4;
//   cfg.join_selectivities = {0.01};
//   auto r = caqe::GenerateTable("R", cfg).value();
//   cfg.seed = 43;
//   auto t = caqe::GenerateTable("T", cfg).value();
//
//   caqe::CaqeSession session(std::move(r), std::move(t));
//   int d0 = session.AddOutputDim({0, 0});
//   int d1 = session.AddOutputDim({1, 1});
//   session.AddQuery({"Q1", 0, {d0, d1}, 1.0},
//                    caqe::MakeTimeStepContract(10.0));
//   auto report = session.Run().value();
#ifndef CAQE_CAQE_CAQE_H_
#define CAQE_CAQE_CAQE_H_

#include "caqe/session.h"
#include "common/query_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_clock.h"
#include "contracts/tracker.h"
#include "contracts/utility.h"
#include "cuboid/min_max_cuboid.h"
#include "cuboid/shared_skyline.h"
#include "cuboid/subspace.h"
#include "data/generator.h"
#include "data/table.h"
#include "exec/engine.h"
#include "exec/options.h"
#include "exec/shared_plan_engine.h"
#include "metrics/printer.h"
#include "metrics/report.h"
#include "obs/event_log.h"
#include "obs/metrics_registry.h"
#include "obs/observability.h"
#include "obs/span.h"
#include "partition/partitioner.h"
#include "query/query.h"
#include "query/workload_generator.h"
#include "region/dependency_graph.h"
#include "region/region.h"
#include "region/region_builder.h"
#include "region/region_dominance.h"
#include "serve/admission.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "serve/trace.h"
#include "skyline/algorithms.h"
#include "skyline/cardinality.h"
#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"
#include "skyline/incremental.h"
#include "skyline/point_set.h"
#include "topk/topk_engine.h"
#include "topk/topk_query.h"

#endif  // CAQE_CAQE_CAQE_H_
