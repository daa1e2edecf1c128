// Allocation gate: steady-state heap-allocation accounting for the region
// hot path, with the single-thread wall clock of each run.
//
// This binary links the caqe_alloc_hook library ahead of the caqe
// libraries (bench/CMakeLists.txt), so the counting operator new/delete
// replacement is live and the region pipeline exports per-step allocation
// deltas (the scheduler's pick, the region's processing and the weight
// feedback) through the caqe_alloc_* obs counters. Two cells run at
// threads=1:
//
//  - a fig9-style batch execution (CAQE engine, log-decay contracts);
//  - a serving replay (synthetic arrival trace).
//
// The alloc gate itself: in both cells, steady-state regions (past the
// pipeline's 32-region warmup window) must average at most
// --max_allocs_per_region heap allocations (default 5). The warmup window
// is where caches and reused scratch grow to their high-water marks;
// steady state is where a resident decision-support service spends its
// life, and where buffer reuse pins allocation churn to ~zero.
// tests/alloc_hook_test.cc checks the same budget on the same two cells in
// the test suite.
//
// Flags: --rows=4000 --queries=8 --dims=4 --seed=2014
//        --serve_rows=8000 --serve_requests=80
//        --max_allocs_per_region=5 --out=BENCH_alloc.json
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/alloc_hook.h"
#include "metrics/export.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "serve/trace.h"

namespace caqe {
namespace bench {
namespace {

struct AllocPoint {
  std::string phase;  // "exec" or "serve".
  double wall_seconds = 0.0;
  int64_t regions = 0;
  int64_t warmup_allocs = 0;
  int64_t steady_allocs = 0;
  int64_t steady_regions = 0;
  double allocs_per_region = -1.0;  // -1 when no steady regions ran.
  // Steady-state attribution by pipeline phase (sums to ~steady_allocs;
  // the remainder is inter-phase bookkeeping).
  int64_t steady_join = 0;
  int64_t steady_eval = 0;
  int64_t steady_discard = 0;
  int64_t steady_emission = 0;
};

void ReadAllocCounters(Observability& obs, AllocPoint& point) {
  MetricsRegistry& m = obs.metrics;
  point.regions = m.counter("caqe_alloc_regions_total").value();
  point.warmup_allocs = m.counter("caqe_alloc_warmup_allocs_total").value();
  point.steady_allocs = m.counter("caqe_alloc_steady_allocs_total").value();
  point.steady_regions = m.counter("caqe_alloc_steady_regions_total").value();
  point.steady_join = m.counter("caqe_alloc_steady_join_total").value();
  point.steady_eval = m.counter("caqe_alloc_steady_eval_total").value();
  point.steady_discard = m.counter("caqe_alloc_steady_discard_total").value();
  point.steady_emission =
      m.counter("caqe_alloc_steady_emission_total").value();
  if (point.steady_regions > 0) {
    point.allocs_per_region = static_cast<double>(point.steady_allocs) /
                              static_cast<double>(point.steady_regions);
  }
}

std::string JsonField(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", key.c_str(), value);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  const int64_t rows = args.GetInt("rows", 4000);
  const int num_queries = static_cast<int>(args.GetInt("queries", 8));
  const int dims = static_cast<int>(args.GetInt("dims", 4));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 2014));
  const int64_t serve_rows = args.GetInt("serve_rows", 8000);
  const int serve_requests =
      static_cast<int>(args.GetInt("serve_requests", 80));
  const double max_allocs_per_region =
      args.GetDouble("max_allocs_per_region", 5.0);
  const std::string out_path = args.GetString("out", "BENCH_alloc.json");

  CAQE_CHECK(AllocHookActive());  // Link order regression guard.
  std::printf(
      "alloc gate: exec N=%lld |S_Q|=%d d=%d; serve N=%lld requests=%d; "
      "budget=%.1f allocs/region steady state\n\n",
      static_cast<long long>(rows), num_queries, dims,
      static_cast<long long>(serve_rows), serve_requests,
      max_allocs_per_region);
  std::printf("%6s %10s %9s %14s %14s %14s %10s  %s\n", "phase",
              "wall_s", "regions", "warmup_allocs",
              "steady_allocs", "steady_regions", "allocs/rgn",
              "join/eval/discard/emission");

  std::vector<AllocPoint> points;
  const auto print_point = [](const AllocPoint& p) {
    std::printf(
        "%6s %10.4f %9lld %14lld %14lld %14lld %10.2f  %lld/%lld/%lld/%lld\n",
        p.phase.c_str(), p.wall_seconds,
        static_cast<long long>(p.regions),
        static_cast<long long>(p.warmup_allocs),
        static_cast<long long>(p.steady_allocs),
        static_cast<long long>(p.steady_regions), p.allocs_per_region,
        static_cast<long long>(p.steady_join),
        static_cast<long long>(p.steady_eval),
        static_cast<long long>(p.steady_discard),
        static_cast<long long>(p.steady_emission));
  };

  // ---- Batch execution sweep (fig9-style, single thread). ----
  {
    BenchConfig config;
    config.rows = rows;
    config.num_attrs = dims;
    config.num_queries = num_queries;
    config.seed = seed;
    auto [r, t] = MakeBenchTables(config);
    const Workload workload =
        MakeSubspaceWorkload(dims, 0, num_queries, PriorityPolicy::kUniform,
                             config.seed)
            .value();
    const std::vector<Contract> contracts(workload.num_queries(),
                                          MakeLogDecayContract());
    ExecOptions options;
    options.capture_results = false;
    options.num_threads = 1;
    Observability obs;
    options.obs = &obs;
    const ExecutionReport report =
        RunEngine("CAQE", r, t, workload, contracts, options);

    AllocPoint point;
    point.phase = "exec";
    point.wall_seconds = report.stats.wall_seconds;
    ReadAllocCounters(obs, point);
    print_point(point);
    points.push_back(point);
  }

  // ---- Serving replay sweep. ----
  {
    GeneratorConfig cfg;
    cfg.num_rows = serve_rows;
    cfg.num_attrs = 3;
    cfg.join_selectivities = {0.01, 0.01};
    cfg.seed = seed;
    const Table r = GenerateTable("R", cfg).value();
    cfg.seed = seed + 1;
    const Table t = GenerateTable("T", cfg).value();
    const std::vector<MappingFunction> mapping = {
        MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
    const std::vector<int> keys = {0, 1};
    TraceConfig trace_config;
    trace_config.num_requests = serve_requests;
    trace_config.arrival_rate = 40.0;
    trace_config.seed = seed;
    trace_config.reference_seconds = 0.1;
    const std::vector<TraceRequest> trace =
        MakeSyntheticTrace(trace_config, keys, 3);

    ServeOptions options;
    options.num_threads = 1;
    Observability obs;
    options.obs = &obs;
    auto server = CaqeServer::Create(r, t, mapping, keys, options).value();
    SubmitTrace(*server, trace);
    const auto wall_start = std::chrono::steady_clock::now();
    server->Run().value();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;

    AllocPoint point;
    point.phase = "serve";
    point.wall_seconds = wall.count();
    ReadAllocCounters(obs, point);
    print_point(point);
    points.push_back(point);
  }

  // ---- The gate. ----
  bool gated = false;
  for (const AllocPoint& p : points) {
    if (p.steady_regions <= 0) continue;
    gated = true;
    if (p.allocs_per_region > max_allocs_per_region) {
      std::fprintf(stderr,
                   "ALLOC GATE FAILED: %s steady state averages %.2f "
                   "allocs/region (budget %.1f)\n",
                   p.phase.c_str(), p.allocs_per_region,
                   max_allocs_per_region);
      return 1;
    }
  }
  // At least one sweep must actually reach steady state, or the gate is
  // vacuous and the bench config needs more regions.
  CAQE_CHECK(gated);

  std::string json = "{\n";
  json += "  \"benchmark\": \"alloc_gate\",\n";
  json += "  \"engine\": \"CAQE\",\n";
  json += "  \"rows\": " + std::to_string(rows) + ",\n";
  json += "  \"queries\": " + std::to_string(num_queries) + ",\n";
  json += "  \"serve_rows\": " + std::to_string(serve_rows) + ",\n";
  json += "  \"serve_requests\": " + std::to_string(serve_requests) + ",\n";
  json += "  " + JsonField("max_allocs_per_region", max_allocs_per_region) +
          ",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const AllocPoint& p = points[i];
    json += "    {\"phase\": \"" + p.phase + "\", " +
            JsonField("wall_seconds", p.wall_seconds) +
            ", \"regions\": " + std::to_string(p.regions) +
            ", \"warmup_allocs\": " + std::to_string(p.warmup_allocs) +
            ", \"steady_allocs\": " + std::to_string(p.steady_allocs) +
            ", \"steady_regions\": " + std::to_string(p.steady_regions) +
            ", " + JsonField("allocs_per_region", p.allocs_per_region) + "}";
    json += (i + 1 < points.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  const Status written = WriteTextFile(out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (steady state within %.1f allocs/region)\n",
              out_path.c_str(), max_allocs_per_region);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace caqe

int main(int argc, char** argv) { return caqe::bench::Main(argc, argv); }
