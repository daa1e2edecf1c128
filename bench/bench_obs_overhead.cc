// Overhead of the observability layer (src/obs): the Figure 9 workload runs
// repeatedly with tracing OFF (ExecOptions::obs null — disabled spans cost
// one branch) and ON (full span + metrics + contract-event collection),
// comparing median wall times. The run aborts if any deterministic counter
// or the contract objective moves between the two modes — observability
// must be invisible to the engine.
//
// A second cell measures the serving layer the same way: a synthetic trace
// is served with observability detached and attached, where "attached"
// also means the contract event log records every admission decision /
// weight update / completion and the always-on flight recorder mirrors
// every span and ledger event through its lock-free ring. The
// deterministic ServingReportText must be byte-identical off/on.
//
// Flags: --rows=N --sel=SIGMA --dist=... --queries=K --seed=S --repeats=R
//        --threads=T --serve_requests=K --out=PATH (default BENCH_obs.json)
//
// Budget (DESIGN.md §10): median overhead must stay under 2% of wall time
// in both cells. The JSON records the medians, overhead percentages, and
// the span / health-sample / ledger / flight counts of one traced run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics/export.h"

namespace caqe {
namespace bench {
namespace {

std::string JsonField(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", key.c_str(), value);
  return buf;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The deterministic face of a report: every counter that must be identical
/// with observability on or off.
struct DeterministicStats {
  int64_t join_probes, join_results, dominance_cmps, coarse_ops, emitted;
  double virtual_seconds, workload_pscore;
  bool operator==(const DeterministicStats&) const = default;
};

DeterministicStats DeterministicFace(const ExecutionReport& report) {
  const EngineStats& s = report.stats;
  return {s.join_probes,   s.join_results, s.dominance_cmps,  s.coarse_ops,
          s.emitted_results, s.virtual_seconds, report.workload_pscore};
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  BenchConfig config;
  config.rows = args.GetInt("rows", 6000);
  config.selectivity = args.GetDouble("sel", 0.01);
  config.num_queries = static_cast<int>(args.GetInt("queries", 11));
  config.seed = args.GetInt("seed", 2014);
  config.distribution =
      ParseDistribution(args.GetString("dist", "independent")).value();
  const int repeats = static_cast<int>(args.GetInt("repeats", 7));
  const std::string out_path = args.GetString("out", "BENCH_obs.json");

  auto [r, t] = MakeBenchTables(config);
  const Workload workload =
      MakeSubspaceWorkload(config.num_attrs, 0, config.num_queries,
                           PriorityPolicy::kUniform, config.seed)
          .value();
  const Calibration calibration = Calibrate(r, t, workload);
  const std::vector<Contract> contracts(
      workload.num_queries(),
      MakeTableTwoContract(2, calibration.reference_seconds,
                           DistributionTightness(config.distribution)));

  ExecOptions options;
  options.known_result_counts = calibration.result_counts;
  options.num_threads = ThreadsFromArgs(args);

  std::printf(
      "obs overhead: dist=%s N=%lld sigma=%.4f |S_Q|=%d repeats=%d "
      "threads=%d\n\n",
      DistributionName(config.distribution),
      static_cast<long long>(config.rows), config.selectivity,
      config.num_queries, repeats, options.num_threads);

  // Interleave OFF/ON runs so thermal / frequency drift hits both equally.
  std::vector<double> wall_off, wall_on;
  DeterministicStats face_off{}, face_on{};
  size_t span_count = 0, health_count = 0;
  int64_t metric_families = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    options.obs = nullptr;
    const ExecutionReport off =
        RunEngine("CAQE", r, t, workload, contracts, options);
    wall_off.push_back(off.stats.wall_seconds);
    if (rep == 0) face_off = DeterministicFace(off);
    CAQE_CHECK(DeterministicFace(off) == face_off);

    Observability obs;
    options.obs = &obs;
    const ExecutionReport on =
        RunEngine("CAQE", r, t, workload, contracts, options);
    wall_on.push_back(on.stats.wall_seconds);
    if (rep == 0) {
      face_on = DeterministicFace(on);
      span_count = obs.spans.size();
      for (const ContractEvent& event : obs.events.Snapshot()) {
        if (event.kind == ContractEventKind::kRegionStep) ++health_count;
      }
      const std::string prom = obs.metrics.PrometheusText();
      for (size_t pos = prom.find("# TYPE"); pos != std::string::npos;
           pos = prom.find("# TYPE", pos + 1)) {
        ++metric_families;
      }
    }
    CAQE_CHECK(DeterministicFace(on) == face_on);
  }
  // The whole point: the engine cannot tell whether it is being observed.
  CAQE_CHECK(face_on == face_off);

  const double median_off = Median(wall_off);
  const double median_on = Median(wall_on);
  const double overhead_pct =
      median_off > 0.0 ? 100.0 * (median_on - median_off) / median_off : 0.0;

  std::printf("wall median off: %.4fs  on: %.4fs  overhead: %+.2f%%\n",
              median_off, median_on, overhead_pct);
  std::printf("spans: %zu  health samples: %zu  metric families: %lld\n",
              span_count, health_count,
              static_cast<long long>(metric_families));
  std::printf("deterministic counters identical off/on: yes\n");

  // ---- Serving cell: audit ledger + flight recorder ----------------------
  // Request lifecycle events (the ledger's kinds) only occur in the serving
  // layer, so this cell serves a synthetic trace instead of the batch
  // workload. Attaching an Observability turns on spans, metrics, the
  // contract event log, and the span/ledger flight-recorder mirror all at
  // once — the budget covers their sum.
  GeneratorConfig serve_cfg;
  serve_cfg.num_rows = args.GetInt("serve_rows", 2000);
  serve_cfg.num_attrs = 3;
  serve_cfg.join_selectivities = {config.selectivity, config.selectivity};
  serve_cfg.seed = config.seed;
  const Table serve_r = GenerateTable("R", serve_cfg).value();
  serve_cfg.seed = config.seed + 1;
  const Table serve_t = GenerateTable("T", serve_cfg).value();
  const std::vector<MappingFunction> dims = {
      MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
  const std::vector<int> keys = {0, 1};
  TraceConfig trace_config;
  trace_config.num_requests =
      static_cast<int>(args.GetInt("serve_requests", 24));
  trace_config.arrival_rate = 40.0;
  trace_config.seed = config.seed;
  trace_config.cancel_fraction = 0.1;
  const std::vector<TraceRequest> trace =
      MakeSyntheticTrace(trace_config, keys, 3);

  ServeOptions serve_options;
  serve_options.target_regions = 128;
  serve_options.num_threads = options.num_threads;

  const auto timed_serve = [&](Observability* obs) {
    serve_options.obs = obs;
    auto server =
        CaqeServer::Create(serve_r, serve_t, dims, keys, serve_options)
            .value();
    SubmitTrace(*server, trace);
    const auto start = std::chrono::steady_clock::now();
    const ServingReport report = server->Run().value();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return std::make_pair(elapsed.count(), ServingReportText(report));
  };

  std::vector<double> serve_off, serve_on;
  std::string serve_text;
  size_t ledger_records = 0;
  uint64_t flight_total = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    const auto [off_wall, off_text] = timed_serve(nullptr);
    serve_off.push_back(off_wall);
    if (rep == 0) serve_text = off_text;
    CAQE_CHECK(off_text == serve_text);

    Observability obs;
    const auto [on_wall, on_text] = timed_serve(&obs);
    serve_on.push_back(on_wall);
    // Observed or not, the serving report must not move a byte.
    CAQE_CHECK(on_text == serve_text);
    if (rep == 0) {
      for (const ContractEvent& event : obs.events.Snapshot()) {
        if (IsLedgerEvent(event)) ++ledger_records;
      }
      flight_total = obs.flight.total();
      CAQE_CHECK(ledger_records > 0);
      CAQE_CHECK(obs.events.dropped() == 0);
      CAQE_CHECK(flight_total >= ledger_records);
    }
  }

  const double serve_median_off = Median(serve_off);
  const double serve_median_on = Median(serve_on);
  const double serve_overhead_pct =
      serve_median_off > 0.0
          ? 100.0 * (serve_median_on - serve_median_off) / serve_median_off
          : 0.0;
  std::printf(
      "\nserving (ledger+flight) median off: %.4fs  on: %.4fs  "
      "overhead: %+.2f%%\n",
      serve_median_off, serve_median_on, serve_overhead_pct);
  std::printf("ledger records: %zu  flight entries: %llu\n", ledger_records,
              static_cast<unsigned long long>(flight_total));
  std::printf("serving report identical off/on: yes\n");

  std::string json = "{\n";
  json += "  \"benchmark\": \"obs_overhead\",\n";
  json += "  \"engine\": \"CAQE\",\n";
  json += "  \"distribution\": \"" +
          std::string(DistributionName(config.distribution)) + "\",\n";
  json += "  \"rows\": " + std::to_string(config.rows) + ",\n";
  json += "  \"queries\": " + std::to_string(config.num_queries) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"threads\": " + std::to_string(options.num_threads) + ",\n";
  json += "  " + JsonField("wall_median_off_seconds", median_off) + ",\n";
  json += "  " + JsonField("wall_median_on_seconds", median_on) + ",\n";
  json += "  " + JsonField("overhead_pct", overhead_pct) + ",\n";
  json += "  \"spans\": " + std::to_string(span_count) + ",\n";
  json += "  \"health_samples\": " + std::to_string(health_count) + ",\n";
  json += "  \"metric_families\": " + std::to_string(metric_families) + ",\n";
  json += "  \"deterministic_counters_identical\": true,\n";
  json += "  \"serve_requests\": " +
          std::to_string(trace_config.num_requests) + ",\n";
  json += "  " + JsonField("serve_median_off_seconds", serve_median_off) +
          ",\n";
  json += "  " + JsonField("serve_median_on_seconds", serve_median_on) +
          ",\n";
  json += "  " + JsonField("serve_overhead_pct", serve_overhead_pct) + ",\n";
  json += "  \"ledger_records\": " + std::to_string(ledger_records) + ",\n";
  json += "  \"flight_entries\": " + std::to_string(flight_total) + ",\n";
  json += "  \"serving_report_identical\": true,\n";
  json += "  \"budget_pct\": 2.0,\n";
  json += std::string("  \"within_budget\": ") +
          (overhead_pct < 2.0 && serve_overhead_pct < 2.0 ? "true" : "false") +
          "\n";
  json += "}\n";
  const Status written = WriteTextFile(out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace caqe

int main(int argc, char** argv) { return caqe::bench::Main(argc, argv); }
