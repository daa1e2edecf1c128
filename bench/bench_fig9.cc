// Reproduces Figure 9 (a/b/c): average contract satisfaction of CAQE,
// S-JFSL, JFSL, ProgXe+ and SSMJ under contract classes C1-C5 on
// correlated, independent and anti-correlated data, |S_Q| = 11.
//
// Flags: --rows=N --sel=SIGMA --dist=correlated|independent|anticorrelated
//        --queries=K --seed=S --csv=1
//        --trace_out=PATH --metrics_out=PATH   # attach the observability
//        layer and dump a Chrome/Perfetto trace / Prometheus snapshot.
//        Deliberately silent on stdout: the printed tables must stay
//        byte-identical with tracing on or off
//        (scripts/run_determinism_matrix.sh diffs exactly this).
//
// Paper-expected shape: CAQE highest almost everywhere (about 2x the
// non-shared baselines on strict contracts); S-JFSL competitive only on
// correlated data; JFSL worst on time-based contracts; ProgXe+ closest on
// cardinality contracts with dim-decreasing priorities.
#include <cstdio>

#include "bench_util.h"
#include "metrics/export.h"

namespace caqe {
namespace bench {
namespace {

void RunDistribution(Distribution dist, const Args& args,
                     Observability* obs) {
  BenchConfig config;
  config.rows = args.GetInt("rows", 4000);
  config.selectivity = args.GetDouble("sel", 0.01);
  config.num_queries = static_cast<int>(args.GetInt("queries", 11));
  config.seed = args.GetInt("seed", 2014);
  config.distribution = dist;

  auto [r, t] = MakeBenchTables(config);

  std::printf("-- Figure 9 (%s): N=%lld, sigma=%.4f, |S_Q|=%d --\n",
              DistributionName(dist), static_cast<long long>(config.rows),
              config.selectivity, config.num_queries);

  // Calibration from a throwaway shared pass (priorities do not affect
  // completion time or result counts).
  const Workload scale_wl =
      MakeSubspaceWorkload(config.num_attrs, 0, config.num_queries,
                           PriorityPolicy::kUniform, config.seed)
          .value();
  const Calibration calibration = Calibrate(r, t, scale_wl);
  std::printf("   reference (shared-pass completion): %.3f virtual seconds\n",
              calibration.reference_seconds);

  TablePrinter table({"engine", "C1", "C2", "C3", "C4", "C5"});
  TablePrinter prog_table({"engine", "C1", "C2", "C3", "C4", "C5"});
  const std::vector<std::string> engines = {"CAQE", "S-JFSL", "JFSL",
                                            "ProgXe+", "SSMJ"};
  std::map<std::string, std::vector<double>> scores;
  std::map<std::string, std::vector<double>> prog_scores;
  for (int c = 0; c < 5; ++c) {
    const Workload workload =
        MakeSubspaceWorkload(config.num_attrs, 0, config.num_queries,
                             PolicyForContract(c), config.seed)
            .value();
    const std::vector<Contract> contracts(
        workload.num_queries(),
        MakeTableTwoContract(c, calibration.reference_seconds,
                             DistributionTightness(dist)));
    ExecOptions options;
    options.known_result_counts = calibration.result_counts;
    options.num_threads = ThreadsFromArgs(args);
    options.obs = obs;
    for (const std::string& engine : engines) {
      const ExecutionReport report =
          RunEngine(engine, r, t, workload, contracts, options);
      scores[engine].push_back(report.average_satisfaction);
      prog_scores[engine].push_back(
          ProgressiveScore(report, calibration.reference_seconds));
    }
  }
  for (const std::string& engine : engines) {
    std::vector<std::string> row = {engine};
    std::vector<std::string> prog_row = {engine};
    for (double s : scores[engine]) row.push_back(FormatDouble(s, 3));
    for (double s : prog_scores[engine]) {
      prog_row.push_back(FormatDouble(s, 3));
    }
    table.AddRow(row);
    prog_table.AddRow(prog_row);
  }
  const bool csv = args.GetInt("csv", 0) != 0;
  std::printf("average per-result utility (pScore / N):\n%s\n",
              csv ? table.RenderCsv().c_str() : table.Render().c_str());
  std::printf(
      "progressive satisfaction (utility AUC, horizon = reference):\n%s\n",
      csv ? prog_table.RenderCsv().c_str() : prog_table.Render().c_str());
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  std::printf(
      "CAQE reproduction: Figure 9 — average contract satisfaction\n\n");
  const std::string trace_out = args.GetString("trace_out", "");
  const std::string metrics_out = args.GetString("metrics_out", "");
  Observability obs;
  Observability* const obs_ptr =
      (!trace_out.empty() || !metrics_out.empty()) ? &obs : nullptr;
  const std::string dist = args.GetString("dist", "all");
  if (dist == "all") {
    for (Distribution d :
         {Distribution::kCorrelated, Distribution::kIndependent,
          Distribution::kAntiCorrelated}) {
      RunDistribution(d, args, obs_ptr);
    }
  } else {
    RunDistribution(ParseDistribution(dist).value(), args, obs_ptr);
  }
  // File writes only — stdout must not change with tracing attached.
  if (!trace_out.empty()) {
    const Status written = WriteTextFile(trace_out, obs.ChromeTrace());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    const Status written =
        WriteTextFile(metrics_out, obs.metrics.PrometheusText());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace caqe

int main(int argc, char** argv) { return caqe::bench::Main(argc, argv); }
