// caqe_cli — run a contract-driven multi-query experiment from the command
// line and print (or export) the comparison.
//
// Usage:
//   caqe_cli [--rows=4000] [--sel=0.01] [--dist=independent] [--dims=4]
//            [--queries=11] [--contract=C1|C2|C3|C4|C5] [--seed=2014]
//            [--threads=1]
//            [--engines=CAQE,S-JFSL,JFSL,ProgXe+,SSMJ]
//            [--out=PREFIX]          # write PREFIX_{summary,queries,trace}.csv
//            [--trace=1]             # print per-query first/last emission
//            [--trace_out=PATH]      # Chrome/Perfetto trace: spans of the
//                                    # region engines + contract-health
//                                    # tracks (JFSL and SSMJ record none)
//            [--metrics_out=PATH]    # Prometheus text snapshot
//
// The contract's deadline/interval parameters are calibrated automatically
// against a shared-pass reference run, exactly like the figure benchmarks.
#include <cstdio>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "metrics/export.h"

namespace caqe {
namespace {

std::vector<std::string> SplitCsvList(const std::string& input) {
  std::vector<std::string> out;
  std::string current;
  for (char c : input) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  bench::BenchConfig config;
  config.rows = args.GetInt("rows", 4000);
  config.num_attrs = static_cast<int>(args.GetInt("dims", 4));
  config.selectivity = args.GetDouble("sel", 0.01);
  config.num_queries = static_cast<int>(args.GetInt("queries", 11));
  config.seed = args.GetInt("seed", 2014);
  const Result<Distribution> dist =
      bench::ParseDistribution(args.GetString("dist", "independent"));
  if (!dist.ok()) {
    std::fprintf(stderr, "%s\n", dist.status().ToString().c_str());
    return 1;
  }
  config.distribution = *dist;

  const std::string contract_name = args.GetString("contract", "C3");
  int contract_index = -1;
  for (int c = 0; c < 5; ++c) {
    if (contract_name == bench::ContractName(c)) contract_index = c;
  }
  if (contract_index < 0) {
    std::fprintf(stderr, "unknown contract: %s (use C1..C5)\n",
                 contract_name.c_str());
    return 1;
  }

  auto [r, t] = bench::MakeBenchTables(config);
  const Result<Workload> workload = MakeSubspaceWorkload(
      config.num_attrs, 0, config.num_queries,
      bench::PolicyForContract(contract_index), config.seed);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  const bench::Calibration calibration = bench::Calibrate(r, t, *workload);
  const std::vector<Contract> contracts(
      workload->num_queries(),
      bench::MakeTableTwoContract(contract_index,
                                  calibration.reference_seconds));
  ExecOptions options;
  options.known_result_counts = calibration.result_counts;
  options.capture_results = false;
  options.num_threads = bench::ThreadsFromArgs(args);
  const std::string trace_out = args.GetString("trace_out", "");
  const std::string metrics_out = args.GetString("metrics_out", "");
  Observability obs;
  if (!trace_out.empty() || !metrics_out.empty()) options.obs = &obs;

  std::printf(
      "caqe_cli: dist=%s N=%lld sigma=%.4f d=%d |S_Q|=%d contract=%s "
      "(reference %.3fs)\n\n",
      DistributionName(config.distribution),
      static_cast<long long>(config.rows), config.selectivity,
      config.num_attrs, config.num_queries, contract_name.c_str(),
      calibration.reference_seconds);

  const std::vector<std::string> engines = SplitCsvList(
      args.GetString("engines", "CAQE,S-JFSL,JFSL,ProgXe+,SSMJ"));
  std::vector<ExecutionReport> reports;
  TablePrinter table({"engine", "avg_sat", "prog_sat", "join_results",
                      "skyline_cmps", "exec_time_s", "wall_s"});
  for (const std::string& name : engines) {
    Result<std::unique_ptr<Engine>> engine = MakeEngine(name);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    Result<ExecutionReport> report =
        (*engine)->Execute(r, t, *workload, contracts, options);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    table.AddRow(
        {report->engine, FormatDouble(report->average_satisfaction, 3),
         FormatDouble(bench::ProgressiveScore(
                          *report, calibration.reference_seconds),
                      3),
         FormatCount(report->stats.join_results),
         FormatCount(report->stats.dominance_cmps),
         FormatDouble(report->stats.virtual_seconds, 3),
         FormatDouble(report->stats.wall_seconds, 3)});
    if (args.GetInt("trace", 0) != 0) {
      std::printf("%s emission profile:\n", report->engine.c_str());
      for (const QueryReport& query : report->queries) {
        if (query.utility_trace.empty()) continue;
        std::printf("  %-4s %5lld results, first %.4fs, last %.4fs\n",
                    query.name.c_str(),
                    static_cast<long long>(query.results),
                    query.utility_trace.front().time,
                    query.utility_trace.back().time);
      }
    }
    reports.push_back(std::move(report).value());
  }
  std::printf("%s\n", table.Render().c_str());

  const std::string out = args.GetString("out", "");
  if (!out.empty()) {
    Status status =
        WriteTextFile(out + "_summary.csv", ReportSummaryCsv(reports));
    for (const ExecutionReport& report : reports) {
      if (!status.ok()) break;
      status = WriteTextFile(out + "_queries_" + report.engine + ".csv",
                             QueryBreakdownCsv(report));
      if (!status.ok()) break;
      status = WriteTextFile(out + "_trace_" + report.engine + ".csv",
                             UtilityTraceCsv(report));
    }
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s_summary.csv and per-engine query/trace CSVs\n",
                out.c_str());
  }
  if (!trace_out.empty()) {
    const Status status = WriteTextFile(trace_out, obs.ChromeTrace());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu spans)\n", trace_out.c_str(),
                obs.spans.size());
  }
  if (!metrics_out.empty()) {
    const Status status =
        WriteTextFile(metrics_out, obs.metrics.PrometheusText());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace caqe

int main(int argc, char** argv) { return caqe::Main(argc, argv); }
