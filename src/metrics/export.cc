#include "metrics/export.h"

#include <cstdio>

#include "metrics/printer.h"

namespace caqe {

std::string ReportSummaryCsv(const std::vector<ExecutionReport>& reports) {
  TablePrinter table({"engine", "avg_satisfaction", "workload_pscore",
                      "join_results", "skyline_cmps", "coarse_ops",
                      "emitted", "regions_built", "regions_processed",
                      "regions_discarded", "virtual_seconds",
                      "wall_seconds"});
  for (const ExecutionReport& report : reports) {
    const EngineStats& s = report.stats;
    table.AddRow({report.engine, FormatDouble(report.average_satisfaction, 6),
                  FormatDouble(report.workload_pscore, 6),
                  std::to_string(s.join_results),
                  std::to_string(s.dominance_cmps),
                  std::to_string(s.coarse_ops),
                  std::to_string(s.emitted_results),
                  std::to_string(s.regions_built),
                  std::to_string(s.regions_processed),
                  std::to_string(s.regions_discarded),
                  FormatDouble(s.virtual_seconds, 6),
                  FormatDouble(s.wall_seconds, 6)});
  }
  return table.RenderCsv();
}

std::string QueryBreakdownCsv(const ExecutionReport& report) {
  TablePrinter table({"engine", "query", "results", "pscore",
                      "satisfaction"});
  for (const QueryReport& query : report.queries) {
    table.AddRow({report.engine, query.name, std::to_string(query.results),
                  FormatDouble(query.pscore, 6),
                  FormatDouble(query.satisfaction, 6)});
  }
  return table.RenderCsv();
}

std::string UtilityTraceCsv(const ExecutionReport& report) {
  TablePrinter table({"engine", "query", "time", "utility"});
  for (const QueryReport& query : report.queries) {
    for (const UtilityTracePoint& point : query.utility_trace) {
      table.AddRow({report.engine, query.name, FormatDouble(point.time, 9),
                    FormatDouble(point.utility, 6)});
    }
  }
  return table.RenderCsv();
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Internal("cannot open for writing: " + path);
  }
  const size_t written =
      std::fwrite(content.data(), 1, content.size(), file);
  const int close_status = std::fclose(file);
  if (written != content.size() || close_status != 0) {
    return Status::Internal("short write to: " + path);
  }
  return Status::OK();
}

}  // namespace caqe
