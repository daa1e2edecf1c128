// Report serialization: CSV exports for offline analysis and plotting.
#ifndef CAQE_METRICS_EXPORT_H_
#define CAQE_METRICS_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "metrics/report.h"

namespace caqe {

/// One row per engine: headline metrics of a comparison run.
/// Columns: engine, avg_satisfaction, workload_pscore, join_results,
/// skyline_cmps, coarse_ops, emitted, regions_built, regions_processed,
/// regions_discarded, virtual_seconds, wall_seconds.
std::string ReportSummaryCsv(const std::vector<ExecutionReport>& reports);

/// One row per query of one report.
/// Columns: engine, query, results, pscore, satisfaction.
std::string QueryBreakdownCsv(const ExecutionReport& report);

/// One row per reported result of one report (the cumulative-utility
/// curves behind the progressiveness plots).
/// Columns: engine, query, time, utility.
std::string UtilityTraceCsv(const ExecutionReport& report);

/// Writes `content` to `path`, overwriting. Returns an error Status on I/O
/// failure.
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace caqe

#endif  // CAQE_METRICS_EXPORT_H_
