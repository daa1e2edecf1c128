#include "serve/serving.h"

#include <cmath>

#include "common/macros.h"
#include "metrics/printer.h"

namespace caqe {

const char* AdmissionDecisionName(AdmissionDecision decision) {
  switch (decision) {
    case AdmissionDecision::kAdmit:
      return "admit";
    case AdmissionDecision::kDefer:
      return "defer";
    case AdmissionDecision::kReject:
      return "reject";
  }
  return "unknown";
}

const char* RequestStatusName(RequestStatus status) {
  switch (status) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kDeferred:
      return "deferred";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kCompleted:
      return "completed";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kExpired:
      return "expired";
    case RequestStatus::kRejected:
      return "rejected";
  }
  return "unknown";
}

std::string RequestReportLine(const RequestReport& request) {
  std::string line = "request " + std::to_string(request.request_id);
  line += " name=" + request.name;
  line += " status=";
  line += RequestStatusName(request.status);
  line += " submit=" + FormatDouble(request.submit_time, 9);
  line += " decision=" + FormatDouble(request.decision_time, 9);
  line += " finish=" + FormatDouble(request.finish_time, 9);
  line += " ttfr=" + FormatDouble(request.time_to_first_result, 9);
  line += " defers=" + std::to_string(request.defers);
  line += " results=" + std::to_string(request.results);
  line += " pscore=" + FormatDouble(request.pscore, 6);
  line += " satisfaction=" + FormatDouble(request.satisfaction, 6);
  line += " expected_utility=" + FormatDouble(request.expected_utility, 6);
  line += " lineage=" + std::to_string(request.lineage_regions);
  line += " parked_dropped=" + std::to_string(request.parked_dropped);
  line += " reason=" + request.reason;
  return line;
}

std::string ServingReportText(const ServingReport& report) {
  std::string out = "serving report\n";
  out += "  submitted " + std::to_string(report.submitted);
  out += "  admitted " + std::to_string(report.admitted);
  out += " (rate " + FormatDouble(report.admission_rate, 6) + ")";
  out += "  rejected " + std::to_string(report.rejected);
  out += "  cancelled " + std::to_string(report.cancelled);
  out += "  expired " + std::to_string(report.expired);
  out += "  completed " + std::to_string(report.completed);
  out += "\n";
  out += "  cumulative_pscore " + FormatDouble(report.cumulative_pscore, 6);
  out += "  finish_vtime " + FormatDouble(report.finish_vtime, 9);
  out += "  control_ops " + std::to_string(report.control_ops);
  out += "\n";
  const EngineStats& s = report.stats;
  out += "  stats: join_probes " + std::to_string(s.join_probes);
  out += " join_results " + std::to_string(s.join_results);
  out += " dominance_cmps " + std::to_string(s.dominance_cmps);
  out += " coarse_ops " + std::to_string(s.coarse_ops);
  out += " emitted " + std::to_string(s.emitted_results);
  out += " regions_built " + std::to_string(s.regions_built);
  out += " regions_processed " + std::to_string(s.regions_processed);
  out += " regions_discarded " + std::to_string(s.regions_discarded);
  out += "\n";
  for (const RequestReport& request : report.requests) {
    out += RequestReportLine(request);
    out += "\n";
  }
  return out;
}

ArrivalQuantizer::ArrivalQuantizer(double quantum) : quantum_(quantum) {
  CAQE_CHECK(quantum > 0.0);
}

int64_t ArrivalQuantizer::Next(double virtual_now) {
  CAQE_DCHECK(virtual_now >= 0.0);
  int64_t index = static_cast<int64_t>(std::ceil(virtual_now / quantum_));
  // Strictly after now: an event stamped at the current clock would fire
  // live only after the control sweeps of the step that left the clock
  // there, but in a Submit()+Run() replay before them. The loop also covers
  // ceil landing one quantum short when virtual_now/quantum_ rounds down to
  // an exact integer just below the true quotient.
  while (index * quantum_ <= virtual_now) ++index;
  if (index <= last_) index = last_ + 1;
  last_ = index;
  return index;
}

}  // namespace caqe
