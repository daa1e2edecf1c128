#include "obs/event_log.h"

#include <chrono>
#include <cstdio>
#include <iterator>

#include "common/json_util.h"
#include "metrics/printer.h"
#include "obs/flight_recorder.h"

namespace caqe {

namespace {

/// Shortest round-trip formatting: deterministic doubles (vtime, pScore)
/// must export byte-identically between a live session and its replay.
std::string JsonExact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  if (std::sscanf(buf, "%lf", &parsed) == 1 && parsed == v) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
      if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == v) {
        return shorter;
      }
    }
  }
  return buf;
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The exec stream's name for `event`, or nullptr when the stream skips it.
const char* ExecKindName(const ContractEvent& event) {
  if (event.kind >= ContractEventKind::kRegionScheduled) {
    return ContractEventKindName(event.kind);
  }
  if (event.kind == ContractEventKind::kGraft) return "query_admitted";
  if (event.kind == ContractEventKind::kRepreview) return "query_repreviewed";
  if (event.kind == ContractEventKind::kFinish && event.query >= 0) {
    return "query_retired";
  }
  return nullptr;
}

/// `,"key":"value"` for a string-literal field (phase, reason).
void AppendLiteral(std::string& out, const char* key, const char* value) {
  out += ",\"" + std::string(key) + "\":\"" + (value ? value : "") + "\"";
}

}  // namespace

const char* ContractEventKindName(ContractEventKind kind) {
  static constexpr const char* kNames[] = {
      "arrival",          "decision",         "graft",
      "region_step",      "first_result",     "cancel",
      "finish",           "repreview",        "region_scheduled",
      "region_discarded", "query_pruned",     "results_emitted"};
  const size_t index = static_cast<size_t>(kind);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

bool IsLedgerEvent(const ContractEvent& event) {
  if (event.kind == ContractEventKind::kRegionStep) return event.audited;
  return event.kind <= ContractEventKind::kRepreview;
}

std::string LedgerEventJson(const ContractEvent& event, bool include_wall) {
  std::string out = "{\"seq\":" + std::to_string(event.seq);
  out += ",\"kind\":\"";
  out += ContractEventKindName(event.kind);
  out += "\",\"req\":" + std::to_string(event.request_id);
  out += ",\"vtime\":" + JsonExact(event.vtime);
  out += ",\"span\":" + std::to_string(event.span);
  out += ",\"parent\":" + std::to_string(event.parent);
  switch (event.kind) {
    case ContractEventKind::kDecision:
      AppendLiteral(out, "phase", event.phase);
      AppendLiteral(out, "reason", event.reason);
      out += ",\"est_first\":" + JsonExact(event.est_first_seconds);
      out += ",\"est_finish\":" + JsonExact(event.est_finish_seconds);
      out += ",\"utility\":" + JsonExact(event.expected_utility);
      break;
    case ContractEventKind::kGraft:
      out += ",\"lineage_regions\":" + std::to_string(event.count);
      break;
    case ContractEventKind::kRegionStep:
      out += ",\"region\":" + std::to_string(event.region);
      out += ",\"results\":" + std::to_string(event.results);
      out += ",\"pscore_before\":" + JsonExact(event.pscore_before);
      out += ",\"pscore\":" + JsonExact(event.pscore);
      out += ",\"weight\":" + JsonExact(event.weight);
      break;
    case ContractEventKind::kFirstResult:
      out += ",\"results\":" + std::to_string(event.results);
      break;
    case ContractEventKind::kCancel:
      AppendLiteral(out, "phase", event.phase);
      break;
    case ContractEventKind::kFinish:
      AppendLiteral(out, "phase", event.phase);
      AppendLiteral(out, "reason", event.reason);
      out += ",\"results\":" + std::to_string(event.results);
      out += ",\"pscore\":" + JsonExact(event.pscore);
      out += ",\"est_finish\":" + JsonExact(event.est_finish_seconds);
      out += ",\"observed\":" + JsonExact(event.observed_seconds);
      out += ",\"utility\":" + JsonExact(event.expected_utility);
      break;
    case ContractEventKind::kRepreview:
      AppendLiteral(out, "phase", event.phase);
      AppendLiteral(out, "reason", event.reason);
      out += ",\"est_first_before\":" +
             JsonExact(event.est_first_before_seconds);
      out += ",\"est_finish_before\":" +
             JsonExact(event.est_finish_before_seconds);
      out += ",\"est_first\":" + JsonExact(event.est_first_seconds);
      out += ",\"est_finish\":" + JsonExact(event.est_finish_seconds);
      break;
    default:
      break;
  }
  if (include_wall) out += ",\"wall_us\":" + FormatDouble(event.wall_us, 3);
  out += "}";
  return out;
}

ContractEventLog::ContractEventLog() : epoch_ns_(NowNs()) {
  events_.reserve(1024);
}

void ContractEventLog::Append(ContractEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.kind == ContractEventKind::kGraft) {
    progress_[event.request_id] =
        Progress{event.results, event.pscore, event.weight,
                 /*sampled=*/false, /*grafted=*/true};
  } else if (event.kind == ContractEventKind::kRegionStep) {
    Progress& last = progress_[event.request_id];
    const bool moved = last.results != event.results ||
                       last.pscore != event.pscore ||
                       last.weight != event.weight;
    if (last.sampled && !moved) return;  // Unchanged since the last step.
    event.pscore_before = last.pscore;
    event.audited = last.grafted && moved;
    last = Progress{event.results, event.pscore, event.weight,
                    /*sampled=*/true, last.grafted};
  }
  if (IsLedgerEvent(event)) {
    event.seq = next_seq_++;
    event.wall_us = (NowNs() - epoch_ns_) / 1000.0;
    if (flight_ != nullptr) {
      FlightEntry entry;
      entry.kind = 'a';
      entry.name = ContractEventKindName(event.kind);
      entry.request_id = event.request_id;
      entry.region = event.region;
      entry.vtime = event.vtime;
      entry.wall_us = event.wall_us;
      entry.value = event.results;
      flight_->Record(entry);
    }
  }
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

void ContractEventLog::SetName(int id, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  names_[id] = std::move(name);
}

std::vector<ContractEvent> ContractEventLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<ContractEvent> ContractEventLog::Tail(int request_id,
                                                  size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ContractEvent> out;
  for (const ContractEvent& event : events_) {
    if (event.request_id != request_id || !IsLedgerEvent(event)) continue;
    out.push_back(event);
  }
  if (out.size() > max_events) {
    out.erase(out.begin(),
              out.begin() + static_cast<ptrdiff_t>(out.size() - max_events));
  }
  return out;
}

std::string ContractEventLog::LedgerJsonl(bool include_wall) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const ContractEvent& event : events_) {
    if (!IsLedgerEvent(event)) continue;
    out += LedgerEventJson(event, include_wall);
    out += "\n";
  }
  return out;
}

std::string ContractEventLog::HealthJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const ContractEvent& event : events_) {
    if (event.kind != ContractEventKind::kRegionStep) continue;
    out += "{\"vtime\":" + FormatDouble(event.vtime, 9);
    out += ",\"id\":" + std::to_string(event.request_id);
    const auto it = names_.find(event.request_id);
    if (it != names_.end()) {
      out += ",\"name\":";
      JsonAppendString(out, it->second);
    }
    out += ",\"results\":" + std::to_string(event.results);
    out += ",\"pscore\":" + FormatDouble(event.pscore, 9);
    out += ",\"weight\":" + FormatDouble(event.weight, 9);
    out += "}\n";
  }
  return out;
}

std::string ContractEventLog::ExecEventsJsonl(
    const std::vector<std::string>& query_names) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const ContractEvent& event : events_) {
    const char* name = ExecKindName(event);
    if (name == nullptr) continue;
    const int query = event.kind == ContractEventKind::kRepreview
                          ? event.request_id
                          : event.query;
    out += "{\"kind\":\"";
    out += name;
    out += "\",\"vtime\":" + FormatDouble(event.vtime, 9);
    out += ",\"region\":" + std::to_string(event.region);
    out += ",\"query\":" + std::to_string(query);
    if (query >= 0 && query < static_cast<int>(query_names.size())) {
      out += ",\"name\":";
      JsonAppendString(out, query_names[query]);
    }
    out += ",\"count\":" + std::to_string(event.count);
    out += "}\n";
  }
  return out;
}

std::string ContractEventLog::ChromeCounterEvents() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const ContractEvent& step : events_) {
    if (step.kind != ContractEventKind::kRegionStep) continue;
    const auto it = names_.find(step.request_id);
    const std::string label = (it == names_.end() ? "" : it->second) + "#" +
                              std::to_string(step.request_id);
    const auto counter = [&](const std::string& series, double value) {
      if (!out.empty()) out += ",\n";
      out += "{\"name\":";
      JsonAppendString(out, series + " " + label);
      out += ",\"ph\":\"C\",\"ts\":" + FormatDouble(step.vtime * 1e6, 3);
      out += ",\"pid\":1,\"tid\":0,\"args\":{\"" + series +
             "\":" + FormatDouble(value, 3) + "}}";
    };
    counter("pscore", step.pscore);
    counter("weight", step.weight);
  }
  return out;
}

size_t ContractEventLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

int64_t ContractEventLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace caqe
