// caqe_serve — the serving layer's CLI, in three modes.
//
// Batch (default): replay a synthetic deterministic arrival trace through
// the online serving layer and print the serving report.
//
//   caqe_serve [--rows=1000] [--sel=0.01] [--requests=12] [--rate=40]
//              [--seed=2014] [--threads=1] [--target-regions=128]
//              [--policy=contract|count] [--cancel-fraction=0.1]
//              [--deadline-fraction=0.25] [--admit-all=0]
//              [--calibrate=0]          # self-tuning admission estimates
//              [--report-out=PATH]      # write ServingReportText to PATH
//              [--events_out=PATH]      # write the exec event stream (JSONL)
//              [--trace_out=PATH]       # write a Chrome/Perfetto trace
//              [--metrics_out=PATH]     # write a Prometheus text snapshot
//              [--health_out=PATH]      # write contract-health JSONL
//              [--ledger_out=PATH]      # write the contract audit ledger
//                                       # (JSONL; wall_us is the only
//                                       # nondeterministic field)
//              [--flight_out=PATH]      # write the flight-recorder ring
//
// Listen (--listen): serve the line protocol of src/net/protocol.h over
// TCP on a wall clock, recording the session for replay.
//
//   caqe_serve --listen=ADDR:PORT      # 127.0.0.1:0 picks an ephemeral port
//              [--record=PATH]          # session trace (replayable)
//              [--port_file=PATH]       # write the bound port (for scripts)
//              [--quantum=1e-6]         # arrival quantization (vsec)
//              [--idle_timeout_ms=30000]
//              [--linger=1]             # keep STATUS//metrics after drain
//              [--sample_every=1]       # span sampling period
//              ... plus the batch data/engine flags above.
//
//   SIGINT/SIGTERM drain gracefully (flush emissions, final report, close
//   the recorder); a second signal hard-stops. SIGQUIT dumps the flight
//   recorder (to --flight_out, or stderr) without disturbing the session.
//   The exit code reflects drain success. --trace_out streams
//   incrementally in this mode.
//
// Replay (--replay): load a recorded session trace and re-run it on the
// virtual clock.
//
//   caqe_serve --replay=PATH [engine flags]
//
//   Data-shape parameters (rows, sel, seed, target-regions, policy,
//   admit-all, calibrate) come from the trace header, so a replay
//   reconstructs the exact engine the live session ran. The header must
//   carry every one of them, and a data-shape flag next to --replay is an
//   error: either way the replay would run a different world. Every
//   data-shape value, flag or header attribute, must be one whole token —
//   numbers fully numeric, admit-all and calibrate exactly 0 or 1 — or the
//   tool exits 1 naming it. --threads, which never changes a report, comes
//   from the replay's own flags. The printed report is byte-identical to
//   the live session's — scripts/run_net_matrix.sh diffs exactly this at 1
//   and 8 threads.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "metrics/export.h"
#include "net/net_server.h"
#include "net/recorder.h"
#include "obs/stream_writer.h"

namespace caqe {
namespace {

/// Data-shape parameters: everything a replay must reproduce exactly.
/// --calibrate lives here (not with the engine knobs) because calibration
/// changes admission decisions, hence the report — a replay must re-run
/// with the live session's setting to stay byte-identical.
struct DataConfig {
  int64_t rows = 1000;
  double selectivity = 0.01;
  uint64_t seed = 2014;
  int target_regions = 128;
  std::string policy = "contract";
  bool admit_all = false;
  bool calibrate = false;
};

/// The flags DataConfigFromArgs reads, in DataConfigAttrs order; each
/// names its header attribute with '_' for '-'.
constexpr const char* kDataShapeFlags[] = {
    "rows", "sel", "seed", "target-regions", "policy", "admit-all",
    "calibrate"};

std::vector<std::pair<std::string, std::string>> DataConfigAttrs(
    const DataConfig& config) {
  return {{"rows", std::to_string(config.rows)},
          {"sel", net::FormatExactDouble(config.selectivity)},
          {"seed", std::to_string(config.seed)},
          {"target_regions", std::to_string(config.target_regions)},
          {"policy", config.policy},
          {"admit_all", config.admit_all ? "1" : "0"},
          {"calibrate", config.calibrate ? "1" : "0"}};
}

/// Sets data-shape attribute `attr` from `text`, which must be one whole
/// token: an integer for rows and target_regions, an unsigned integer for
/// seed, a finite number for sel, and exactly 0 or 1 for admit_all and
/// calibrate. Range checks stay with the generator and the engine. `label`
/// names the value in the error.
Status SetDataShape(const std::string& attr, const std::string& text,
                    const std::string& label, DataConfig* config) {
  // strtoll and friends skip leading space and take a '+', so a whole
  // token must also start with a digit, '-' or '.'.
  const char* const begin = text.c_str();
  const bool numeric_start =
      !text.empty() && (std::isdigit(static_cast<unsigned char>(text[0])) ||
                        text[0] == '-' || text[0] == '.');
  char* end = nullptr;
  errno = 0;
  const auto whole = [&] {
    return numeric_start && end == begin + text.size() && errno != ERANGE;
  };
  const auto bad = [&](const char* want) {
    return Status::InvalidArgument(label + " must be " + want + ", got '" +
                                   text + "'");
  };
  if (attr == "rows") {
    config->rows = std::strtoll(begin, &end, 10);
    if (!whole()) return bad("an integer");
  } else if (attr == "target_regions") {
    const long long value = std::strtoll(begin, &end, 10);
    if (!whole() || value < INT_MIN || value > INT_MAX) {
      return bad("an integer");
    }
    config->target_regions = static_cast<int>(value);
  } else if (attr == "seed") {
    config->seed = std::strtoull(begin, &end, 10);
    if (!whole() || text[0] == '-') return bad("an unsigned integer");
  } else if (attr == "sel") {
    config->selectivity = std::strtod(begin, &end);
    if (!whole() || !std::isfinite(config->selectivity)) {
      return bad("a number");
    }
  } else if (attr == "policy") {
    config->policy = text;
  } else if (text != "0" && text != "1") {
    return bad("0 or 1");
  } else if (attr == "admit_all") {
    config->admit_all = text == "1";
  } else {
    config->calibrate = text == "1";
  }
  return Status::OK();
}

Result<DataConfig> DataConfigFromArgs(const bench::Args& args) {
  DataConfig config;
  for (const char* flag : kDataShapeFlags) {
    if (!args.Has(flag)) continue;
    std::string attr = flag;
    std::replace(attr.begin(), attr.end(), '-', '_');
    CAQE_RETURN_NOT_OK(SetDataShape(attr, args.GetString(flag, ""),
                                    std::string("--") + flag, &config));
  }
  return config;
}

/// Reads the data shape a live session recorded. Every attribute
/// DataConfigAttrs writes is required: a default would silently replay a
/// world the session never ran.
Result<DataConfig> DataConfigFromTrace(const net::SessionTrace& trace) {
  const std::vector<std::pair<std::string, std::string>> attrs =
      DataConfigAttrs(DataConfig{});
  std::string missing;
  for (const auto& [key, value] : attrs) {
    if (trace.Attr(key, "").empty()) missing += " " + key;
  }
  if (!missing.empty()) {
    return Status::InvalidArgument(
        "session trace header lacks data-shape attributes:" + missing);
  }
  DataConfig config;
  for (const auto& [key, value] : attrs) {
    CAQE_RETURN_NOT_OK(SetDataShape(key, trace.Attr(key, ""),
                                    "header attribute " + key, &config));
  }
  return config;
}

/// Builds the fixed (R, T, dims, keys) world every mode shares.
struct ServeWorld {
  Table r;
  Table t;
  std::vector<MappingFunction> dims;
  std::vector<int> keys;
};

/// Fails when the generator rejects the data shape (say, rows=0 from a
/// malformed flag or trace header).
Result<ServeWorld> MakeWorld(const DataConfig& config) {
  GeneratorConfig cfg;
  cfg.num_rows = config.rows;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {config.selectivity, config.selectivity};
  cfg.seed = config.seed;
  Result<Table> r = GenerateTable("R", cfg);
  CAQE_RETURN_NOT_OK(r.status());
  cfg.seed = config.seed + 1;
  Result<Table> t = GenerateTable("T", cfg);
  CAQE_RETURN_NOT_OK(t.status());
  return ServeWorld{std::move(r).value(), std::move(t).value(),
                    {MappingFunction{0, 0}, MappingFunction{1, 1},
                     MappingFunction{2, 2}},
                    {0, 1}};
}

/// Engine knobs: free to vary between a live session and its replay.
Result<ServeOptions> OptionsFromArgs(const bench::Args& args,
                                     const DataConfig& config,
                                     Observability* obs) {
  ServeOptions options;
  options.num_threads = bench::ThreadsFromArgs(args);
  options.target_regions = config.target_regions;
  options.admit_all = config.admit_all;
  options.calibrate = config.calibrate;
  options.obs = obs;
  if (config.policy == "contract") {
    options.policy = SchedulePolicy::kContractDriven;
  } else if (config.policy == "count") {
    options.policy = SchedulePolicy::kCountDriven;
  } else {
    return Status::InvalidArgument("unknown policy: " + config.policy +
                                   " (use contract|count)");
  }
  return options;
}

/// Writes the report and every requested artifact (the event-log views
/// only when `obs` is attached, which WantsObs guarantees whenever one is
/// requested); returns nonzero on a write failure.
int WriteArtifacts(const bench::Args& args, const ServingReport& report,
                   Observability* obs) {
  const std::string text = ServingReportText(report);
  std::printf("%s", text.c_str());

  const auto write = [](const std::string& path,
                        const std::string& content) -> bool {
    const Status status = WriteTextFile(path, content);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  };

  const std::string report_out = args.GetString("report-out", "");
  if (!report_out.empty() && !write(report_out, text)) return 1;
  if (obs != nullptr) {
    const std::string events_out = args.GetString("events_out", "");
    if (!events_out.empty() &&
        !write(events_out, obs->events.ExecEventsJsonl())) {
      return 1;
    }
    const std::string metrics_out = args.GetString("metrics_out", "");
    if (!metrics_out.empty() &&
        !write(metrics_out, obs->metrics.PrometheusText())) {
      return 1;
    }
    const std::string health_out = args.GetString("health_out", "");
    if (!health_out.empty() &&
        !write(health_out, obs->events.HealthJsonl())) {
      return 1;
    }
    const std::string ledger_out = args.GetString("ledger_out", "");
    if (!ledger_out.empty() &&
        !write(ledger_out, obs->events.LedgerJsonl())) {
      return 1;
    }
    const std::string flight_out = args.GetString("flight_out", "");
    if (!flight_out.empty() && !write(flight_out, obs->flight.Jsonl())) {
      return 1;
    }
  }
  return 0;
}

bool WantsObs(const bench::Args& args) {
  return !args.GetString("events_out", "").empty() ||
         !args.GetString("trace_out", "").empty() ||
         !args.GetString("metrics_out", "").empty() ||
         !args.GetString("health_out", "").empty() ||
         !args.GetString("ledger_out", "").empty() ||
         !args.GetString("flight_out", "").empty();
}

// ---- Batch mode (the original tool) ----

int RunBatch(const bench::Args& args) {
  const Result<DataConfig> parsed = DataConfigFromArgs(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const DataConfig& config = *parsed;
  const Result<ServeWorld> world = MakeWorld(config);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }

  Observability obs;
  Result<ServeOptions> options =
      OptionsFromArgs(args, config, WantsObs(args) ? &obs : nullptr);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<CaqeServer>> server = CaqeServer::Create(
      world->r, world->t, world->dims, world->keys, *options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  TraceConfig trace_config;
  trace_config.num_requests = static_cast<int>(args.GetInt("requests", 12));
  trace_config.arrival_rate = args.GetDouble("rate", 40.0);
  trace_config.seed = config.seed;
  trace_config.reference_seconds = args.GetDouble("reference", 0.1);
  trace_config.deadline_fraction = args.GetDouble("deadline-fraction", 0.25);
  trace_config.cancel_fraction = args.GetDouble("cancel-fraction", 0.1);
  const std::vector<TraceRequest> trace =
      MakeSyntheticTrace(trace_config, world->keys, 3);
  SubmitTrace(**server, trace);

  Result<ServingReport> report = (*server)->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  const std::string obs_trace_out = args.GetString("trace_out", "");
  if (!obs_trace_out.empty()) {
    const Status status = WriteTextFile(obs_trace_out, obs.ChromeTrace());
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu spans)\n", obs_trace_out.c_str(),
                obs.spans.size());
  }
  return WriteArtifacts(args, *report, WantsObs(args) ? &obs : nullptr);
}

// ---- Listen mode (wall-clock TCP front-end) ----

net::NetServer* g_net = nullptr;
volatile std::sig_atomic_t g_signal_count = 0;

void OnSignal(int) {
  if (g_net == nullptr) return;
  // First signal: graceful drain. Second: hard stop. (Volatile compound
  // increment is deprecated in C++20, so read and write separately; signal
  // handlers never race themselves on one thread.)
  const std::sig_atomic_t count = g_signal_count;
  g_signal_count = count + 1;
  if (count == 0) {
    g_net->RequestDrain();
  } else {
    g_net->RequestStop();
  }
}

void OnSigQuit(int) {
  if (g_net != nullptr) g_net->RequestFlightDump();
}

int RunListen(const bench::Args& args) {
  const std::string listen = args.GetString("listen", "127.0.0.1:0");
  net::NetServerOptions net_options;
  const size_t colon = listen.rfind(':');
  if (colon == std::string::npos) {
    net_options.port = std::atoi(listen.c_str());
  } else {
    if (colon > 0) net_options.bind_address = listen.substr(0, colon);
    net_options.port = std::atoi(listen.c_str() + colon + 1);
  }
  net_options.quantum =
      args.GetDouble("quantum", ArrivalQuantizer::kDefaultQuantum);
  net_options.idle_timeout_ms =
      static_cast<int>(args.GetInt("idle_timeout_ms", 30000));
  net_options.linger_after_drain = args.GetInt("linger", 1) != 0;
  net_options.record_path = args.GetString("record", "");
  net_options.flight_dump_path = args.GetString("flight_out", "");

  const Result<DataConfig> parsed = DataConfigFromArgs(args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const DataConfig& config = *parsed;
  net_options.record_attrs = DataConfigAttrs(config);
  const Result<ServeWorld> world = MakeWorld(config);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }

  Observability obs;  // Always on: the point of --listen is /metrics.
  obs.spans.set_sample_every(
      static_cast<int>(args.GetInt("sample_every", 1)));
  Result<ServeOptions> options = OptionsFromArgs(args, config, &obs);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<CaqeServer>> server = CaqeServer::Create(
      world->r, world->t, world->dims, world->keys, *options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  // Incremental span flushing (crash-safe trace prefix).
  std::unique_ptr<StreamingTraceWriter> stream;
  const std::string obs_trace_out = args.GetString("trace_out", "");
  if (!obs_trace_out.empty()) {
    Result<std::unique_ptr<StreamingTraceWriter>> opened =
        StreamingTraceWriter::Open(obs_trace_out,
                                   StreamingTraceWriter::Format::kChrome);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    stream = std::move(opened).value();
  }
  net_options.obs = &obs;
  if (stream != nullptr) {
    StreamingTraceWriter* writer = stream.get();
    Observability* obs_ptr = &obs;
    net_options.on_tick = [writer, obs_ptr] {
      writer->Append(obs_ptr->spans.Drain());
    };
  }

  Result<std::unique_ptr<net::NetServer>> net =
      net::NetServer::Create(server->get(), std::move(net_options));
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }

  const std::string port_file = args.GetString("port_file", "");
  if (!port_file.empty()) {
    const Status status =
        WriteTextFile(port_file, std::to_string((*net)->port()) + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  std::printf("listening on %d\n", (*net)->port());
  std::fflush(stdout);

  g_net = net->get();
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGQUIT, OnSigQuit);
  const Status served = (*net)->Serve();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGQUIT, SIG_DFL);
  g_net = nullptr;

  if (stream != nullptr) {
    stream->Append(obs.spans.Drain());
    stream->Close();
    std::printf("wrote %s (%zu spans)\n", obs_trace_out.c_str(),
                stream->spans_written());
  }
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.ToString().c_str());
    return 1;
  }
  return WriteArtifacts(args, (*net)->report(), &obs);
}

// ---- Replay mode (virtual-clock re-run of a recorded session) ----

int RunReplay(const bench::Args& args) {
  for (const char* flag : kDataShapeFlags) {
    if (args.Has(flag)) {
      std::fprintf(stderr,
                   "--%s is a data-shape flag; a replay takes the data shape "
                   "from the trace header\n",
                   flag);
      return 1;
    }
  }
  const std::string path = args.GetString("replay", "");
  Result<net::SessionTrace> trace = net::LoadSessionTrace(path);
  if (!trace.ok()) {
    std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
    return 1;
  }
  const Result<DataConfig> config = DataConfigFromTrace(*trace);
  if (!config.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 config.status().ToString().c_str());
    return 1;
  }
  const Result<ServeWorld> world = MakeWorld(*config);
  if (!world.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 world.status().ToString().c_str());
    return 1;
  }

  Observability obs;
  Result<ServeOptions> options =
      OptionsFromArgs(args, *config, WantsObs(args) ? &obs : nullptr);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.status().ToString().c_str());
    return 1;
  }
  Result<std::unique_ptr<CaqeServer>> server = CaqeServer::Create(
      world->r, world->t, world->dims, world->keys, *options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }

  const ArrivalQuantizer quantizer(trace->quantum);
  for (net::SessionEvent& event : trace->events) {
    const double vtime = quantizer.TimeOf(event.tq);
    if (event.command.kind == net::CommandKind::kSubmit) {
      net::SubmitCommand& submit = event.command.submit;
      const int id =
          (*server)->Submit(std::move(submit.query),
                            std::move(submit.contract), vtime,
                            submit.deadline_seconds);
      if (id != submit.trace_id) {
        std::fprintf(stderr, "replay id mismatch: got %d want %d\n", id,
                     submit.trace_id);
        return 1;
      }
    } else {
      const Status status =
          (*server)->Cancel(event.command.cancel_id, vtime);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
  }

  Result<ServingReport> report = (*server)->Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  return WriteArtifacts(args, *report, WantsObs(args) ? &obs : nullptr);
}

int Main(int argc, char** argv) {
  const bench::Args args(argc, argv);
  if (!args.GetString("listen", "").empty()) return RunListen(args);
  if (!args.GetString("replay", "").empty()) return RunReplay(args);
  return RunBatch(args);
}

}  // namespace
}  // namespace caqe

int main(int argc, char** argv) { return caqe::Main(argc, argv); }
