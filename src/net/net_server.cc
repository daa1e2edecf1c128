#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/json_util.h"
#include "common/macros.h"
#include "metrics/printer.h"
#include "obs/event_log.h"

namespace caqe {
namespace net {

namespace {

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Engine steps per loop round: enough to make real progress between
/// socket rounds, small enough to keep the loop responsive.
constexpr int kStepsPerRound = 64;

/// Audit-ledger records returned per /tracez response and per TRACE reply;
/// bounds the bytes a hostile client can make one request queue.
constexpr size_t kTracezMaxRecords = 256;
constexpr size_t kTraceTailMax = 32;

}  // namespace

NetServer::NetServer(CaqeServer* server, NetServerOptions options)
    : server_(server),
      options_(std::move(options)),
      quantizer_(options_.quantum) {}

NetServer::~NetServer() {
  for (auto& [fd, conn] : conns_) {
    ::close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

Result<std::unique_ptr<NetServer>> NetServer::Create(CaqeServer* server,
                                                     NetServerOptions options) {
  if (server == nullptr) {
    return Status::InvalidArgument("net server: null engine");
  }
  if (!(options.quantum > 0.0)) {
    return Status::InvalidArgument("net server: quantum must be > 0");
  }
  auto net = std::unique_ptr<NetServer>(
      new NetServer(server, std::move(options)));
  CAQE_RETURN_NOT_OK(server->BeginLive());
  net->InstallObservers();
  if (!net->options_.record_path.empty()) {
    Result<std::unique_ptr<SessionRecorder>> recorder = SessionRecorder::Open(
        net->options_.record_path, net->options_.quantum,
        net->options_.record_attrs);
    CAQE_RETURN_NOT_OK(recorder.status());
    net->recorder_ = std::move(recorder).value();
  }
  CAQE_RETURN_NOT_OK(net->Listen());
  return net;
}

Status NetServer::Listen() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("net server: bad bind address '" +
                                   options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) < 0) {
    return Status::Internal(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return Status::Internal(std::string("getsockname: ") +
                            std::strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  CAQE_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  CAQE_RETURN_NOT_OK(SetNonBlocking(wake_read_fd_));
  CAQE_RETURN_NOT_OK(SetNonBlocking(wake_write_fd_));
  return Status::OK();
}

void NetServer::InstallObservers() {
  if (options_.obs != nullptr) {
    MetricsRegistry& m = options_.obs->metrics;
    connections_total_ = &m.counter("caqe_net_connections_total");
    bytes_in_total_ = &m.counter("caqe_net_bytes_in_total");
    bytes_out_total_ = &m.counter("caqe_net_bytes_out_total");
    parse_errors_total_ = &m.counter("caqe_net_parse_errors_total");
    active_connections_ = &m.gauge("caqe_net_active_connections");
    ttfb_hist_ = &m.histogram("caqe_net_request_to_first_byte_seconds",
                              ExponentialBuckets(1e-4, 2.0, 18));
  }
  server_->SetLiveObservers(
      [this](int request_id, AdmissionDecision decision, const char* reason) {
        const auto it = request_conn_.find(request_id);
        if (it == request_conn_.end()) return;
        const auto conn_it = conns_.find(it->second);
        if (conn_it == conns_.end()) return;
        Reply(*conn_it->second, "DECISION " + std::to_string(request_id) +
                                    " " + AdmissionDecisionName(decision) +
                                    " " + reason);
      },
      [this](int request_id, RequestStatus status) {
        const auto it = request_conn_.find(request_id);
        if (it != request_conn_.end()) {
          const auto conn_it = conns_.find(it->second);
          if (conn_it != conns_.end()) {
            Reply(*conn_it->second, "DONE " + std::to_string(request_id) +
                                        " " + RequestStatusName(status));
          }
          request_conn_.erase(it);
        }
        request_start_.erase(request_id);
      });
}

void NetServer::RequestDrain() {
  const char byte = 'd';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void NetServer::RequestStop() {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void NetServer::RequestFlightDump() {
  const char byte = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

Status NetServer::Serve() {
  while (LoopOnce()) {
  }
  for (auto& [fd, conn] : conns_) {
    if (conn->kind == ConnKind::kProtocol) Reply(*conn, "BYE");
    FlushTo(*conn);
    ::close(conn->fd);
  }
  conns_.clear();
  if (active_connections_ != nullptr) active_connections_->Set(0.0);
  if (recorder_ != nullptr) recorder_->Close();
  if (hard_stop_ && !drained_) {
    return Status::Internal("net server: stopped before drain completed");
  }
  return drain_status_;
}

bool NetServer::LoopOnce() {
  std::vector<pollfd> fds;
  fds.push_back({wake_read_fd_, POLLIN, 0});
  fds.push_back({listen_fd_, POLLIN, 0});
  for (auto& [fd, conn] : conns_) {
    short events = POLLIN;
    if (!conn->out.empty()) events |= POLLOUT;
    fds.push_back({fd, events, 0});
  }

  const int timeout_ms = engine_busy_ ? 0 : 20;
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR) {
    hard_stop_ = true;
    return false;
  }

  if (fds[0].revents & POLLIN) DrainWakePipe();
  if (hard_stop_) return false;
  if (flight_dump_requested_) {
    flight_dump_requested_ = false;
    DumpFlight("signal");
  }
  if (fds[1].revents & POLLIN) AcceptPending();

  for (size_t i = 2; i < fds.size(); ++i) {
    const auto it = conns_.find(fds[i].fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
      // POLLHUP with unread input still delivers the input first.
      if ((fds[i].revents & POLLIN) == 0) {
        CloseConn(conn);
        continue;
      }
    }
    if (fds[i].revents & POLLIN) ReadFrom(conn);
    const auto again = conns_.find(fds[i].fd);
    if (again == conns_.end()) continue;
    if (fds[i].revents & POLLOUT) FlushTo(*again->second);
  }

  CloseIdle();
  StepEngine();
  if (options_.on_tick) options_.on_tick();
  if (state_ == State::kDraining && !engine_busy_) FinishDrain();
  if (state_ == State::kDrained) {
    if (hard_stop_ || stop_after_drain_ || !options_.linger_after_drain) {
      return false;
    }
  }
  return !hard_stop_;
}

void NetServer::DrainWakePipe() {
  char buf[64];
  ssize_t n = 0;
  while ((n = ::read(wake_read_fd_, buf, sizeof(buf))) > 0) {
    for (ssize_t i = 0; i < n; ++i) {
      if (buf[i] == 's') {
        hard_stop_ = true;
      } else if (buf[i] == 'q') {
        flight_dump_requested_ = true;
      } else if (buf[i] == 'd') {
        if (state_ == State::kServing) {
          state_ = State::kDraining;
        } else if (state_ == State::kDrained) {
          // Second graceful request after the drain: leave the linger.
          stop_after_drain_ = true;
        }
      }
    }
  }
}

void NetServer::AcceptPending() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      const char reply[] = "ERR too-many-connections\n";
      [[maybe_unused]] const ssize_t n = ::write(fd, reply, sizeof(reply) - 1);
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    conns_.emplace(fd, std::make_unique<Connection>(
                           fd, options_.limits.max_line_bytes,
                           std::chrono::steady_clock::now()));
    if (connections_total_ != nullptr) connections_total_->Inc();
    if (active_connections_ != nullptr) {
      active_connections_->Set(static_cast<double>(conns_.size()));
    }
  }
}

void NetServer::ReadFrom(Connection& conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      if (bytes_in_total_ != nullptr) bytes_in_total_->Inc(n);
      conn.in.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Orderly shutdown or error: process what we have, then close below.
    conn.closing = true;
    break;
  }

  ProcessInput(conn);
}

void NetServer::ProcessInput(Connection& conn) {
  const int fd = conn.fd;
  if (conn.kind == ConnKind::kHttp) {
    HandleHttp(conn);
  } else {
    std::string line;
    while (conns_.count(fd) != 0) {
      const LineBuffer::Pop pop = conn.in.Next(line);
      if (pop == LineBuffer::Pop::kNeedMore) break;
      if (pop == LineBuffer::Pop::kOverflow) {
        ReplyErr(conn, "line-too-long");
        continue;
      }
      if (conn.kind == ConnKind::kUndecided) {
        if (LooksLikeHttp(line)) {
          conn.kind = ConnKind::kHttp;
          conn.http_request_line = line;
          HandleHttp(conn);
          break;
        }
        conn.kind = ConnKind::kProtocol;
        Reply(conn, "HELLO caqe/1 dims=" +
                        std::to_string(server_->num_output_dims()));
        if (conns_.count(fd) == 0) return;
      }
      HandleLine(conn, line);
    }
  }
  if (conns_.count(fd) != 0 && conn.closing && conn.out.empty()) {
    CloseConn(conn);
  }
}

void NetServer::HandleHttp(Connection& conn) {
  if (conn.http_request_line.empty()) {
    std::string line;
    const LineBuffer::Pop pop = conn.in.Next(line);
    if (pop == LineBuffer::Pop::kOverflow) {
      conn.out += HttpResponse(400, "Bad Request", "text/plain",
                               "request line too long\n");
      conn.closing = true;
      FlushTo(conn);
      return;
    }
    if (pop == LineBuffer::Pop::kNeedMore) return;
    conn.http_request_line = line;
  }
  Result<HttpRequest> request = ParseHttpRequestLine(conn.http_request_line);
  std::string response;
  if (!request.ok()) {
    if (parse_errors_total_ != nullptr) parse_errors_total_->Inc();
    response =
        HttpResponse(400, "Bad Request", "text/plain", "bad request\n");
  } else if (request->path == "/metrics") {
    if (options_.obs == nullptr) {
      response =
          HttpResponse(404, "Not Found", "text/plain", "no metrics\n");
    } else {
      response = HttpResponse(200, "OK", "text/plain; version=0.0.4",
                              options_.obs->metrics.PrometheusText());
    }
  } else if (request->path == "/healthz") {
    response = HttpResponse(200, "OK", "text/plain",
                            std::string("ok state=") + StateName() + "\n");
  } else if (request->path == "/statusz") {
    response = HttpResponse(200, "OK", "text/plain", StatuszBody());
  } else if (request->path == "/flightz") {
    if (options_.obs == nullptr) {
      response = HttpResponse(404, "Not Found", "text/plain",
                              "no-observability\n");
    } else {
      response = HttpResponse(200, "OK", "application/jsonl",
                              options_.obs->flight.Jsonl());
    }
  } else if (request->path == "/tracez" ||
             request->path.rfind("/tracez/", 0) == 0) {
    std::string_view id_text(request->path);
    id_text.remove_prefix(std::min<size_t>(id_text.size(), 8));
    response = TracezResponse(id_text);
  } else {
    response = HttpResponse(404, "Not Found", "text/plain", "not found\n");
  }
  if (request.ok() && request->method == "HEAD") {
    const size_t header_end = response.find("\r\n\r\n");
    if (header_end != std::string::npos) response.resize(header_end + 4);
  }
  conn.out += response;
  if (bytes_out_total_ != nullptr) bytes_out_total_->Inc(response.size());
  conn.closing = true;
  FlushTo(conn);
}

void NetServer::HandleLine(Connection& conn, const std::string& line) {
  if (line.empty()) return;
  Result<Command> parsed = ParseCommand(line, options_.limits);
  if (!parsed.ok()) {
    ReplyErr(conn, parsed.status().message());
    return;
  }
  Command& command = parsed.value();
  switch (command.kind) {
    case CommandKind::kSubmit:
      HandleSubmit(conn, std::move(command.submit));
      return;
    case CommandKind::kCancel:
      HandleCancel(conn, command.cancel_id);
      return;
    case CommandKind::kTrace:
      HandleTrace(conn, command.trace_name);
      return;
    case CommandKind::kStatus:
      Reply(conn, StatusLine());
      return;
    case CommandKind::kDrain:
      if (state_ == State::kServing) state_ = State::kDraining;
      conn.awaiting_drained = true;
      if (state_ == State::kDrained) {
        Reply(conn, "DRAINED");
        conn.awaiting_drained = false;
      } else {
        Reply(conn, "DRAINING");
      }
      return;
    case CommandKind::kStop:
      stop_after_drain_ = true;
      if (state_ == State::kServing) state_ = State::kDraining;
      Reply(conn, state_ == State::kDrained ? "BYE" : "DRAINING");
      return;
  }
}

void NetServer::HandleSubmit(Connection& conn, SubmitCommand submit) {
  if (state_ != State::kServing) {
    ReplyErr(conn, state_ == State::kDraining ? "draining" : "drained");
    return;
  }
  if (submit.trace_id >= 0) {
    // Ids are server-assigned on the wire; only recorded traces carry them.
    ReplyErr(conn, "bad-field id");
    return;
  }
  const int64_t tq = quantizer_.Next(server_->VirtualNow());
  const double vtime = quantizer_.TimeOf(tq);
  const int conn_fd = conn.fd;
  const SjQuery query_copy = submit.query;
  Result<int> submitted = server_->SubmitLive(
      std::move(submit.query), std::move(submit.contract), vtime,
      submit.deadline_seconds,
      [this, conn_fd](int request_id, int64_t tuple_id, double result_vtime,
                      double utility) {
        const auto start_it = request_start_.find(request_id);
        if (start_it != request_start_.end()) {
          if (ttfb_hist_ != nullptr) {
            ttfb_hist_->Observe(SecondsBetween(
                start_it->second, std::chrono::steady_clock::now()));
          }
          request_start_.erase(start_it);
        }
        const auto it = request_conn_.find(request_id);
        if (it == request_conn_.end() || it->second != conn_fd) return;
        const auto conn_it = conns_.find(it->second);
        if (conn_it == conns_.end()) return;
        Reply(*conn_it->second,
              "RESULT " + std::to_string(request_id) + " " +
                  std::to_string(tuple_id) + " " +
                  FormatDouble(result_vtime, 9) + " " +
                  FormatDouble(utility, 6));
      });
  if (!submitted.ok()) {
    if (parse_errors_total_ != nullptr) parse_errors_total_->Inc();
    ReplyErr(conn, "bad-query");
    return;
  }
  const int id = submitted.value();
  request_conn_[id] = conn_fd;
  request_start_[id] = std::chrono::steady_clock::now();
  if (recorder_ != nullptr) {
    recorder_->RecordSubmit(tq, id, query_copy, submit.contract_canonical,
                            submit.deadline_seconds);
  }
  Reply(conn, "QUEUED " + std::to_string(id));
}

void NetServer::HandleCancel(Connection& conn, int request_id) {
  if (state_ != State::kServing) {
    ReplyErr(conn, state_ == State::kDraining ? "draining" : "drained");
    return;
  }
  if (request_id < 0 || request_id >= server_->num_requests()) {
    ReplyErr(conn, "bad-field request-id");
    return;
  }
  const int64_t tq = quantizer_.Next(server_->VirtualNow());
  const Status status = server_->CancelLive(request_id, quantizer_.TimeOf(tq));
  if (!status.ok()) {
    ReplyErr(conn, "bad-cancel");
    return;
  }
  if (recorder_ != nullptr) recorder_->RecordCancel(tq, request_id);
  Reply(conn, "OK " + std::to_string(request_id));
}

void NetServer::HandleTrace(Connection& conn, const std::string& name) {
  if (options_.obs == nullptr) {
    ReplyErr(conn, "no-observability");
    return;
  }
  const int id = server_->FindRequestByName(name);
  if (id < 0) {
    ReplyErr(conn, "unknown-request");
    return;
  }
  const std::vector<ContractEvent> records =
      options_.obs->events.Tail(id, kTraceTailMax);
  // Reply can close a slow-consumer connection mid-loop; re-check the fd.
  const int fd = conn.fd;
  Reply(conn, "TRACE " + std::to_string(id) +
                  " records=" + std::to_string(records.size()));
  for (const ContractEvent& record : records) {
    if (conns_.count(fd) == 0) return;
    Reply(conn, LedgerEventJson(record));
  }
  if (conns_.count(fd) != 0) Reply(conn, "TRACE-END");
}

std::string NetServer::StatuszBody() const {
  std::string body = "caqe_serve statusz\n";
  body += std::string("build: ") + __VERSION__ +
#ifdef NDEBUG
          " (release)"
#else
          " (debug)"
#endif
          "\n";
  body += std::string("state: ") + StateName() + "\n";
  body += "uptime_s: " +
          FormatDouble(SecondsBetween(start_time_,
                                      std::chrono::steady_clock::now()),
                       3) +
          "\n";
  body += "vtime: " + FormatDouble(server_->VirtualNow(), 9) + "\n";
  body += "connections: " + std::to_string(conns_.size()) + "\n";
  body += "requests: " + std::to_string(server_->num_requests()) + "\n";
  body += "flags: quantum=" + FormatDouble(options_.quantum, 9) +
          " idle_timeout_ms=" + std::to_string(options_.idle_timeout_ms) +
          " max_connections=" + std::to_string(options_.max_connections) +
          " record=" +
          (options_.record_path.empty() ? "off" : options_.record_path) + "\n";
  if (options_.obs != nullptr) {
    body += "events: records=" + std::to_string(options_.obs->events.size()) +
            " dropped=" + std::to_string(options_.obs->events.dropped()) +
            "\n";
    body += "flight: entries=" + std::to_string(options_.obs->flight.total()) +
            " capacity=" + std::to_string(options_.obs->flight.capacity()) +
            "\n";
  }
  // Self-tuning admission: per-bucket correction-factor table (or a single
  // "calibration: off" line). Deterministic — reads only calibrator state.
  body += server_->CalibrationStatusText();
  body += "id name status results pscore submit_vtime root_span\n";
  const int n = server_->num_requests();
  for (int i = 0; i < n; ++i) {
    const CaqeServer::RequestBrief brief = server_->BriefOf(i);
    body += std::to_string(brief.id) + " " + brief.name + " " +
            RequestStatusName(brief.status) + " " +
            std::to_string(brief.results) + " " +
            FormatDouble(brief.pscore, 6) + " " +
            FormatDouble(brief.submit_time, 9) + " " +
            std::to_string(brief.root_span) + "\n";
  }
  return body;
}

std::string NetServer::TracezResponse(std::string_view id_text) const {
  // Hostile ids (empty, overlong, non-digit) get a stable 400 without ever
  // being converted — no allocation proportional to the input.
  if (id_text.empty() || id_text.size() > 9 ||
      id_text.find_first_not_of("0123456789") != std::string_view::npos) {
    return HttpResponse(400, "Bad Request", "text/plain", "bad-request-id\n");
  }
  int id = 0;
  for (const char c : id_text) id = id * 10 + (c - '0');
  if (id >= server_->num_requests()) {
    return HttpResponse(404, "Not Found", "text/plain",
                        "unknown-request-id\n");
  }
  if (options_.obs == nullptr) {
    return HttpResponse(404, "Not Found", "text/plain", "no-observability\n");
  }
  const CaqeServer::RequestBrief brief = server_->BriefOf(id);
  std::string body = "{\"request\":" + std::to_string(id) + ",\"name\":";
  JsonAppendString(body, brief.name);
  body += ",\"status\":\"";
  body += RequestStatusName(brief.status);
  body += "\",\"root_span\":" + std::to_string(brief.root_span);
  // The causal tree: audit-ledger records (kept up to the event log's
  // capacity) plus whatever spans the incremental trace flusher has not
  // drained yet.
  body += ",\"records\":[";
  const std::vector<ContractEvent> records =
      options_.obs->events.Tail(id, kTracezMaxRecords);
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) body += ',';
    body += LedgerEventJson(records[i]);
  }
  body += "],\"spans\":[";
  bool first = true;
  if (brief.root_span != 0) {
    for (const SpanRecord& span : options_.obs->spans.Snapshot()) {
      if (span.root != brief.root_span) continue;
      if (!first) body += ',';
      first = false;
      body += "{\"name\":";
      JsonAppendString(body, span.name);
      body += ",\"cat\":";
      JsonAppendString(body, span.category);
      body += ",\"span\":" + std::to_string(span.id);
      body += ",\"parent\":" + std::to_string(span.parent);
      body += ",\"seq\":" + std::to_string(span.seq);
      body += ",\"region\":" + std::to_string(span.region);
      body += ",\"query\":" + std::to_string(span.query) + "}";
    }
  }
  body += "]}\n";
  return HttpResponse(200, "OK", "application/json", body);
}

void NetServer::DumpFlight(const char* why) {
  if (options_.obs == nullptr) return;
  const std::string jsonl = options_.obs->flight.Jsonl();
  if (!options_.flight_dump_path.empty()) {
    std::FILE* out = std::fopen(options_.flight_dump_path.c_str(), "w");
    if (out != nullptr) {
      std::fwrite(jsonl.data(), 1, jsonl.size(), out);
      std::fclose(out);
      std::fprintf(stderr, "caqe_net: flight recorder (%s) -> %s\n", why,
                   options_.flight_dump_path.c_str());
      return;
    }
  }
  std::fprintf(stderr, "caqe_net: flight recorder (%s), %zu bytes:\n", why,
               jsonl.size());
  std::fwrite(jsonl.data(), 1, jsonl.size(), stderr);
}

std::string NetServer::StatusLine() const {
  std::string line = "STATUS vtime=" + FormatDouble(server_->VirtualNow(), 9);
  line += " requests=" + std::to_string(server_->num_requests());
  line += " connections=" + std::to_string(conns_.size());
  line += std::string(" state=") + StateName();
  return line;
}

const char* NetServer::StateName() const {
  switch (state_) {
    case State::kServing:
      return "serving";
    case State::kDraining:
      return "draining";
    case State::kDrained:
      return "drained";
  }
  return "unknown";
}

void NetServer::Reply(Connection& conn, const std::string& line) {
  conn.out += line;
  conn.out += '\n';
  if (bytes_out_total_ != nullptr) bytes_out_total_->Inc(line.size() + 1);
  if (conn.out.size() > options_.max_output_bytes) {
    // Slow consumer: unread output exceeded the cap.
    CloseConn(conn);
    return;
  }
  FlushTo(conn);
}

void NetServer::ReplyErr(Connection& conn, const std::string& code) {
  if (parse_errors_total_ != nullptr) parse_errors_total_->Inc();
  Reply(conn, "ERR " + code);
}

void NetServer::FlushTo(Connection& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    CloseConn(conn);
    return;
  }
  if (conn.closing) CloseConn(conn);
}

void NetServer::CloseConn(Connection& conn) {
  const int fd = conn.fd;
  ::close(fd);
  for (auto it = request_conn_.begin(); it != request_conn_.end();) {
    if (it->second == fd) {
      it = request_conn_.erase(it);
    } else {
      ++it;
    }
  }
  conns_.erase(fd);
  if (active_connections_ != nullptr) {
    active_connections_->Set(static_cast<double>(conns_.size()));
  }
}

void NetServer::CloseIdle() {
  if (options_.idle_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const double limit = options_.idle_timeout_ms / 1000.0;
  std::vector<int> idle;
  for (auto& [fd, conn] : conns_) {
    if (SecondsBetween(conn->last_activity, now) > limit) idle.push_back(fd);
  }
  for (int fd : idle) {
    const auto it = conns_.find(fd);
    if (it != conns_.end()) CloseConn(*it->second);
  }
}

void NetServer::StepEngine() {
  engine_busy_ = false;
  if (drained_) return;
  for (int i = 0; i < kStepsPerRound; ++i) {
    if (!server_->StepLive()) return;
    engine_busy_ = true;
  }
}

void NetServer::FinishDrain() {
  Result<ServingReport> report = server_->FinishLive();
  drained_ = true;
  state_ = State::kDrained;
  if (recorder_ != nullptr) recorder_->Close();
  if (report.ok()) {
    report_ = std::move(report).value();
    drain_status_ = Status::OK();
  } else {
    drain_status_ = report.status();
    // A failed drain is exactly what the flight recorder exists for: dump
    // the recent span/ledger tail before the state is torn down.
    DumpFlight("drain-failure");
  }
  for (auto& [fd, conn] : conns_) {
    if (conn->awaiting_drained) {
      conn->awaiting_drained = false;
      Reply(*conn, "DRAINED");
    }
  }
}

}  // namespace net
}  // namespace caqe
