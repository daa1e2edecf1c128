// serve-churn and serve-heavy: a seeded client drives an in-process
// NetServer/CaqeServer over loopback TCP.
//
// Threads: the client runs on the calling thread, NetServer::Serve on one
// driver thread, and the engine pool adds num_threads - 1 = nproc - 2
// workers, so the run uses nproc threads in all.
//
// Timed run: live sessions, each preceded by its set-up (CaqeServer::Create
// + NetServer::Create until the port accepts, repeated setup_reps times) —
// one session for the open loop; for the closed loop, fixed-size sessions
// with requests of their own, repeated while the window lasts, whose
// figures are reported as medians. Then the output checks of every session
// — the live ServingReportText must byte-equal a Submit()+Run() replay of
// the session's own recording, and every QUEUED id must get exactly one
// DONE with as many RESULT lines as the report's `results`.
//
// Traced run: one untraced session (the overhead baseline), then the same
// requests traced — client spans per request and a STATUS probe on its own
// connection — whose recording is replayed through BeginLive/SubmitLive/
// StepLive/FinishLive under timers. The replay repeats the live engine work
// exactly, so what the live driver thread spent beyond it is the front door.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <fcntl.h>
#include <malloc.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "exec/engine.h"
#include "net/net_server.h"
#include "net/protocol.h"
#include "net/recorder.h"
#include "region/region_builder.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using caqe::CaqeServer;
using caqe::ServeOptions;
using caqe::ServingReport;
using caqe::Table;

constexpr int kNumDims = 3;
/// A session with no client-visible progress for this long is abandoned.
constexpr double kStallSeconds = 60.0;
/// The live server sweeps completions only on a productive engine step, so
/// a request whose last region ran in the step before the engine went idle
/// gets its DONE at the next arrival (or the drain). A client that has heard
/// nothing for this long stops waiting for such replies: the open loop
/// drains at the end of its schedule, the closed loop sends its next SUBMIT
/// early (and skips the release of the next answer, so the window holds).
constexpr double kQuietSeconds = 0.020;
/// Open-loop runs whose generator ran later than this at p99 are invalid.
constexpr double kMaxLagP99Seconds = 0.020;
/// Tail percentile of the serving latencies: a session completes a few
/// hundred requests or more, so p95 keeps ten samples beyond it.
constexpr double kTailLevel = 0.95;
/// STATUS probe period of the traced run.
constexpr double kStatusPeriodSeconds = 0.010;

// ---- Inputs ----

struct ServeInputs {
  std::optional<Table> r;
  std::optional<Table> t;
  std::vector<caqe::MappingFunction> dims;
  std::vector<int> keys;
  ServeOptions options;
};

ServeInputs MakeInputs(const ServeConfig& config, uint64_t seed) {
  caqe::GeneratorConfig cfg;
  cfg.num_rows = config.rows;
  cfg.num_attrs = kNumDims;
  cfg.join_selectivities = {config.join_selectivity, config.join_selectivity};
  cfg.seed = seed * 2 + 1;
  ServeInputs inputs;
  inputs.r.emplace(caqe::GenerateTable("R", cfg).value());
  cfg.seed = seed * 2 + 2;
  inputs.t.emplace(caqe::GenerateTable("T", cfg).value());
  for (int k = 0; k < kNumDims; ++k) {
    inputs.dims.push_back(caqe::MappingFunction{k, k});
  }
  inputs.keys = {0, 1};
  inputs.options.num_threads = std::max(1, NumCpus() - 1);
  return inputs;
}

std::unique_ptr<CaqeServer> CreateServer(const ServeInputs& inputs) {
  return CaqeServer::Create(*inputs.r, *inputs.t, inputs.dims, inputs.keys,
                            inputs.options)
      .value();
}

/// One request of the schedule, already in wire form.
struct WireRequest {
  std::string submit;
  /// Open loop: due time, seconds after the session start.
  double due = 0.0;
  /// Seconds after `due` at which the client cancels it; < 0: never.
  double cancel_after = -1.0;
};

/// The request schedule: a pure function of (config, seed, reference
/// timescale). It mirrors MakeSyntheticTrace (serve/trace.cc): exponential
/// gaps, a uniform join key, 1-3 of 3 preference dims, the Table 2 contract
/// mix scaled to `ref` virtual seconds, deadlines on a deadline_fraction
/// share — and adds what a wire client needs: contract specs as text, wall
/// cancel offsets, and sel= ranges on a selection_fraction share.
std::vector<WireRequest> MakeSchedule(const ServeConfig& config,
                                      uint64_t seed, int count, double ref) {
  caqe::Rng rng(seed);
  const double rate = config.rate > 0.0 ? config.rate : 1.0;
  std::vector<int> dim_pool(kNumDims);
  std::vector<WireRequest> schedule;
  double now = 0.0;
  const auto exact = [](double v) { return caqe::net::FormatExactDouble(v); };
  for (int i = 0; i < count; ++i) {
    now += -std::log(1.0 - rng.Uniform(0.0, 1.0)) / rate;
    caqe::SjQuery query;
    query.name = "S" + std::to_string(i);
    query.join_key = static_cast<int>(rng.UniformInt(0, 1));
    for (int k = 0; k < kNumDims; ++k) dim_pool[k] = k;
    const int dims = static_cast<int>(rng.UniformInt(1, kNumDims));
    for (int j = 0; j < dims; ++j) {
      std::swap(dim_pool[j],
                dim_pool[static_cast<int>(rng.UniformInt(j, kNumDims - 1))]);
    }
    query.preference.assign(dim_pool.begin(), dim_pool.begin() + dims);
    std::sort(query.preference.begin(), query.preference.end());
    query.priority = rng.Uniform(0.0, 1.0);
    std::string spec;
    switch (rng.UniformInt(0, 4)) {
      case 0:
        spec = "step:" + exact(rng.Uniform(0.3, 1.2) * ref);
        break;
      case 1:
        spec = "log:" + exact(ref / 50.0);
        break;
      case 2:
        spec = "hyper:" + exact(0.2 * ref) + "," + exact(ref / 10.0);
        break;
      case 3:
        spec = "card:0.1," + exact(ref / 10.0);
        break;
      default:
        spec = "hybrid:0.1," + exact(ref / 10.0) + "," + exact(ref / 10.0);
        break;
    }
    double deadline = 0.0;
    if (rng.Bernoulli(config.deadline_fraction)) {
      deadline = rng.Uniform(0.5, 2.0) * ref;
    }
    WireRequest request;
    request.due = now;
    if (rng.Bernoulli(config.cancel_fraction)) {
      request.cancel_after = rng.Uniform(0.1, 0.9) * config.cancel_window_s;
    }
    if (rng.Bernoulli(config.selection_fraction)) {
      caqe::SelectionRange sel;
      sel.on_r = rng.Bernoulli(0.5);
      sel.attr = static_cast<int>(rng.UniformInt(0, kNumDims - 1));
      const double width = rng.Uniform(0.3, 0.7) * 99.0;
      sel.lo = rng.Uniform(1.0, 100.0 - width);
      sel.hi = sel.lo + width;
      query.selections.push_back(sel);
    }
    std::string canonical;
    CAQE_CHECK(caqe::net::ParseContractSpec(spec, &canonical).ok());
    request.submit = caqe::net::FormatSubmitCommand(query, canonical, deadline);
    schedule.push_back(std::move(request));
  }
  return schedule;
}

/// Contract parameters scale to a probe query's virtual service time on
/// the tables (as bench/bench_serving.cc does).
double ProbeVirtualSeconds(const ServeInputs& inputs) {
  std::unique_ptr<CaqeServer> probe = CreateServer(inputs);
  probe->Submit(caqe::SjQuery{"probe", 0, {0, 1, 2}, 1.0, {}},
                caqe::MakeTimeStepContract(1e9), 0.0);
  const double ref = probe->Run().value().finish_vtime;
  CAQE_CHECK(ref > 0.0);
  return ref;
}

/// Session k's requests, a pure function of (config, seed, k, ref). The
/// open loop sends for `seconds`; its schedule is the Poisson count for
/// that, with margin.
std::vector<WireRequest> SessionSchedule(const ServeConfig& config,
                                         uint64_t seed, int k, double ref,
                                         double seconds) {
  const int count =
      config.session_requests > 0
          ? config.session_requests
          : static_cast<int>(config.rate * seconds * 1.5) + 100;
  return MakeSchedule(
      config, seed + static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL, count,
      ref);
}

// ---- Client ----

/// Client-side record of one SUBMIT.
struct RequestRecord {
  int conn = 0;
  /// Start of the latency clock: the due time (open loop) or the send time
  /// (closed loop), seconds after the session start.
  double start = -1.0;
  double sent = -1.0;
  double queued = -1.0;
  double first_result = -1.0;
  double done = -1.0;
  int id = -1;
  bool err = false;
  int dones = 0;
  int64_t results = 0;
  std::string status;
};

/// What a reply line on a connection answers, in send order.
struct PendingReply {
  enum class Kind { kSubmit, kCancel, kStatus, kDrain } kind;
  int index = -1;
  double sent = 0.0;
};

struct ClientConn {
  int fd = -1;
  caqe::net::LineBuffer in{1 << 20};
  std::string out;
  std::deque<PendingReply> pending;
  bool eof = false;
};

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

/// Everything the client observed in one session.
struct ClientLog {
  std::vector<RequestRecord> requests;
  /// Per SUBMIT, when the generator should have sent it: its due time (open
  /// loop) or the arrival of the reply that released it (closed loop).
  std::vector<double> due;
  std::vector<double> status_rtts;
  int64_t err_replies = 0;
  int64_t result_lines = 0;
  int64_t bytes_in = 0;
  bool stalled = false;
  /// Closed loop: SUBMITs released by a quiet period instead of a DONE.
  int64_t quiet_releases = 0;
  /// Wall clock of the session start (WallNow()).
  double origin = 0.0;
};

class Client {
 public:
  /// Connects `data_conns` request connections, plus one for the STATUS
  /// probe when `status_probe`; `spans` (may be null) receives the spans.
  Client(int port, int data_conns, bool status_probe, SpanLog* spans)
      : data_conns_(data_conns), status_probe_(status_probe), spans_(spans) {
    for (int i = 0; i < data_conns + (status_probe ? 1 : 0); ++i) {
      auto conn = std::make_unique<ClientConn>();
      conn->fd = ConnectLoopback(port);
      CAQE_CHECK(conn->fd >= 0);
      conns_.push_back(std::move(conn));
    }
  }

  ~Client() {
    for (auto& conn : conns_) ::close(conn->fd);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Open loop: each request is sent at its due time regardless of replies;
  /// cancels follow their QUEUED reply by cancel_after seconds.
  void RunOpenLoop(const std::vector<WireRequest>& schedule, double seconds) {
    Begin();
    size_t next = 0;
    while (true) {
      const double now = Now();
      while (next < schedule.size() && schedule[next].due < seconds &&
             schedule[next].due <= now) {
        SendSubmit(schedule, next, schedule[next].due, now);
        ++next;
      }
      const bool schedule_done =
          next >= schedule.size() || schedule[next].due >= seconds;
      SendDueCancels(now);
      ProbeStatus(now);
      if (schedule_done && AllAcknowledged() &&
          (answered_ == log_.requests.size() ||
           now - last_rx_ > kQuietSeconds)) {
        break;
      }
      double wake = now + 0.05;
      if (schedule_done) wake = std::min(wake, QuietDeadline(now));
      if (!schedule_done) wake = std::min(wake, schedule[next].due);
      if (!cancels_.empty()) wake = std::min(wake, cancels_.top().first);
      if (status_probe_) wake = std::min(wake, next_status_);
      if (!Pump(wake - now)) break;
    }
  }

  /// Closed loop: `window` requests outstanding; each DONE (or ERR) releases
  /// the next SUBMIT until the schedule is sent or `seconds` have passed.
  void RunClosedLoop(const std::vector<WireRequest>& schedule, int window,
                     double seconds) {
    Begin();
    size_t next = 0;
    const auto send_next = [&](double released) {
      if (next >= schedule.size()) return;
      const double now = Now();
      SendSubmit(schedule, next, now, now);
      log_.due.back() = released;
      ++next;
    };
    for (int i = 0; i < window; ++i) send_next(Now());
    // SUBMITs sent early by quiet periods, not yet paid back by an answer.
    int early = 0;
    while (true) {
      const double now = Now();
      ProbeStatus(now);
      while (!released_.empty()) {
        const double released = released_.front();
        released_.pop_front();
        if (early > 0) {
          --early;
        } else if (released < seconds) {
          send_next(released);
        }
      }
      const bool quiet = now - last_rx_ > kQuietSeconds;
      const bool sending_done = next >= schedule.size() || now >= seconds;
      if (sending_done && AllAcknowledged() &&
          (answered_ == log_.requests.size() || quiet)) {
        break;
      }
      if (quiet && !sending_done) {
        ++log_.quiet_releases;
        ++early;
        last_rx_ = now;
        send_next(now);
        continue;
      }
      double wake = std::min(now + 0.05, QuietDeadline(now));
      if (status_probe_) wake = std::min(wake, next_status_);
      if (!Pump(wake - now)) break;
    }
  }

  /// Sends DRAIN and reads until the server closes every connection.
  void Drain() {
    Send(*conns_[0], "DRAIN",
         PendingReply{PendingReply::Kind::kDrain, -1, Now()});
    while (true) {
      bool open = false;
      for (const auto& conn : conns_) open = open || !conn->eof;
      if (!open || !Pump(0.05)) return;
    }
  }

  ClientLog& log() { return log_; }

 private:
  double Now() const { return WallNow() - log_.origin; }

  /// True when every SUBMIT sent has its QUEUED or ERR reply, so a DRAIN
  /// sent now cannot overtake a SUBMIT on another connection.
  bool AllAcknowledged() const {
    for (const auto& conn : conns_) {
      for (const PendingReply& pending : conn->pending) {
        if (pending.kind == PendingReply::Kind::kSubmit) return false;
      }
    }
    return true;
  }

  /// When the current quiet period would end (just after it, so the wake-up
  /// sees it as quiet).
  double QuietDeadline(double now) const {
    return std::max(now, last_rx_ + kQuietSeconds) + 1e-4;
  }

  void Begin() {
    log_.origin = WallNow();
    last_progress_ = 0.0;
    last_rx_ = 0.0;
    next_status_ = 0.0;
  }

  void SendSubmit(const std::vector<WireRequest>& schedule, size_t index,
                  double start, double now) {
    RequestRecord record;
    record.conn = static_cast<int>(index % static_cast<size_t>(data_conns_));
    record.start = start;
    record.sent = now;
    log_.requests.push_back(record);
    log_.due.push_back(start);
    cancel_after_.push_back(schedule[index].cancel_after);
    Send(*conns_[record.conn], schedule[index].submit,
         PendingReply{PendingReply::Kind::kSubmit, static_cast<int>(index),
                      now});
  }

  void SendDueCancels(double now) {
    while (!cancels_.empty() && cancels_.top().first <= now) {
      const int index = cancels_.top().second;
      cancels_.pop();
      RequestRecord& record = log_.requests[static_cast<size_t>(index)];
      if (record.dones > 0) continue;  // Finished first; nothing to cancel.
      Send(*conns_[record.conn], "CANCEL " + std::to_string(record.id),
           PendingReply{PendingReply::Kind::kCancel, index, now});
    }
  }

  void ProbeStatus(double now) {
    if (!status_probe_ || now < next_status_) return;
    next_status_ = now + kStatusPeriodSeconds;
    ClientConn& conn = *conns_.back();
    if (!conn.pending.empty()) return;  // Previous probe still in flight.
    Send(conn, "STATUS", PendingReply{PendingReply::Kind::kStatus, -1, now});
  }

  void Send(ClientConn& conn, const std::string& line, PendingReply pending) {
    conn.pending.push_back(pending);
    conn.out += line;
    conn.out += '\n';
    Flush(conn);
  }

  void Flush(ClientConn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
      } else {
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
        conn.eof = true;
        conn.out.clear();
        return;
      }
    }
  }

  /// Waits up to `timeout` seconds for socket activity and handles every
  /// complete reply line. Returns false once the session stalled.
  bool Pump(double timeout) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) {
      short events = conn->eof ? 0 : POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    timeout = std::max(0.0, timeout);
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(timeout);
    ts.tv_nsec =
        static_cast<long>((timeout - static_cast<double>(ts.tv_sec)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) return false;
    char buf[65536];
    for (size_t i = 0; i < fds.size(); ++i) {
      ClientConn& conn = *conns_[i];
      if (fds[i].revents & POLLOUT) Flush(conn);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      while (true) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          log_.bytes_in += n;
          conn.in.Append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          conn.eof = true;
        }
        break;
      }
      std::string line;
      while (conn.in.Next(line) == caqe::net::LineBuffer::Pop::kLine) {
        HandleLine(conn, line);
      }
    }
    const double now = Now();
    if (ready > 0) last_progress_ = now;
    if (now - last_progress_ > kStallSeconds) {
      log_.stalled = true;
      return false;
    }
    return true;
  }

  static bool StartsWith(const std::string& line, const char* prefix) {
    return line.compare(0, std::strlen(prefix), prefix) == 0;
  }

  /// Integer after the first space ("VERB <int> ...").
  static int IdField(const std::string& line) {
    const size_t space = line.find(' ');
    return space == std::string::npos ? -1
                                      : std::atoi(line.c_str() + space + 1);
  }

  RequestRecord* ById(int id) {
    if (id < 0 || static_cast<size_t>(id) >= by_id_.size()) return nullptr;
    const int index = by_id_[static_cast<size_t>(id)];
    return index < 0 ? nullptr : &log_.requests[static_cast<size_t>(index)];
  }

  void Answered(int index, double now) {
    ++answered_;
    released_.push_back(now);
    if (spans_ == nullptr) return;
    const RequestRecord& r = log_.requests[static_cast<size_t>(index)];
    const double o = log_.origin;
    const double end = r.done >= 0.0 ? r.done : now;
    const int64_t root = spans_->Add("request", o + r.sent, o + end, 0, index);
    if (r.queued >= 0.0) {
      spans_->Add("send_to_queued", o + r.sent, o + r.queued, root, index);
      if (r.first_result >= 0.0) {
        spans_->Add("queued_to_first_result", o + r.queued,
                    o + r.first_result, root, index);
        spans_->Add("result_stream", o + r.first_result, o + end, root, index);
      } else {
        spans_->Add("queued_to_done", o + r.queued, o + end, root, index);
      }
    }
  }

  void HandleLine(ClientConn& conn, const std::string& line) {
    const double now = Now();
    // Quiet periods are judged on request traffic only; the STATUS probe's
    // replies keep arriving regardless.
    if (&conn != conns_.back().get() || !status_probe_) last_rx_ = now;
    if (StartsWith(line, "RESULT ")) {
      ++log_.result_lines;
      if (RequestRecord* r = ById(IdField(line))) {
        if (r->first_result < 0.0) r->first_result = now;
        ++r->results;
      }
      return;
    }
    if (StartsWith(line, "DONE ")) {
      const int id = IdField(line);
      RequestRecord* r = ById(id);
      if (r == nullptr) return;
      r->done = now;
      ++r->dones;
      r->status = line.substr(line.rfind(' ') + 1);
      if (r->dones == 1) Answered(by_id_[static_cast<size_t>(id)], now);
      return;
    }
    const bool queued = StartsWith(line, "QUEUED ");
    const bool err = StartsWith(line, "ERR ");
    const bool ok = StartsWith(line, "OK ");
    const bool status = StartsWith(line, "STATUS ");
    const bool drain = line == "DRAINING" || line == "DRAINED";
    if (err) ++log_.err_replies;
    if (!(queued || err || ok || status || drain) || conn.pending.empty()) {
      return;  // HELLO, DECISION, BYE: informational.
    }
    const PendingReply pending = conn.pending.front();
    if (line == "DRAINING") return;  // DRAINED follows on the same request.
    conn.pending.pop_front();
    if (pending.kind == PendingReply::Kind::kStatus) {
      log_.status_rtts.push_back(now - pending.sent);
      if (spans_ != nullptr) {
        spans_->Add("status_rtt", log_.origin + pending.sent,
                    log_.origin + now);
      }
      return;
    }
    if (pending.kind != PendingReply::Kind::kSubmit) return;
    RequestRecord& r = log_.requests[static_cast<size_t>(pending.index)];
    if (err) {
      r.err = true;
      Answered(pending.index, now);
      return;
    }
    r.queued = now;
    r.id = IdField(line);
    if (r.id >= 0) {
      if (by_id_.size() <= static_cast<size_t>(r.id)) {
        by_id_.resize(static_cast<size_t>(r.id) + 1, -1);
      }
      by_id_[static_cast<size_t>(r.id)] = pending.index;
    }
    const double cancel_after =
        cancel_after_[static_cast<size_t>(pending.index)];
    if (cancel_after >= 0.0) {
      cancels_.push({std::max(now, r.start + cancel_after), pending.index});
    }
  }

  std::vector<std::unique_ptr<ClientConn>> conns_;
  int data_conns_ = 1;
  bool status_probe_ = false;
  SpanLog* spans_;
  ClientLog log_;
  std::vector<double> cancel_after_;
  /// Server request id -> index into log_.requests.
  std::vector<int> by_id_;
  size_t answered_ = 0;
  /// Session times of answers not yet turned into closed-loop sends.
  std::deque<double> released_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>,
                      std::greater<std::pair<double, int>>>
      cancels_;
  double next_status_ = 0.0;
  double last_progress_ = 0.0;
  /// Session time of the last request-traffic line received.
  double last_rx_ = 0.0;
};

// ---- One live session ----

struct SessionResult {
  ClientLog client;
  ServingReport report;
  bool drained = false;
  std::vector<double> setup_s;
  std::vector<double> create_s;
  /// Driver thread: CPU and wall of the live Serve() call.
  double serve_cpu_s = 0.0;
  double serve_wall_s = 0.0;
  /// Resident set once the session drained (the state the server keeps
  /// for what it served), and the process peak so far.
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  /// Resident set before the set-up, once the previous session is freed.
  double rss_start_mb = 0.0;
  /// CPU time the server's threads (every thread but the client's) spent
  /// over the session.
  double server_cpu_s = 0.0;
  std::string record_path;
};

SessionResult RunSession(const ServeInputs& inputs, const ServeConfig& config,
                         const std::vector<WireRequest>& schedule,
                         double seconds, const std::string& record_path,
                         SpanLog* spans) {
  SessionResult session;
  session.record_path = record_path;
  // Hand the previous session's freed heap back to the kernel, so that
  // rss_mb measures this session's server alone.
  ::malloc_trim(0);
  session.rss_start_mb = RssMb();
  std::unique_ptr<CaqeServer> server;
  std::unique_ptr<caqe::net::NetServer> net;
  caqe::net::NetServerOptions net_options;
  net_options.record_path = record_path;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    net.reset();
    server.reset();
    const double t0 = WallNow();
    server = CreateServer(inputs);
    const double created = WallNow();
    net = caqe::net::NetServer::Create(server.get(), net_options).value();
    const int fd = ConnectLoopback(net->port());
    CAQE_CHECK(fd >= 0);
    const double accepted = WallNow();
    ::close(fd);
    session.create_s.push_back(created - t0);
    session.setup_s.push_back(accepted - t0);
    if (spans != nullptr) spans->Add("setup", t0, accepted);
  }

  const double process_cpu0 = ProcessCpuNow();
  const double client_cpu0 = ThreadCpuNow();
  caqe::Status serve_status;
  std::thread driver([&] {
    const double cpu0 = ThreadCpuNow();
    const double wall0 = WallNow();
    serve_status = net->Serve();
    session.serve_cpu_s = ThreadCpuNow() - cpu0;
    session.serve_wall_s = WallNow() - wall0;
  });
  {
    Client client(net->port(), config.connections, spans != nullptr, spans);
    if (config.rate > 0.0) {
      client.RunOpenLoop(schedule, seconds);
    } else {
      client.RunClosedLoop(schedule, config.window, seconds);
    }
    if (client.log().stalled) {
      net->RequestStop();
    } else {
      client.Drain();
    }
    session.client = std::move(client.log());
  }
  driver.join();
  session.server_cpu_s = (ProcessCpuNow() - process_cpu0) -
                         (ThreadCpuNow() - client_cpu0);
  session.rss_mb = RssMb();
  session.peak_rss_mb = PeakRssMb();
  session.drained = serve_status.ok() && net->drained();
  if (session.drained) session.report = net->report();
  if (spans != nullptr) {
    spans->Add("serve", session.client.origin,
               session.client.origin + session.serve_wall_s);
  }
  return session;
}

/// Replays a recording through Submit()+Run() on a fresh server.
std::string ReplayReportText(const ServeInputs& inputs,
                             const caqe::net::SessionTrace& trace) {
  std::unique_ptr<CaqeServer> server = CreateServer(inputs);
  for (const caqe::net::SessionEvent& event : trace.events) {
    const double vtime = static_cast<double>(event.tq) * trace.quantum;
    if (event.command.kind == caqe::net::CommandKind::kSubmit) {
      const caqe::net::SubmitCommand& s = event.command.submit;
      server->Submit(s.query, s.contract, vtime, s.deadline_seconds);
    } else {
      CAQE_CHECK(server->Cancel(event.command.cancel_id, vtime).ok());
    }
  }
  return caqe::ServingReportText(server->Run().value());
}

/// Wire-level and replay checks of one session; returns the number of
/// operations that failed (ERR replies and requests never answered).
int64_t CheckSession(const ServeInputs& inputs, const SessionResult& session,
                     RunResult& result) {
  const ClientLog& log = session.client;
  int64_t failed = 0;
  if (log.stalled) result.Fail("session stalled with requests unanswered");
  if (!session.drained) {
    result.Fail("server did not drain");
    return static_cast<int64_t>(log.requests.size());
  }
  const ServingReport& report = session.report;
  int64_t queued = 0;
  for (const RequestRecord& r : log.requests) {
    if (r.err) {
      ++failed;
      continue;
    }
    if (r.id < 0 || r.dones == 0) {
      ++failed;
      result.Fail("request never answered");
      continue;
    }
    ++queued;
    if (r.dones != 1) {
      result.Fail("request " + std::to_string(r.id) + " got " +
                  std::to_string(r.dones) + " DONE lines");
    }
    if (static_cast<size_t>(r.id) >= report.requests.size()) {
      result.Fail("QUEUED id " + std::to_string(r.id) + " not in the report");
      continue;
    }
    const caqe::RequestReport& rr = report.requests[static_cast<size_t>(r.id)];
    if (rr.results != r.results) {
      result.Fail("request " + std::to_string(r.id) + ": " +
                  std::to_string(r.results) + " RESULT lines, report says " +
                  std::to_string(rr.results));
    }
    if (r.status != caqe::RequestStatusName(rr.status)) {
      result.Fail("request " + std::to_string(r.id) + ": DONE " + r.status +
                  ", report says " + caqe::RequestStatusName(rr.status));
    }
  }
  if (queued != report.submitted) {
    result.Fail("QUEUED replies (" + std::to_string(queued) +
                ") differ from the report's submitted count (" +
                std::to_string(report.submitted) + ")");
  }
  caqe::Result<caqe::net::SessionTrace> trace =
      caqe::net::LoadSessionTrace(session.record_path);
  if (!trace.ok()) {
    result.Fail("recording unreadable: " + trace.status().message());
  } else {
    const std::string live = caqe::ServingReportText(report);
    const double replay_start = WallNow();
    const std::string replay = ReplayReportText(inputs, *trace);
    std::printf("check: Submit()+Run() replay of %zu events took %.4f s "
                "(live Serve() %.4f s)\n",
                trace->events.size(), WallNow() - replay_start,
                session.serve_wall_s);
    if (replay != live) {
      // Keep both texts beside the recording so the divergence can be read.
      std::ofstream(session.record_path + ".live.txt") << live;
      std::ofstream(session.record_path + ".replay.txt") << replay;
      result.Fail("live report differs from the Submit()+Run() replay of " +
                  session.record_path + " (see .live.txt / .replay.txt)");
    }
  }
  return failed;
}

// ---- Timed replay (traced run) ----

struct ReplayTiming {
  ServingReport report;
  std::vector<double> submit_s;
  std::vector<double> step_s;
  double finish_s = 0.0;
  /// Driver (this thread) CPU over the StepLive loop and FinishLive.
  double cpu_s = 0.0;
  double engine_s = 0.0;
};

ReplayTiming TimedReplay(const ServeInputs& inputs,
                         const caqe::net::SessionTrace& trace,
                         SpanLog& spans) {
  ReplayTiming timing;
  std::unique_ptr<CaqeServer> server = CreateServer(inputs);
  CAQE_CHECK(server->BeginLive().ok());
  const int64_t submit_span = spans.Begin("replay_submit");
  for (const caqe::net::SessionEvent& event : trace.events) {
    const double vtime = static_cast<double>(event.tq) * trace.quantum;
    const double t0 = WallNow();
    if (event.command.kind == caqe::net::CommandKind::kSubmit) {
      const caqe::net::SubmitCommand& s = event.command.submit;
      CAQE_CHECK(server->SubmitLive(s.query, s.contract, vtime,
                                    s.deadline_seconds)
                     .ok());
      timing.submit_s.push_back(WallNow() - t0);
    } else {
      CAQE_CHECK(server->CancelLive(event.command.cancel_id, vtime).ok());
    }
  }
  spans.End(submit_span);
  const int64_t engine_span = spans.Begin("replay_engine");
  const double cpu0 = ThreadCpuNow();
  while (true) {
    const double t0 = WallNow();
    const bool more = server->StepLive();
    const double t1 = WallNow();
    if (!more) break;
    timing.step_s.push_back(t1 - t0);
    spans.Add("step_live", t0, t1, engine_span);
  }
  const double f0 = WallNow();
  timing.report = server->FinishLive().value();
  timing.finish_s = WallNow() - f0;
  spans.Add("finish_live", f0, f0 + timing.finish_s, engine_span);
  timing.cpu_s = ThreadCpuNow() - cpu0;
  spans.End(engine_span);
  for (const double s : timing.step_s) timing.engine_s += s;
  timing.engine_s += timing.finish_s;
  return timing;
}

/// Mean ParseCommand time over the recorded command lines, microseconds.
double ParseMicrosPerLine(const std::string& record_path) {
  std::ifstream in(record_path);
  std::vector<std::string> commands;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AT ", 0) != 0) continue;
    const size_t space = line.find(' ', 3);
    if (space != std::string::npos) commands.push_back(line.substr(space + 1));
  }
  if (commands.empty()) return 0.0;
  const caqe::net::ProtocolLimits limits;
  int ok = 0;
  const double t0 = WallNow();
  for (const std::string& command : commands) {
    ok += caqe::net::ParseCommand(command, limits).ok() ? 1 : 0;
  }
  const double elapsed = WallNow() - t0;
  CAQE_CHECK(ok == static_cast<int>(commands.size()));
  return 1e6 * elapsed / static_cast<double>(commands.size());
}

// ---- End-to-end metrics of a session ----

struct SessionSummary {
  std::vector<double> ttfr;
  std::vector<double> done;
  double makespan = 0.0;
  int64_t sent = 0;
  int64_t cancelled = 0;
  int64_t completed = 0;
};

SessionSummary Summarize(const SessionResult& session) {
  SessionSummary summary;
  double first_send = -1.0;
  double last_done = 0.0;
  for (const RequestRecord& r : session.client.requests) {
    ++summary.sent;
    if (first_send < 0.0 || r.sent < first_send) first_send = r.sent;
    if (r.first_result >= 0.0) summary.ttfr.push_back(r.first_result - r.start);
    if (r.done >= 0.0) last_done = std::max(last_done, r.done);
    if (r.status == "cancelled") ++summary.cancelled;
    if (r.status == "completed") {
      ++summary.completed;
      summary.done.push_back(r.done - r.start);
    }
  }
  summary.makespan = last_done - std::max(0.0, first_send);
  return summary;
}

/// The paper's run-time satisfaction v(Q) (average utility per result),
/// averaged over the requests that received at least one result.
double MeanSatisfaction(const ServingReport& report) {
  double sum = 0.0;
  int64_t n = 0;
  for (const caqe::RequestReport& request : report.requests) {
    if (request.results == 0) continue;
    sum += request.satisfaction;
    ++n;
  }
  return Ratio(sum, static_cast<double>(n));
}

/// p99 of how late the generator sent its SUBMITs.
double LagP99(const ClientLog& log) {
  std::vector<double> sent;
  for (const RequestRecord& r : log.requests) sent.push_back(r.sent);
  return Percentile(Lateness(log.due, sent), 0.99);
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

}  // namespace

ServeConfig ServeChurnConfig() {
  ServeConfig config;
  config.name = "serve-churn";
  config.rows = 500;
  config.rate = 300.0;
  config.cancel_fraction = 0.1;
  config.cancel_window_s = 0.005;
  return config;
}

ServeConfig ServeHeavyConfig() {
  ServeConfig config;
  config.name = "serve-heavy";
  config.rows = 4000;
  config.table_seed = 1;
  config.window = 8;
  config.selection_fraction = 0.25;
  config.session_requests = 600;
  return config;
}

RunResult RunServe(const RunArgs& args, const ServeConfig& config) {
  RunResult result;
  CAQE_CHECK(EnsureDir(args.out_dir));
  const std::string stem =
      args.out_dir + "/" + config.name + "-" + std::to_string(args.seed);
  const ServeInputs inputs = MakeInputs(
      config, config.table_seed != 0 ? config.table_seed : args.seed);
  const double ref = ProbeVirtualSeconds(inputs);
  const bool sessions_repeat = config.session_requests > 0;
  const int max_sessions =
      std::max(config.min_sessions, static_cast<int>(args.seconds));
  std::vector<std::vector<WireRequest>> schedules;
  schedules.push_back(
      SessionSchedule(config, args.seed, 0, ref, args.seconds));

  const ServeOptions& o = inputs.options;
  std::printf(
      "provenance: %s\n",
      ProvenanceJson(
          args,
          {{"rows", std::to_string(config.rows)},
           {"join_selectivity",
            caqe::net::FormatExactDouble(config.join_selectivity)},
           {"loop", config.rate > 0.0 ? "open" : "closed"},
           {"rate_rps", caqe::net::FormatExactDouble(config.rate)},
           {"window", std::to_string(config.window)},
           {"session_requests", std::to_string(config.session_requests)},
           {"table_seed", config.table_seed != 0
                              ? std::to_string(config.table_seed)
                              : "the run's seed"},
           {"probe_vtime_s", caqe::net::FormatExactDouble(ref)},
           {"connections", std::to_string(config.connections)},
           {"num_threads", std::to_string(o.num_threads)},
           {"target_regions", std::to_string(o.target_regions)},
           {"max_active_queries", std::to_string(o.max_active_queries)},
           {"pipeline_regions", o.pipeline_regions ? "1" : "0"},
           {"coarse_index", o.coarse_index ? "1" : "0"},
           {"compact_layout", o.compact_layout ? "1" : "0"},
           {"join_index_cache_entries",
            std::to_string(o.join_index_cache_entries)},
           {"calibrate", o.calibrate ? "1" : "0"}})
          .c_str());

  // Timed run: untraced sessions (one for the open loop; repeated fixed-size
  // sessions for the closed loop). Traced run: the first of them as the
  // overhead baseline, then the same requests again, traced.
  std::vector<SessionResult> sessions;
  const double window_start = WallNow();
  do {
    const int k = static_cast<int>(sessions.size());
    if (k > 0) {
      schedules.push_back(
          SessionSchedule(config, args.seed, k, ref, args.seconds));
    }
    sessions.push_back(RunSession(inputs, config, schedules.back(),
                                  args.seconds,
                                  stem + ".session" + std::to_string(k),
                                  nullptr));
  } while (!args.trace && sessions_repeat &&
           static_cast<int>(sessions.size()) < max_sessions &&
           (static_cast<int>(sessions.size()) < config.min_sessions ||
            WallNow() - window_start < args.seconds));

  std::vector<SessionSummary> summaries;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> setup_s;
  std::vector<double> failed_ratios;
  for (const SessionResult& session : sessions) {
    const SessionSummary summary = Summarize(session);
    std::printf(
        "%s session %zu: sent=%lld completed=%lld cancelled=%lld "
        "rejected=%lld expired=%lld err=%lld quiet_releases=%lld "
        "makespan=%.3fs lag_p99=%.3fms rss=%.1fMB (from %.1fMB) "
        "server_cpu=%.3fs\n",
        config.name.c_str(), summaries.size(),
        static_cast<long long>(summary.sent),
        static_cast<long long>(summary.completed),
        static_cast<long long>(summary.cancelled),
        static_cast<long long>(session.report.rejected),
        static_cast<long long>(session.report.expired),
        static_cast<long long>(session.client.err_replies),
        static_cast<long long>(session.client.quiet_releases),
        summary.makespan, 1e3 * LagP99(session.client), session.rss_mb,
        session.rss_start_mb, session.server_cpu_s);
    const int64_t session_failed = CheckSession(inputs, session, result);
    if (config.rate > 0.0 && LagP99(session.client) > kMaxLagP99Seconds) {
      result.Fail("run invalid: open-loop generator lag p99 " +
                  std::to_string(1e3 * LagP99(session.client)) +
                  " ms exceeds " + std::to_string(1e3 * kMaxLagP99Seconds) +
                  " ms");
    }
    failed_ratios.push_back(
        Ratio(static_cast<double>(session.report.rejected +
                                  session.report.expired + session_failed),
              static_cast<double>(summary.sent - summary.cancelled)));
    std::printf(
        "failed_ratio (rejected + expired + ERR + unanswered) = %.6f\n",
        failed_ratios.back());
    attempted += summary.sent - summary.cancelled;
    failed += session_failed;
    setup_s.insert(setup_s.end(), session.setup_s.begin(),
                   session.setup_s.end());
    summaries.push_back(summary);
  }
  const SessionResult& session = sessions.front();
  const SessionSummary& summary = summaries.front();
  // Median over the sessions of a per-session figure.
  const auto median = [&](auto per_session) {
    std::vector<double> values;
    for (size_t i = 0; i < sessions.size(); ++i) {
      values.push_back(per_session(sessions[i], summaries[i]));
    }
    return Percentile(values, 0.5);
  };

  if (!args.trace) {
    result.attempted = std::max<int64_t>(1, attempted);
    result.failed = failed;
    // Wall-clock figures: printed, not bounded (see e2e.* of the traced
    // run). On a shared host they move with the neighbours' load.
    std::printf(
        "wall (median over sessions): done_p50_ms=%.4f goodput_rps=%.4f "
        "makespan_s=%.4f\n",
        median([](const SessionResult&, const SessionSummary& m) {
          return 1e3 * Percentile(m.done, 0.5);
        }),
        median([](const SessionResult&, const SessionSummary& m) {
          return Ratio(static_cast<double>(m.completed), m.makespan);
        }),
        median([](const SessionResult&, const SessionSummary& m) {
          return m.makespan;
        }));
    result.Set("setup_s", Percentile(setup_s, 0.5));
    result.Set("cpu_ms_per_req",
               median([](const SessionResult& r, const SessionSummary& m) {
                 return 1e3 * Ratio(r.server_cpu_s,
                                    static_cast<double>(m.completed));
               }));
    result.Set("served_ratio",
               median([](const SessionResult&, const SessionSummary& m) {
                 return Ratio(static_cast<double>(m.completed),
                              static_cast<double>(m.sent - m.cancelled));
               }));
    result.Set("satisfaction",
               median([](const SessionResult& r, const SessionSummary&) {
                 return MeanSatisfaction(r.report);
               }));
    // Growth over the session: heap the earlier sessions fragmented stays
    // resident, so the absolute figure would climb with the session count.
    result.Set("rss_mb",
               median([](const SessionResult& r, const SessionSummary&) {
                 return r.rss_mb - r.rss_start_mb;
               }));
    std::printf("samples: sessions=%zu ttfr=%zu done=%zu (first session)\n",
                sessions.size(), summary.ttfr.size(), summary.done.size());
    return result;
  }

  // ---- Traced session, timed replay, layer table. ----
  SpanLog spans;
  const SessionResult traced =
      RunSession(inputs, config, schedules.front(), args.seconds,
                 stem + ".traced.session", &spans);
  const SessionSummary traced_summary = Summarize(traced);
  failed += CheckSession(inputs, traced, result);
  const int64_t traced_attempted =
      traced_summary.sent - traced_summary.cancelled;
  result.attempted = std::max<int64_t>(1, attempted + traced_attempted);
  result.failed = failed;

  caqe::Result<caqe::net::SessionTrace> trace =
      caqe::net::LoadSessionTrace(traced.record_path);
  if (!trace.ok()) {
    result.Fail("traced recording unreadable");
    return result;
  }
  const ReplayTiming replay = TimedReplay(inputs, *trace, spans);
  if (caqe::ServingReportText(replay.report) !=
      caqe::ServingReportText(traced.report)) {
    result.Fail("timed StepLive replay differs from the live report");
  }
  const ServingReport& report = replay.report;
  const caqe::EngineStats& s = report.stats;
  const double exec_s =
      s.wall_join_seconds + s.wall_eval_seconds + s.wall_discard_seconds;
  const double control_s = replay.engine_s - exec_s;
  const double front_door_s = traced.serve_cpu_s - replay.cpu_s;

  LayerTable table;
  table.total_name = "serve";
  table.total_s = traced.serve_wall_s;
  table.rows = {{"exec.join_s", s.wall_join_seconds},
                {"exec.eval_s", s.wall_eval_seconds},
                {"exec.discard_s", s.wall_discard_seconds},
                {"serve.control_s", control_s},
                {"net.front_door_s", front_door_s}};
  std::printf("layer table (%s, live Serve() wall; residual = driver idle "
              "and unattributed):\n%s",
              config.name.c_str(), table.Render().c_str());

  // Partition and bootstrap region build, timed standalone: they run inside
  // CaqeServer::Create, so they load setup_s, not the session.
  double partition_s = 0.0;
  double region_build_s = 0.0;
  {
    caqe::ExecOptions exec;
    exec.target_regions = o.target_regions;
    caqe::Workload bootstrap;
    for (const caqe::MappingFunction& f : inputs.dims) {
      bootstrap.AddOutputDim(f);
    }
    for (const int key : inputs.keys) {
      bootstrap.AddQuery(caqe::SjQuery{"bootstrap", key, {0, 1, 2}, 1.0, {}});
    }
    std::unique_ptr<caqe::ThreadPool> pool;
    if (o.num_threads > 1) {
      pool = std::make_unique<caqe::ThreadPool>(o.num_threads - 1);
    }
    const double t0 = WallNow();
    const int target =
        caqe::AdaptiveTargetRegions(exec, *inputs.r, *inputs.t, bootstrap);
    const caqe::PartitionedTable part_r =
        caqe::PartitionForRegions(*inputs.r, exec, target, pool.get()).value();
    const caqe::PartitionedTable part_t =
        caqe::PartitionForRegions(*inputs.t, exec, target, pool.get()).value();
    const double t1 = WallNow();
    caqe::RegionBuildOptions build;
    build.pool = pool.get();
    const caqe::RegionCollection rc =
        caqe::BuildRegions(part_r, part_t, bootstrap, build).value();
    const double t2 = WallNow();
    partition_s = t1 - t0;
    region_build_s = t2 - t1;
    spans.Add("partition_standalone", t0, t1);
    spans.Add("region_build_standalone", t1, t2);
    CAQE_CHECK(!rc.regions.empty());
  }

  const double parse_us = ParseMicrosPerLine(traced.record_path);
  int64_t deferrals = 0;
  int64_t parked_dropped = 0;
  for (const caqe::RequestReport& rr : report.requests) {
    deferrals += rr.defers;
    parked_dropped += rr.parked_dropped;
  }
  const double base_latency = Percentile(summary.done, 0.5);
  const double traced_latency = Percentile(traced_summary.done, 0.5);
  const double overhead_pct =
      100.0 * Ratio(traced_latency - base_latency, base_latency);
  std::printf("trace overhead: done p50 %.4f ms traced vs %.4f ms "
              "untraced (%.2f%%); replay steps=%zu engine=%.4fs driver cpu "
              "live=%.4fs replay=%.4fs\n",
              1e3 * traced_latency, 1e3 * base_latency, overhead_pct,
              replay.step_s.size(), replay.engine_s, traced.serve_cpu_s,
              replay.cpu_s);

  const double step_tail =
      TailLevel(static_cast<int64_t>(replay.step_s.size()));
  const double rtt_tail =
      TailLevel(static_cast<int64_t>(traced.client.status_rtts.size()));
  result.Set("net.status_rtt_p50_ms",
             1e3 * Percentile(traced.client.status_rtts, 0.5));
  result.Set("net.status_rtt_tail_ms",
             1e3 * Percentile(traced.client.status_rtts, rtt_tail));
  result.Set("net.front_door_s", front_door_s);
  result.Set("net.parse_us_per_line", parse_us);
  result.Set("net.bytes_per_result",
             Ratio(static_cast<double>(traced.client.bytes_in),
                   static_cast<double>(traced.client.result_lines)));
  result.Set("net.result_lines",
             static_cast<double>(traced.client.result_lines));
  result.Set("net.err_replies", static_cast<double>(traced.client.err_replies));
  result.Set("serve.create_s", Percentile(traced.create_s, 0.5));
  result.Set("serve.submit_us", 1e6 * Mean(replay.submit_s));
  result.Set("serve.steps", static_cast<double>(replay.step_s.size()));
  result.Set("serve.step_us_p50", 1e6 * Percentile(replay.step_s, 0.5));
  result.Set("serve.step_us_tail", 1e6 * Percentile(replay.step_s, step_tail));
  result.Set("serve.engine_s", replay.engine_s);
  result.Set("serve.control_s", control_s);
  result.Set("serve.control_ops", static_cast<double>(report.control_ops));
  result.Set("serve.admitted", static_cast<double>(report.admitted));
  result.Set("serve.rejected", static_cast<double>(report.rejected));
  result.Set("serve.deferrals", static_cast<double>(deferrals));
  result.Set("serve.expired", static_cast<double>(report.expired));
  result.Set("serve.cancelled", static_cast<double>(report.cancelled));
  result.Set("serve.completed", static_cast<double>(report.completed));
  result.Set("serve.admit_precision",
             Ratio(static_cast<double>(report.completed),
                   static_cast<double>(report.admitted)));
  result.Set("serve.parked_dropped", static_cast<double>(parked_dropped));
  SetEngineMetrics(s, result);
  result.Set("partition.wall_s", partition_s);
  result.Set("region.build_s", region_build_s);
  // Wall-clock end-to-end figures, too unsteady between runs on a shared
  // 4-vCPU host to carry a bound, taken from the untraced session of this
  // run. The peak steps with the tuple store's geometric growth: a run that
  // crosses one more doubling reads twice as high.
  result.Set("e2e.done_p50_ms", 1e3 * Percentile(summary.done, 0.5));
  result.Set("e2e.goodput_rps",
             Ratio(static_cast<double>(summary.completed), summary.makespan));
  result.Set("e2e.makespan_s", summary.makespan);
  result.Set("e2e.ttfr_p50_ms", 1e3 * Percentile(summary.ttfr, 0.5));
  result.Set("e2e.peak_rss_mb", session.peak_rss_mb);
  result.Set("e2e.ttfr_tail_ms",
             1e3 * Percentile(summary.ttfr, kTailLevel));
  result.Set("e2e.done_tail_ms",
             1e3 * Percentile(summary.done, kTailLevel));
  result.Set("e2e.pscore_per_req",
             Ratio(session.report.cumulative_pscore,
                   static_cast<double>(session.report.submitted)));
  result.Set("e2e.failed_ratio", failed_ratios.front());
  result.Set("gen.lag_p99_ms",
             1e3 * LagP99(traced.client));
  result.Set("trace.overhead_pct", overhead_pct);
  result.Set("residual_s", table.residual());
  result.Set("table.total_s", table.total_s);

  if (!spans.WriteJsonl(stem + ".spans.jsonl")) {
    std::fprintf(stderr, "warning: could not write %s.spans.jsonl\n",
                 stem.c_str());
  }
  return result;
}

}  // namespace perfbench
