// End-to-end tests of the wall-clock network front-end (src/net): a real
// loopback TCP session against NetServer, then a replay of the recorded
// trace that must reproduce the live serving report byte-for-byte — the
// record/replay determinism oracle. Also exercises the hostile-client
// hardening over the wire (stable ERR replies, overflow resync, idle
// timeout, connection cap).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "metrics/export.h"
#include "net/net_server.h"
#include "net/recorder.h"
#include "serve/server.h"
#include "serve/serving.h"
#include "test_util.h"

namespace caqe {
namespace net {
namespace {

std::pair<Table, Table> MakeServeTables(int num_keys, int64_t rows = 200,
                                        uint64_t seed = 11) {
  GeneratorConfig cfg;
  cfg.num_rows = rows;
  cfg.num_attrs = 3;
  cfg.join_selectivities.assign(num_keys, 0.05);
  cfg.distribution = Distribution::kIndependent;
  cfg.seed = seed;
  Table r = GenerateTable("R", cfg).value();
  cfg.seed = seed + 1;
  Table t = GenerateTable("T", cfg).value();
  return {std::move(r), std::move(t)};
}

std::vector<MappingFunction> ThreeDims() {
  return {MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
}

ServeOptions SmallServeOptions() {
  ServeOptions options;
  options.target_regions = 64;
  return options;
}

/// Minimal blocking loopback client. Reads accumulate into transcript().
class RawClient {
 public:
  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return fd_ >= 0; }
  bool closed_by_server() const { return closed_; }
  const std::string& transcript() const { return transcript_; }

  void Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  }

  void SendLine(const std::string& line) { Send(line + "\n"); }

  /// Reads until transcript() contains `token`, the server closes, or
  /// `timeout_ms` passes. Returns true iff the token arrived.
  bool ReadUntil(const std::string& token, int timeout_ms = 10000) {
    return ReadUntilCount(token, 1, timeout_ms);
  }

  /// ReadUntil for the `count`-th occurrence of `token` in transcript().
  bool ReadUntilCount(const std::string& token, int count,
                      int timeout_ms = 10000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (Occurrences(token) < count) {
      if (closed_) return false;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) return false;
      const int wait_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                now)
              .count());
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, wait_ms) <= 0) continue;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        closed_ = true;
        continue;
      }
      transcript_.append(buf, static_cast<size_t>(n));
    }
    return true;
  }

  /// Non-overlapping occurrences of `token` in transcript().
  int Occurrences(const std::string& token) const {
    int n = 0;
    for (size_t at = transcript_.find(token); at != std::string::npos;
         at = transcript_.find(token, at + token.size())) {
      ++n;
    }
    return n;
  }

  /// Reads until the server closes the connection (or timeout).
  void ReadToClose(int timeout_ms = 10000) {
    ReadUntil("\x01never\x01", timeout_ms);
  }

 private:
  int fd_ = -1;
  bool closed_ = false;
  std::string transcript_;
};

// The oracle: a live wall-clock session over loopback, recorded, then
// replayed through Submit()+Run() on the virtual clock. The serving report
// and every view of the contract event log — the exec event stream, the
// audit ledger (minus its wall-clock field) and the health timeline — must
// all be byte-identical.
TEST(NetE2eTest, RecordReplayByteIdentical) {
  const std::string trace_path =
      ::testing::TempDir() + "/caqe_e2e_session.trace";

  Observability live_obs;
  std::string live_report_text;
  {
    auto [r, t] = MakeServeTables(2, 200);
    ServeOptions serve_options = SmallServeOptions();
    serve_options.obs = &live_obs;
    auto server =
        CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0, 1},
                           serve_options)
            .value();

    NetServerOptions options;
    options.record_path = trace_path;
    options.record_attrs = {{"suite", "e2e"}};
    auto net = NetServer::Create(server.get(), std::move(options)).value();
    ASSERT_GT(net->port(), 0);

    Status serve_status;
    std::thread driver([&] { serve_status = net->Serve(); });

    RawClient client(net->port());
    ASSERT_TRUE(client.connected());
    client.SendLine(
        "SUBMIT name=q0 key=0 pref=0,1 CONTRACT step:5");
    ASSERT_TRUE(client.ReadUntil("QUEUED 0"));
    client.SendLine(
        "SUBMIT name=q1 key=1 pref=1,2 priority=0.5 deadline=30 "
        "CONTRACT hyper:0.01,0.05");
    ASSERT_TRUE(client.ReadUntil("QUEUED 1"));
    client.SendLine(
        "SUBMIT name=q2 key=0 pref=0,2 sel=r:0:0.2:0.9 CONTRACT card:0.9,1");
    ASSERT_TRUE(client.ReadUntil("QUEUED 2"));
    client.SendLine("CANCEL 1");
    client.SendLine("STATUS");
    ASSERT_TRUE(client.ReadUntil("STATUS vtime="));
    client.SendLine("DRAIN");
    client.ReadToClose();
    driver.join();

    ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
    ASSERT_TRUE(net->drained());
    live_report_text = ServingReportText(net->report());

    const std::string& transcript = client.transcript();
    EXPECT_NE(transcript.find("HELLO caqe/1 dims=3"), std::string::npos);
    EXPECT_NE(transcript.find("DECISION 0 "), std::string::npos);
    EXPECT_NE(transcript.find("DONE 0 "), std::string::npos);
    EXPECT_NE(transcript.find("DRAINED"), std::string::npos);
    EXPECT_NE(transcript.find("BYE"), std::string::npos);
    EXPECT_TRUE(client.closed_by_server());
  }

  // Replay on the virtual clock: same tables, the recorded arrival trace.
  Result<SessionTrace> trace = LoadSessionTrace(trace_path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->Attr("suite", ""), "e2e");
  ASSERT_GE(trace->events.size(), 3u);

  Observability replay_obs;
  auto [r, t] = MakeServeTables(2, 200);
  ServeOptions serve_options = SmallServeOptions();
  serve_options.obs = &replay_obs;
  auto replay =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0, 1},
                         serve_options)
          .value();
  for (const SessionEvent& event : trace->events) {
    const double at = static_cast<double>(event.tq) * trace->quantum;
    if (event.command.kind == CommandKind::kSubmit) {
      const SubmitCommand& submit = event.command.submit;
      const int id = replay->Submit(submit.query, submit.contract, at,
                                    submit.deadline_seconds);
      ASSERT_EQ(id, submit.trace_id);
    } else {
      ASSERT_EQ(event.command.kind, CommandKind::kCancel);
      ASSERT_TRUE(replay->Cancel(event.command.cancel_id, at).ok());
    }
  }
  Result<ServingReport> replay_report = replay->Run();
  ASSERT_TRUE(replay_report.ok()) << replay_report.status().ToString();

  EXPECT_EQ(live_report_text, ServingReportText(*replay_report))
      << "live and replayed serving reports must be byte-identical";
  const std::string live_exec = live_obs.events.ExecEventsJsonl();
  EXPECT_NE(live_exec.find("\"kind\":\"query_admitted\""),
            std::string::npos);
  EXPECT_EQ(live_exec, replay_obs.events.ExecEventsJsonl())
      << "live and replayed exec event streams must be byte-identical";
  const std::string live_ledger = live_obs.events.LedgerJsonl(false);
  EXPECT_NE(live_ledger.find("\"kind\":\"region_step\""), std::string::npos);
  EXPECT_EQ(live_ledger, replay_obs.events.LedgerJsonl(false))
      << "live and replayed audit ledgers must be byte-identical";
  const std::string live_health = live_obs.events.HealthJsonl();
  EXPECT_FALSE(live_health.empty());
  EXPECT_EQ(live_health, replay_obs.events.HealthJsonl())
      << "live and replayed health timelines must be byte-identical";

  std::remove(trace_path.c_str());
}

// Hostile clients over the wire: every malformed input earns a stable ERR
// reply on the same connection, and the session keeps working afterwards.
TEST(NetE2eTest, HostileClientsGetStableErrReplies) {
  auto [r, t] = MakeServeTables(1, 100);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();

  NetServerOptions options;
  options.limits.max_line_bytes = 128;
  auto net = NetServer::Create(server.get(), std::move(options)).value();
  Status serve_status;
  std::thread driver([&] { serve_status = net->Serve(); });

  RawClient client(net->port());
  ASSERT_TRUE(client.connected());
  client.SendLine("FROBNICATE");
  ASSERT_TRUE(client.ReadUntil("ERR bad-command"));
  // Oversized line: one ERR, then clean resync on the next line.
  client.SendLine(std::string(300, 'A'));
  ASSERT_TRUE(client.ReadUntil("ERR line-too-long"));
  client.SendLine("STATUS");
  ASSERT_TRUE(client.ReadUntil("STATUS vtime="));
  // Control byte.
  client.Send(std::string("STAT\x01US\n"));
  ASSERT_TRUE(client.ReadUntil("ERR bad-byte"));
  // Parses fine but the query shape is invalid for this server (preference
  // dimension 9 >= 3 output dims): rejected by validation, not a crash.
  client.SendLine("SUBMIT name=q key=0 pref=9 CONTRACT step:1");
  ASSERT_TRUE(client.ReadUntil("ERR bad-query"));
  // The parser accepts selection attributes up to 1023; validation bounds
  // them by the side's table width (3 attributes here), so admission never
  // reads past a leaf cell's bounds.
  client.SendLine("SUBMIT name=q key=0 pref=0 sel=r:500:0:1 CONTRACT step:1");
  ASSERT_TRUE(client.ReadUntilCount("ERR bad-query", 2));
  client.SendLine("SUBMIT name=q key=0 pref=0 sel=t:3:0:1 CONTRACT step:1");
  ASSERT_TRUE(client.ReadUntilCount("ERR bad-query", 3));
  // Out-of-range request id.
  client.SendLine("CANCEL 5");
  ASSERT_TRUE(client.ReadUntil("ERR bad-field request-id"));
  // Live clients must not pick their own ids.
  client.SendLine("SUBMIT id=3 name=q key=0 pref=0 CONTRACT step:1");
  ASSERT_TRUE(client.ReadUntil("ERR bad-field id"));
  // The connection survived all of it.
  client.SendLine("SUBMIT name=ok key=0 pref=0,1,2 CONTRACT step:5");
  ASSERT_TRUE(client.ReadUntil("QUEUED 0"));
  client.SendLine("DRAIN");
  client.ReadToClose();
  driver.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
  EXPECT_NE(client.transcript().find("DRAINED"), std::string::npos);
}

// A slow-loris connection (opens, then never sends a complete line) is
// closed once idle_timeout_ms passes.
TEST(NetE2eTest, IdleTimeoutClosesSlowLoris) {
  auto [r, t] = MakeServeTables(1, 100);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();

  NetServerOptions options;
  options.idle_timeout_ms = 100;
  auto net = NetServer::Create(server.get(), std::move(options)).value();
  Status serve_status;
  std::thread driver([&] { serve_status = net->Serve(); });

  RawClient loris(net->port());
  ASSERT_TRUE(loris.connected());
  loris.Send("SUB");  // A partial line, never completed.
  loris.ReadToClose(5000);
  EXPECT_TRUE(loris.closed_by_server());

  net->RequestDrain();
  driver.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
}

// Connections beyond max_connections get a stable refusal.
TEST(NetE2eTest, ConnectionCapRefusesExtraClients) {
  auto [r, t] = MakeServeTables(1, 100);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();

  NetServerOptions options;
  options.max_connections = 1;
  auto net = NetServer::Create(server.get(), std::move(options)).value();
  Status serve_status;
  std::thread driver([&] { serve_status = net->Serve(); });

  RawClient first(net->port());
  ASSERT_TRUE(first.connected());
  first.SendLine("STATUS");
  ASSERT_TRUE(first.ReadUntil("STATUS vtime="));

  RawClient second(net->port());
  ASSERT_TRUE(second.connected());
  second.ReadToClose(5000);
  EXPECT_NE(second.transcript().find("ERR too-many-connections"),
            std::string::npos);
  EXPECT_TRUE(second.closed_by_server());

  net->RequestDrain();
  driver.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
}

// GET /metrics and /healthz work over the same port as the line protocol.
TEST(NetE2eTest, HttpScrapeEndpoints) {
  auto [r, t] = MakeServeTables(1, 100);
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         SmallServeOptions())
          .value();

  Observability obs;
  NetServerOptions options;
  options.obs = &obs;
  auto net = NetServer::Create(server.get(), std::move(options)).value();
  Status serve_status;
  std::thread driver([&] { serve_status = net->Serve(); });

  {
    RawClient http(net->port());
    ASSERT_TRUE(http.connected());
    http.Send("GET /healthz HTTP/1.0\r\n\r\n");
    http.ReadToClose(5000);
    EXPECT_NE(http.transcript().find("HTTP/1.0 200"), std::string::npos);
  }
  {
    RawClient http(net->port());
    ASSERT_TRUE(http.connected());
    http.Send("GET /metrics HTTP/1.0\r\n\r\n");
    http.ReadToClose(5000);
    EXPECT_NE(http.transcript().find("caqe_net_connections_total"),
              std::string::npos);
  }
  {
    RawClient http(net->port());
    ASSERT_TRUE(http.connected());
    http.Send("GET /nope HTTP/1.0\r\n\r\n");
    http.ReadToClose(5000);
    EXPECT_NE(http.transcript().find("HTTP/1.0 404"), std::string::npos);
  }

  net->RequestDrain();
  driver.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
}

/// One HTTP GET against a lingering server; returns the full response.
std::string HttpGet(int port, const std::string& path) {
  RawClient http(port);
  if (!http.connected()) return "";
  http.Send("GET " + path + " HTTP/1.0\r\n\r\n");
  http.ReadToClose(5000);
  return http.transcript();
}

// The debug surface: /statusz, /tracez/<id>, /flightz, and the TRACE verb.
// Hostile request ids must earn stable kebab-case error bodies, and the
// span tree served for an admitted request must be causally connected.
TEST(NetE2eTest, IntrospectionEndpointsAndTraceVerb) {
  auto [r, t] = MakeServeTables(1, 100);
  Observability obs;
  ServeOptions serve_options = SmallServeOptions();
  serve_options.obs = &obs;  // Engine-side: spans + the audit ledger.
  auto server =
      CaqeServer::Create(std::move(r), std::move(t), ThreeDims(), {0},
                         serve_options)
          .value();

  NetServerOptions options;
  options.obs = &obs;
  options.linger_after_drain = true;
  auto net = NetServer::Create(server.get(), std::move(options)).value();
  Status serve_status;
  std::thread driver([&] { serve_status = net->Serve(); });

  RawClient client(net->port());
  ASSERT_TRUE(client.connected());
  client.SendLine("SUBMIT name=q0 key=0 pref=0,1 CONTRACT step:5");
  ASSERT_TRUE(client.ReadUntil("QUEUED 0"));
  client.SendLine("DRAIN");
  ASSERT_TRUE(client.ReadUntil("DRAINED"));

  // TRACE <name>: the audit-ledger tail, framed for script clients.
  client.SendLine("TRACE q0");
  ASSERT_TRUE(client.ReadUntil("TRACE-END"));
  const std::string& transcript = client.transcript();
  EXPECT_NE(transcript.find("TRACE 0 records="), std::string::npos);
  EXPECT_NE(transcript.find("\"kind\":\"arrival\""), std::string::npos);
  EXPECT_NE(transcript.find("\"kind\":\"decision\""), std::string::npos);
  EXPECT_NE(transcript.find("\"kind\":\"finish\""), std::string::npos);
  client.SendLine("TRACE nope");
  ASSERT_TRUE(client.ReadUntil("ERR unknown-request"));

  // /statusz: state + the request table row for q0.
  const std::string statusz = HttpGet(net->port(), "/statusz");
  EXPECT_NE(statusz.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(statusz.find("state: drained"), std::string::npos);
  EXPECT_NE(statusz.find("\n0 q0 "), std::string::npos);

  // /tracez/0: a connected causal tree. Every "parent" in the body must be
  // 0 or some "span" that also appears in the body — no orphaned children.
  const std::string tracez = HttpGet(net->port(), "/tracez/0");
  EXPECT_NE(tracez.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(tracez.find("\"request\":0"), std::string::npos);
  EXPECT_NE(tracez.find("\"name\":\"q0\""), std::string::npos);
  EXPECT_NE(tracez.find("\"records\":["), std::string::npos);
  EXPECT_EQ(tracez.find("\"root_span\":0,"), std::string::npos)
      << "admitted request must have a root span";
  const auto scan = [&tracez](const char* token) {
    std::vector<uint64_t> values;
    size_t pos = 0;
    while ((pos = tracez.find(token, pos)) != std::string::npos) {
      pos += std::strlen(token);
      uint64_t value = 0;
      while (pos < tracez.size() && tracez[pos] >= '0' &&
             tracez[pos] <= '9') {
        value = value * 10 + static_cast<uint64_t>(tracez[pos++] - '0');
      }
      values.push_back(value);
    }
    return values;
  };
  std::set<uint64_t> span_ids = {0};
  for (const uint64_t id : scan("\"span\":")) span_ids.insert(id);
  const std::vector<uint64_t> parent_ids = scan("\"parent\":");
  EXPECT_GT(span_ids.size(), 1u);
  ASSERT_FALSE(parent_ids.empty());
  for (const uint64_t parent : parent_ids) {
    EXPECT_NE(span_ids.count(parent), 0u) << "orphaned parent " << parent;
  }

  // Hostile /tracez inputs: stable error bodies, never a crash.
  const std::string non_numeric = HttpGet(net->port(), "/tracez/abc");
  EXPECT_NE(non_numeric.find("HTTP/1.0 400"), std::string::npos);
  EXPECT_NE(non_numeric.find("bad-request-id"), std::string::npos);
  const std::string overlong = HttpGet(net->port(), "/tracez/9999999999");
  EXPECT_NE(overlong.find("HTTP/1.0 400"), std::string::npos);
  const std::string bare = HttpGet(net->port(), "/tracez");
  EXPECT_NE(bare.find("HTTP/1.0 400"), std::string::npos);
  const std::string unknown = HttpGet(net->port(), "/tracez/57");
  EXPECT_NE(unknown.find("HTTP/1.0 404"), std::string::npos);
  EXPECT_NE(unknown.find("unknown-request-id"), std::string::npos);

  // /flightz: the always-on ring mirrored both spans and audit records.
  const std::string flightz = HttpGet(net->port(), "/flightz");
  EXPECT_NE(flightz.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(flightz.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(flightz.find("\"kind\":\"audit\""), std::string::npos);

  client.SendLine("STOP");
  client.ReadToClose();
  driver.join();
  ASSERT_TRUE(serve_status.ok()) << serve_status.ToString();
}

}  // namespace
}  // namespace net
}  // namespace caqe
