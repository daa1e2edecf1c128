// Hostile-input hardening tests for the wire protocol (src/net/protocol.h)
// and the session recorder (src/net/recorder.h). Every input here comes
// "off the socket": the contract is a stable error Status — never a crash
// (the suite runs under ASan via scripts' sanitizer builds).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/recorder.h"
#include "serve/serving.h"

namespace caqe {
namespace net {
namespace {

ProtocolLimits Limits() { return ProtocolLimits{}; }

Status ParseError(const std::string& line) {
  Result<Command> result = ParseCommand(line, Limits());
  EXPECT_FALSE(result.ok()) << "accepted: " << line;
  return result.status();
}

const std::string kGoodSubmit =
    "SUBMIT name=q0 key=0 pref=0,1 priority=0.5 CONTRACT step:1.5";

TEST(ParseCommandTest, AcceptsCanonicalSubmit) {
  Result<Command> result = ParseCommand(kGoodSubmit, Limits());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kind, CommandKind::kSubmit);
  const SubmitCommand& submit = result->submit;
  EXPECT_EQ(submit.query.name, "q0");
  EXPECT_EQ(submit.query.join_key, 0);
  EXPECT_EQ(submit.query.preference, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(submit.query.priority, 0.5);
  EXPECT_EQ(submit.trace_id, -1);
  EXPECT_NE(submit.contract, nullptr);
  EXPECT_EQ(submit.contract_canonical, "step:1.5");
}

TEST(ParseCommandTest, AcceptsSelectionsDeadlineAndId) {
  Result<Command> result = ParseCommand(
      "SUBMIT id=7 name=a.b:c-d_e key=1 pref=2 deadline=0.25 "
      "sel=r:0:0.1:0.9 sel=t:2:-1:1 CONTRACT hybrid:0.5,0.1,0.2",
      Limits());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SubmitCommand& submit = result->submit;
  EXPECT_EQ(submit.trace_id, 7);
  EXPECT_DOUBLE_EQ(submit.deadline_seconds, 0.25);
  ASSERT_EQ(submit.query.selections.size(), 2u);
  EXPECT_TRUE(submit.query.selections[0].on_r);
  EXPECT_FALSE(submit.query.selections[1].on_r);
  EXPECT_DOUBLE_EQ(submit.query.selections[1].lo, -1.0);
}

TEST(ParseCommandTest, SimpleVerbs) {
  EXPECT_EQ(ParseCommand("STATUS", Limits())->kind, CommandKind::kStatus);
  EXPECT_EQ(ParseCommand("DRAIN", Limits())->kind, CommandKind::kDrain);
  EXPECT_EQ(ParseCommand("STOP", Limits())->kind, CommandKind::kStop);
  Result<Command> cancel = ParseCommand("CANCEL 3", Limits());
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel->kind, CommandKind::kCancel);
  EXPECT_EQ(cancel->cancel_id, 3);
}

TEST(ParseCommandTest, TraceVerbParsesAndHardensAgainstHostileNames) {
  Result<Command> trace = ParseCommand("TRACE q0", Limits());
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->kind, CommandKind::kTrace);
  EXPECT_EQ(trace->trace_name, "q0");
  // Full name charset (same as SUBMIT name=).
  EXPECT_EQ(ParseCommand("TRACE a.b:c-d_e", Limits())->trace_name,
            "a.b:c-d_e");

  EXPECT_EQ(ParseError("TRACE").message(), "bad-command");
  EXPECT_EQ(ParseError("TRACE a b").message(), "bad-command");
  EXPECT_EQ(ParseError("TRACE q(0)").message(), "bad-field name");
  EXPECT_EQ(ParseError("TRACE " + std::string(129, 'a')).message(),
            "bad-field name");
  // An overlong hostile name must not be echoed back into the error: the
  // code stays the same constant-size string.
  EXPECT_EQ(ParseError("TRACE " + std::string(60000, 'a')).message(),
            "bad-field name");
  EXPECT_EQ(ParseError("TRACE q\x01").message(), "bad-byte");
  EXPECT_EQ(ParseError(std::string("TRACE q\x00z", 9)).message(),
            "bad-byte");
}

TEST(ParseCommandTest, StableErrorCodes) {
  EXPECT_EQ(ParseError("").message(), "bad-command");
  EXPECT_EQ(ParseError("FROBNICATE").message(), "bad-command");
  EXPECT_EQ(ParseError("STATUS now").message(), "bad-command");
  EXPECT_EQ(ParseError("CANCEL").message(), "bad-command");
  EXPECT_EQ(ParseError("CANCEL x").message(), "bad-field request-id");
  EXPECT_EQ(ParseError("CANCEL -1").message(), "bad-field request-id");
  EXPECT_EQ(ParseError("SUBMIT key=0 pref=0 CONTRACT step:1").message(),
            "missing-field name");
  EXPECT_EQ(ParseError("SUBMIT name=q pref=0 CONTRACT step:1").message(),
            "missing-field key");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 CONTRACT step:1").message(),
            "missing-field pref");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0").message(),
            "missing-field contract");
  EXPECT_EQ(
      ParseError("SUBMIT name=q name=r key=0 pref=0 CONTRACT step:1")
          .message(),
      "duplicate-field name");
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=0 pref=0 bogus=1 CONTRACT step:1")
          .message(),
      "bad-field bogus");
}

TEST(ParseCommandTest, RejectsHostileFieldValues) {
  // Truncated / malformed numerics.
  EXPECT_EQ(ParseError("SUBMIT name=q key= pref=0 CONTRACT step:1").message(),
            "bad-field key");
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=1e9 pref=0 CONTRACT step:1").message(),
      "bad-field key");
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=0 pref=0,0 CONTRACT step:1").message(),
      "bad-field pref");
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=0 pref=0, CONTRACT step:1").message(),
      "bad-field pref");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 priority=2 "
                       "CONTRACT step:1")
                .message(),
            "bad-field priority");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 priority=nan "
                       "CONTRACT step:1")
                .message(),
            "bad-field priority");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 deadline=-1 "
                       "CONTRACT step:1")
                .message(),
            "bad-field deadline");
  // Hostile name charset.
  EXPECT_EQ(
      ParseError("SUBMIT name=q;rm key=0 pref=0 CONTRACT step:1").message(),
      "bad-field name");
  // Selections: bad table tag, inverted range, wrong arity.
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 sel=x:0:0:1 "
                       "CONTRACT step:1")
                .message(),
            "bad-field sel");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 sel=r:0:2:1 "
                       "CONTRACT step:1")
                .message(),
            "bad-field sel");
  EXPECT_EQ(ParseError("SUBMIT name=q key=0 pref=0 sel=r:0:1 "
                       "CONTRACT step:1")
                .message(),
            "bad-field sel");
}

TEST(ParseCommandTest, RejectsNonPrintableBytes) {
  EXPECT_EQ(ParseError(std::string("STATUS\x01")).message(), "bad-byte");
  EXPECT_EQ(ParseError(std::string("STAT\0US", 7)).message(), "bad-byte");
  // Invalid UTF-8 (lone continuation byte) is also non-printable-ASCII.
  EXPECT_EQ(ParseError("SUBMIT name=q\x80 key=0 pref=0 CONTRACT step:1")
                .message(),
            "bad-byte");
}

TEST(ParseCommandTest, EnforcesCaps) {
  ProtocolLimits limits;
  limits.max_line_bytes = 64;
  const std::string long_line(65, 'A');
  EXPECT_EQ(ParseCommand(long_line, limits).status().message(),
            "line-too-long");

  // Name over the cap.
  std::string cmd = "SUBMIT name=" + std::string(Limits().max_name_bytes + 1, 'n') +
                    " key=0 pref=0 CONTRACT step:1";
  EXPECT_EQ(ParseError(cmd).message(), "bad-field name");

  // Too many preference dims.
  std::string pref = "0";
  for (int i = 1; i <= Limits().max_preference_dims; ++i) {
    pref += "," + std::to_string(i);
  }
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=0 pref=" + pref + " CONTRACT step:1")
          .message(),
      "bad-field pref");

  // Too many selections.
  std::string sels;
  for (int i = 0; i <= Limits().max_selections; ++i) {
    sels += " sel=r:0:0:1";
  }
  EXPECT_EQ(
      ParseError("SUBMIT name=q key=0 pref=0" + sels + " CONTRACT step:1")
          .message(),
      "bad-field sel");
}

TEST(ParseContractSpecTest, AllClassesAndErrors) {
  for (const char* spec :
       {"step:1", "log:0.5", "hyper:0.1,0.5", "card:0.5,0.2", "rate:10,0.1",
        "hybrid:0.5,0.2,0.1"}) {
    EXPECT_TRUE(ParseContractSpec(spec).ok()) << spec;
  }
  for (const char* spec :
       {"", "step", "step:", "step:0", "step:-1", "step:x", "step:inf",
        "card:1.5,1", "card:0,1", "rate:10", "hybrid:0.5,0.2",
        "unknown:1"}) {
    Result<Contract> result = ParseContractSpec(spec);
    ASSERT_FALSE(result.ok()) << spec;
    EXPECT_EQ(result.status().message(), "bad-contract") << spec;
  }
}

TEST(ParseContractSpecTest, CanonicalFormRoundTrips) {
  std::string canonical;
  ASSERT_TRUE(ParseContractSpec("step:1.5e0", &canonical).ok());
  EXPECT_EQ(canonical, "step:1.5");
  ASSERT_TRUE(ParseContractSpec("hybrid:0.5,0.1,0.2", &canonical).ok());
  std::string canonical2;
  ASSERT_TRUE(ParseContractSpec(canonical, &canonical2).ok());
  EXPECT_EQ(canonical, canonical2);
}

TEST(FormatSubmitCommandTest, RoundTripsExactly) {
  Result<Command> first = ParseCommand(
      "SUBMIT name=q key=1 pref=0,2 priority=0.3333333333333333 "
      "deadline=0.1 sel=r:1:0.25:0.75 CONTRACT hyper:0.01,0.07",
      Limits());
  ASSERT_TRUE(first.ok());
  const std::string canonical = FormatSubmitCommand(
      first->submit.query, first->submit.contract_canonical,
      first->submit.deadline_seconds, 4);
  Result<Command> second = ParseCommand(canonical, Limits());
  ASSERT_TRUE(second.ok()) << canonical;
  EXPECT_EQ(second->submit.trace_id, 4);
  EXPECT_EQ(second->submit.query.name, first->submit.query.name);
  EXPECT_EQ(second->submit.query.preference, first->submit.query.preference);
  // The doubles must survive the text round trip bit-for-bit.
  EXPECT_EQ(second->submit.query.priority, first->submit.query.priority);
  EXPECT_EQ(second->submit.deadline_seconds, first->submit.deadline_seconds);
  EXPECT_EQ(second->submit.query.selections[0].lo,
            first->submit.query.selections[0].lo);
  EXPECT_EQ(second->submit.contract_canonical,
            first->submit.contract_canonical);
  // Canonical form is a fixed point.
  EXPECT_EQ(FormatSubmitCommand(second->submit.query,
                                second->submit.contract_canonical,
                                second->submit.deadline_seconds, 4),
            canonical);
}

TEST(LineBufferTest, ReassemblesPartialReadsAcrossSegments) {
  LineBuffer buffer(64);
  const std::string wire = "STATUS\r\nCANCEL 1\nDRA";
  // Feed one byte at a time — the worst TCP segmentation.
  std::vector<std::string> lines;
  std::string line;
  for (char c : wire) {
    buffer.Append(&c, 1);
    while (buffer.Next(line) == LineBuffer::Pop::kLine) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "STATUS");  // \r stripped.
  EXPECT_EQ(lines[1], "CANCEL 1");
  EXPECT_EQ(buffer.buffered(), 3u);  // "DRA" awaits its terminator.
  buffer.Append("IN\n", 3);
  ASSERT_EQ(buffer.Next(line), LineBuffer::Pop::kLine);
  EXPECT_EQ(line, "DRAIN");
}

TEST(LineBufferTest, OverflowDiscardsAndResyncs) {
  LineBuffer buffer(8);
  std::string line;
  // A 100-byte un-terminated line: reported once, then silently discarded.
  const std::string big(100, 'x');
  buffer.Append(big.data(), big.size());
  EXPECT_EQ(buffer.Next(line), LineBuffer::Pop::kOverflow);
  EXPECT_EQ(buffer.Next(line), LineBuffer::Pop::kNeedMore);
  buffer.Append("yyy", 3);  // Still the same oversized line.
  EXPECT_EQ(buffer.Next(line), LineBuffer::Pop::kNeedMore);
  EXPECT_LE(buffer.buffered(), 8u);  // Discard mode keeps memory bounded.
  // Terminate the monster; the next line parses cleanly.
  buffer.Append("zzz\nDRAIN\n", 10);
  ASSERT_EQ(buffer.Next(line), LineBuffer::Pop::kLine);
  EXPECT_EQ(line, "DRAIN");
}

TEST(LineBufferTest, TerminatedOverLimitLineDroppedWhole) {
  LineBuffer buffer(4);
  std::string line;
  buffer.Append("toolong\nSTOP\n", 13);
  EXPECT_EQ(buffer.Next(line), LineBuffer::Pop::kOverflow);
  ASSERT_EQ(buffer.Next(line), LineBuffer::Pop::kLine);
  EXPECT_EQ(line, "STOP");
}

TEST(ArrivalQuantizerTest, StrictlyIncreasingAndMonotone) {
  ArrivalQuantizer quantizer(1e-6);
  const int64_t a = quantizer.Next(0.0);
  const int64_t b = quantizer.Next(0.0);  // Same instant: must advance.
  EXPECT_LT(a, b);
  const int64_t c = quantizer.Next(0.5);
  EXPECT_GT(c, b);
  EXPECT_GE(quantizer.TimeOf(c), 0.5);
  // A quantized time re-fed produces the next index, never a duplicate.
  const int64_t d = quantizer.Next(quantizer.TimeOf(c));
  EXPECT_EQ(d, c + 1);
}

TEST(HttpTest, RequestLineAndResponse) {
  EXPECT_TRUE(LooksLikeHttp("GET /metrics HTTP/1.1"));
  EXPECT_TRUE(LooksLikeHttp("HEAD / HTTP/1.0"));
  EXPECT_FALSE(LooksLikeHttp("SUBMIT name=q"));
  Result<HttpRequest> request = ParseHttpRequestLine("GET /healthz HTTP/1.0");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->method, "GET");
  EXPECT_EQ(request->path, "/healthz");
  EXPECT_FALSE(ParseHttpRequestLine("GET").ok());
  EXPECT_FALSE(ParseHttpRequestLine("GET metrics HTTP/1.1").ok());
  const std::string response = HttpResponse(200, "OK", "text/plain", "hi");
  EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 2), "hi");
}

TEST(SessionRecorderTest, RecordAndLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/caqe_session_rt.trace";
  {
    Result<std::unique_ptr<SessionRecorder>> recorder =
        SessionRecorder::Open(path, 1e-6, {{"rows", "100"}, {"seed", "7"}});
    ASSERT_TRUE(recorder.ok()) << recorder.status().ToString();
    SjQuery query{"q0", 0, {0, 1}, 0.75, {}};
    (*recorder)->RecordSubmit(10, 0, query, "step:0.5", 0.25);
    (*recorder)->RecordCancel(12, 0);
    (*recorder)->Close();
  }
  Result<SessionTrace> trace = LoadSessionTrace(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_DOUBLE_EQ(trace->quantum, 1e-6);
  EXPECT_EQ(trace->Attr("rows", ""), "100");
  EXPECT_EQ(trace->Attr("seed", ""), "7");
  EXPECT_EQ(trace->Attr("absent", "dflt"), "dflt");
  ASSERT_EQ(trace->events.size(), 2u);
  EXPECT_EQ(trace->events[0].tq, 10);
  EXPECT_EQ(trace->events[0].command.kind, CommandKind::kSubmit);
  EXPECT_EQ(trace->events[0].command.submit.trace_id, 0);
  EXPECT_DOUBLE_EQ(trace->events[0].command.submit.deadline_seconds, 0.25);
  EXPECT_EQ(trace->events[1].tq, 12);
  EXPECT_EQ(trace->events[1].command.kind, CommandKind::kCancel);
  EXPECT_EQ(trace->events[1].command.cancel_id, 0);
  std::remove(path.c_str());
}

TEST(SessionRecorderTest, LoadRejectsMalformedTraces) {
  const std::string path = ::testing::TempDir() + "/caqe_session_bad.trace";
  const auto write_and_load = [&](const std::string& content) -> Status {
    std::FILE* file = std::fopen(path.c_str(), "w");
    std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);
    return LoadSessionTrace(path).status();
  };
  EXPECT_EQ(write_and_load("").message(), "bad-header");
  EXPECT_EQ(write_and_load("BOGUS v9\n").message(), "bad-header");
  EXPECT_EQ(write_and_load("CAQE-SESSION v1\n").message(), "bad-header");
  EXPECT_EQ(write_and_load("CAQE-SESSION v1 quantum=0\n").message(),
            "bad-header");
  // A repeated key, data-shape or quantum, is ambiguous.
  EXPECT_EQ(
      write_and_load("CAQE-SESSION v1 quantum=1e-06 rows=400 rows=7\n")
          .message(),
      "bad-header");
  EXPECT_EQ(
      write_and_load("CAQE-SESSION v1 quantum=1e-06 quantum=0.5\n").message(),
      "bad-header");
  const std::string header = "CAQE-SESSION v1 quantum=1e-06\n";
  EXPECT_EQ(write_and_load(header + "SUBMIT name=q\n").message(),
            "bad-at-line");
  EXPECT_EQ(write_and_load(header + "AT x STATUS\n").message(),
            "bad-at-line");
  // Non-monotone tq.
  const std::string submit0 =
      "AT 5 SUBMIT id=0 name=q key=0 pref=0 CONTRACT step:1\n";
  const std::string submit_dup =
      "AT 5 SUBMIT id=1 name=q key=0 pref=0 CONTRACT step:1\n";
  EXPECT_EQ(write_and_load(header + submit0 + submit_dup).message(),
            "bad-at-line");
  // Sparse ids.
  EXPECT_EQ(write_and_load(header +
                           "AT 5 SUBMIT id=3 name=q key=0 pref=0 CONTRACT "
                           "step:1\n")
                .message(),
            "bad-at-line");
  // CANCEL of a never-submitted id.
  EXPECT_EQ(write_and_load(header + "AT 5 CANCEL 0\n").message(),
            "bad-at-line");
  // STATUS is not replayable.
  EXPECT_EQ(write_and_load(header + "AT 5 STATUS\n").message(),
            "bad-at-line");
  LoadSessionTrace("/nonexistent/caqe.trace").status();  // NotFound, no crash.
  std::remove(path.c_str());
}

}  // namespace
}  // namespace net
}  // namespace caqe
