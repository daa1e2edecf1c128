// Deterministic mutation fuzzer for the wire protocol (src/net/protocol.*)
// and the replay files it records (src/net/recorder.*).
//
// A tiny xorshift64-driven harness — not libFuzzer, so it runs as a plain
// ctest entry in every build — mutates a seed corpus of canonical
// SUBMIT/CONTRACT/control lines and hammers ParseCommand and LineBuffer
// with the results, then mutates the header and AT lines of a recorded
// session trace and loads each copy with LoadSessionTrace. The contract
// under test is the protocol's hardening promise (protocol.h): hostile
// bytes must produce a stable kebab-case error code — never a crash, an
// abort, an unbounded buffer, or a nondeterministic verdict.
// Sanitizer builds (scripts/run_tsan.sh, the ASan cells) upgrade "no
// crash" to "no UB".
//
// Three properties per mutated input:
//   1. ParseCommand returns; on error the message starts with one of the
//      documented stable codes.
//   2. Accepted SUBMITs round-trip: FormatSubmitCommand(parse(x))
//      re-parses to the identical command (canonical-form contract).
//   3. The whole run is a pure function of the fuzz seed: two passes over
//      the same stream produce byte-identical outcome digests (the
//      determinism half of the hardening promise).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/recorder.h"

namespace caqe {
namespace net {
namespace {

constexpr const char* kStableCodes[] = {
    "bad-command",     "bad-field",     "missing-field", "duplicate-field",
    "bad-byte",        "line-too-long", "bad-contract",
};

bool StartsWithStableCode(const std::string& message) {
  for (const char* code : kStableCodes) {
    if (message.rfind(code, 0) == 0) return true;
  }
  return false;
}

uint64_t XorShift(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Canonical, well-formed lines the mutator starts from: every verb, every
/// Table 2 contract class, selections, deadlines, ids.
std::vector<std::string> SeedCorpus() {
  return {
      "SUBMIT name=q0 key=0 pref=0,1 priority=0.5 CONTRACT step:1.5",
      "SUBMIT id=3 name=a.b:c-d_e key=1 pref=2 deadline=0.25 "
      "sel=r:0:0.1:0.9 sel=t:2:-1:1 CONTRACT hybrid:0.5,0.1,0.2",
      "SUBMIT name=w key=2 pref=0,1,2 CONTRACT log:0.05",
      "SUBMIT name=h key=0 pref=1 CONTRACT hyper:0.5,0.1",
      "SUBMIT name=c key=0 pref=0 CONTRACT card:0.9,1",
      "SUBMIT name=r key=1 pref=0,2 CONTRACT rate:16,0.5",
      "STATUS",
      "CANCEL 7",
      "TRACE q0",
      "DRAIN",
      "STOP",
  };
}

/// One mutation round: flip/insert/delete/truncate/splice/duplicate.
std::string Mutate(std::string line, uint64_t& rng,
                   const std::vector<std::string>& corpus) {
  switch (XorShift(rng) % 7) {
    case 0: {  // flip one byte to an arbitrary value (NUL and >127 too)
      if (line.empty()) return line;
      line[XorShift(rng) % line.size()] =
          static_cast<char>(XorShift(rng) % 256);
      return line;
    }
    case 1: {  // insert an arbitrary byte
      const size_t at = line.empty() ? 0 : XorShift(rng) % (line.size() + 1);
      line.insert(line.begin() + static_cast<ptrdiff_t>(at),
                  static_cast<char>(XorShift(rng) % 256));
      return line;
    }
    case 2: {  // delete a span
      if (line.empty()) return line;
      const size_t at = XorShift(rng) % line.size();
      const size_t n = 1 + XorShift(rng) % 8;
      return line.erase(at, n);
    }
    case 3:  // truncate
      return line.substr(0, line.empty() ? 0 : XorShift(rng) % line.size());
    case 4: {  // splice the tail of another corpus line on
      const std::string& other = corpus[XorShift(rng) % corpus.size()];
      const size_t cut = other.empty() ? 0 : XorShift(rng) % other.size();
      return line + other.substr(cut);
    }
    case 5: {  // duplicate one whitespace-delimited token (field dup probe)
      const size_t space = line.find(' ', XorShift(rng) % (line.size() + 1));
      if (space == std::string::npos) return line + " " + line;
      const size_t end = line.find(' ', space + 1);
      const std::string token = line.substr(
          space, end == std::string::npos ? std::string::npos : end - space);
      return line + token;
    }
    default: {  // blow past the line cap occasionally
      if (XorShift(rng) % 8 == 0) {
        return line + std::string(70000, 'x');
      }
      return line + std::string(1 + XorShift(rng) % 32,
                                static_cast<char>('a' + XorShift(rng) % 26));
    }
  }
}

/// FNV-1a over one iteration's observable outcome.
void DigestOutcome(uint64_t& digest, const std::string& outcome) {
  for (const char c : outcome) {
    digest ^= static_cast<unsigned char>(c);
    digest *= 1099511628211ull;
  }
}

/// Runs the full fuzz stream once; returns the outcome digest. Asserts the
/// stable-code and round-trip properties along the way.
uint64_t FuzzParseCommandOnce(uint64_t seed, int iterations) {
  const std::vector<std::string> corpus = SeedCorpus();
  const ProtocolLimits limits;
  uint64_t rng = seed;
  uint64_t digest = 14695981039346656037ull;
  for (int i = 0; i < iterations; ++i) {
    std::string line = corpus[XorShift(rng) % corpus.size()];
    const int rounds = 1 + static_cast<int>(XorShift(rng) % 4);
    for (int m = 0; m < rounds; ++m) line = Mutate(line, rng, corpus);

    const Result<Command> result = ParseCommand(line, limits);
    if (!result.ok()) {
      EXPECT_TRUE(StartsWithStableCode(result.status().message()))
          << "unstable error code for input: " << line << " -> "
          << result.status().message();
      DigestOutcome(digest, "E:" + result.status().message());
      continue;
    }
    DigestOutcome(digest, "K:" + std::to_string(static_cast<int>(
                              result->kind)));
    if (result->kind != CommandKind::kSubmit) continue;

    // Canonical-form round trip: format(parse(x)) re-parses identically.
    const SubmitCommand& submit = result->submit;
    const std::string canonical =
        FormatSubmitCommand(submit.query, submit.contract_canonical,
                            submit.deadline_seconds, submit.trace_id);
    const Result<Command> reparsed = ParseCommand(canonical, limits);
    EXPECT_TRUE(reparsed.ok())
        << "canonical form rejected: " << canonical << " -> "
        << reparsed.status().message() << " (from fuzz input: " << line
        << ")";
    if (!reparsed.ok()) continue;
    const SubmitCommand& again = reparsed->submit;
    EXPECT_EQ(again.query.name, submit.query.name);
    EXPECT_EQ(again.query.join_key, submit.query.join_key);
    EXPECT_EQ(again.query.preference, submit.query.preference);
    EXPECT_EQ(again.query.priority, submit.query.priority);
    EXPECT_EQ(again.query.selections.size(), submit.query.selections.size());
    EXPECT_EQ(again.deadline_seconds, submit.deadline_seconds);
    EXPECT_EQ(again.trace_id, submit.trace_id);
    EXPECT_EQ(again.contract_canonical, submit.contract_canonical);
    DigestOutcome(digest, canonical);
  }
  return digest;
}

TEST(NetFuzzTest, ParseCommandSurvivesMutatedCorpus) {
  FuzzParseCommandOnce(0x243f6a8885a308d3ull, 20000);
}

// Same seed, same stream, same verdicts: parsing is a pure function of the
// bytes, with no hidden state between calls.
TEST(NetFuzzTest, FuzzStreamIsDeterministic) {
  const uint64_t a = FuzzParseCommandOnce(0x13198a2e03707344ull, 5000);
  const uint64_t b = FuzzParseCommandOnce(0x13198a2e03707344ull, 5000);
  EXPECT_EQ(a, b);
}

/// The lines of a session trace as SessionRecorder writes one to `path`: a
/// data-shape header, then submits (one with a deadline and a selection)
/// and a cancel.
std::vector<std::string> RecordSessionTrace(const std::string& path) {
  {
    std::unique_ptr<SessionRecorder> recorder =
        SessionRecorder::Open(path, 1e-6,
                              {{"rows", "400"},
                               {"sel", "0.02"},
                               {"seed", "2014"},
                               {"target_regions", "64"},
                               {"policy", "contract"},
                               {"admit_all", "0"},
                               {"calibrate", "0"}})
            .value();
    recorder->RecordSubmit(3, 0, SjQuery{"m0", 0, {0, 1}, 1.0, {}}, "step:5",
                           0.0);
    recorder->RecordSubmit(
        7, 1, SjQuery{"m1", 1, {1, 2}, 0.5, {{true, 0, 0.2, 0.9}}},
        "hyper:0.01,0.05", 30.0);
    recorder->RecordCancel(9, 1);
    recorder->RecordSubmit(12, 2, SjQuery{"m2", 0, {0, 2}, 1.0, {}},
                           "card:0.9,1", 0.0);
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Loads `iterations` mutants of a recorded trace, each written to a temp
/// file after one to three mutation rounds on its header or AT lines;
/// returns the outcome digest. Asserts that every load either succeeds or
/// fails with a stable code.
uint64_t FuzzLoadSessionTraceOnce(uint64_t seed, int iterations) {
  const std::string path = ::testing::TempDir() + "/caqe_fuzz_session.trace";
  const std::vector<std::string> lines = RecordSessionTrace(path);
  EXPECT_EQ(lines.size(), 5u);
  EXPECT_TRUE(LoadSessionTrace(path).ok());
  uint64_t rng = seed;
  uint64_t digest = 14695981039346656037ull;
  int header_mutants = 0;
  int at_mutants = 0;
  int loaded = 0;
  for (int i = 0; i < iterations; ++i) {
    std::vector<std::string> mutant = lines;
    const int rounds = 1 + static_cast<int>(XorShift(rng) % 3);
    for (int m = 0; m < rounds; ++m) {
      const size_t at = XorShift(rng) % mutant.size();
      (at == 0 ? header_mutants : at_mutants) += 1;
      mutant[at] = Mutate(mutant[at], rng, lines);
    }
    std::string content;
    for (const std::string& line : mutant) content += line + "\n";
    std::FILE* file = std::fopen(path.c_str(), "wb");
    EXPECT_NE(file, nullptr);
    if (file == nullptr) break;
    std::fwrite(content.data(), 1, content.size(), file);
    std::fclose(file);

    const Result<SessionTrace> trace = LoadSessionTrace(path);
    if (!trace.ok()) {
      const std::string message = trace.status().message();
      EXPECT_TRUE(message.rfind("bad-header", 0) == 0 ||
                  message.rfind("bad-at-line", 0) == 0 ||
                  StartsWithStableCode(message))
          << "unstable error code for trace:\n"
          << content << " -> " << message;
      DigestOutcome(digest, "E:" + message);
      continue;
    }
    ++loaded;
    std::ostringstream outcome;
    outcome << "K:" << trace->attrs.size() << ":" << trace->events.size();
    for (const SessionEvent& event : trace->events) {
      outcome << ":" << event.tq << "/" << static_cast<int>(event.command.kind);
    }
    DigestOutcome(digest, outcome.str());
  }
  EXPECT_GT(header_mutants, 0);
  EXPECT_GT(at_mutants, 0);
  // Both verdicts occur: some mutants (say, a renamed query) still load.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, iterations);
  std::remove(path.c_str());
  return digest;
}

// Hostile replay files: a mutated header or AT line loads, or fails with a
// stable code, and the same seed gives the same verdicts.
TEST(NetFuzzTest, LoadSessionTraceSurvivesMutatedTraces) {
  const uint64_t a = FuzzLoadSessionTraceOnce(0x452821e638d01377ull, 2000);
  const uint64_t b = FuzzLoadSessionTraceOnce(0x452821e638d01377ull, 2000);
  EXPECT_EQ(a, b);
}

// LineBuffer under adversarial chunking: random split points (mid-token,
// mid-CRLF), interleaved oversized lines, garbage bytes. The buffer must
// never grow past cap + one chunk, must report each oversized line's
// overflow exactly once, and must pop the identical line sequence when the
// same bytes arrive under a different chunking.
TEST(NetFuzzTest, LineBufferSurvivesAdversarialChunking) {
  uint64_t rng = 0xa4093822299f31d0ull;
  const std::vector<std::string> corpus = SeedCorpus();

  // Build one hostile byte stream: mutated lines with mixed terminators
  // and a few cap-busting monsters.
  std::string stream;
  int oversized = 0;
  const size_t cap = 4096;
  for (int i = 0; i < 200; ++i) {
    std::string line = corpus[XorShift(rng) % corpus.size()];
    line = Mutate(line, rng, corpus);
    // Mutations may have introduced terminators mid-line; keep the ground
    // truth well-defined by stripping them.
    std::string clean;
    for (const char c : line) {
      if (c != '\n' && c != '\r') clean.push_back(c);
    }
    if (XorShift(rng) % 16 == 0) {
      clean.append(std::string(cap + 1 + XorShift(rng) % 512, 'z'));
    }
    if (clean.size() > cap) ++oversized;
    stream += clean;
    stream += (XorShift(rng) % 2 == 0) ? "\r\n" : "\n";
  }

  const auto drain = [&](LineBuffer& buffer, std::vector<std::string>& lines,
                         int& overflows) {
    std::string out;
    for (;;) {
      const LineBuffer::Pop pop = buffer.Next(out);
      if (pop == LineBuffer::Pop::kNeedMore) break;
      if (pop == LineBuffer::Pop::kOverflow) {
        ++overflows;
        continue;
      }
      lines.push_back(out);
    }
  };

  const auto run_chunked = [&](uint64_t chunk_seed) {
    LineBuffer buffer(cap);
    std::vector<std::string> lines;
    int overflows = 0;
    uint64_t chunk_rng = chunk_seed;
    size_t at = 0;
    while (at < stream.size()) {
      const size_t n =
          std::min(stream.size() - at, 1 + XorShift(chunk_rng) % 97);
      buffer.Append(stream.data() + at, n);
      at += n;
      EXPECT_LE(buffer.buffered(), cap + 97);
      drain(buffer, lines, overflows);
    }
    EXPECT_EQ(overflows, oversized);
    return lines;
  };

  const std::vector<std::string> one_byte_chunks = run_chunked(1);
  const std::vector<std::string> big_chunks = run_chunked(99991);
  EXPECT_EQ(one_byte_chunks, big_chunks);
  EXPECT_FALSE(one_byte_chunks.empty());
}

}  // namespace
}  // namespace net
}  // namespace caqe
