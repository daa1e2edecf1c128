#include "net/recorder.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/macros.h"

namespace caqe {
namespace net {

namespace {

constexpr char kHeaderMagic[] = "CAQE-SESSION v1";

bool TokenOk(const std::string& s) {
  if (s.empty()) return false;
  for (unsigned char c : s) {
    if (c <= 0x20 || c > 0x7e || c == '=') return false;
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<SessionRecorder>> SessionRecorder::Open(
    const std::string& path, double quantum,
    const std::vector<std::pair<std::string, std::string>>& attrs) {
  if (!(quantum > 0.0)) {
    return Status::InvalidArgument("session recorder: quantum must be > 0");
  }
  for (const auto& [key, value] : attrs) {
    if (key == "quantum" || !TokenOk(key) || !TokenOk(value)) {
      return Status::InvalidArgument("session recorder: bad attr '" + key +
                                     "'");
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::InvalidArgument("session recorder: cannot open '" + path +
                                   "': " + std::strerror(errno));
  }
  auto recorder = std::unique_ptr<SessionRecorder>(new SessionRecorder(file));
  std::string header = kHeaderMagic;
  header += " quantum=" + FormatExactDouble(quantum);
  for (const auto& [key, value] : attrs) {
    header += " " + key + "=" + value;
  }
  recorder->WriteLine(header);
  return recorder;
}

SessionRecorder::~SessionRecorder() { Close(); }

void SessionRecorder::WriteLine(const std::string& line) {
  CAQE_DCHECK(file_ != nullptr);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Eager flush: a killed server must leave a replayable prefix.
  std::fflush(file_);
}

void SessionRecorder::RecordSubmit(int64_t tq, int id, const SjQuery& query,
                                   const std::string& contract_canonical,
                                   double deadline_seconds) {
  WriteLine("AT " + std::to_string(tq) + " " +
            FormatSubmitCommand(query, contract_canonical, deadline_seconds,
                                id));
}

void SessionRecorder::RecordCancel(int64_t tq, int id) {
  WriteLine("AT " + std::to_string(tq) + " CANCEL " + std::to_string(id));
}

void SessionRecorder::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

std::string SessionTrace::Attr(const std::string& key,
                               const std::string& fallback) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return fallback;
}

Result<SessionTrace> LoadSessionTrace(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound("session trace: cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  std::string content;
  char chunk[4096];
  size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    content.append(chunk, n);
    if (content.size() > (64u << 20)) {
      std::fclose(file);
      return Status::InvalidArgument("session trace: file too large");
    }
  }
  std::fclose(file);

  SessionTrace trace;
  ProtocolLimits limits;
  LineBuffer lines(limits.max_line_bytes);
  lines.Append(content.data(), content.size());

  bool saw_header = false;
  bool saw_quantum = false;
  int next_submit_id = 0;
  int64_t last_tq = -1;
  std::string line;
  while (true) {
    const LineBuffer::Pop pop = lines.Next(line);
    if (pop == LineBuffer::Pop::kNeedMore) break;
    if (pop == LineBuffer::Pop::kOverflow) {
      return Status::InvalidArgument("line-too-long");
    }
    if (!saw_header) {
      if (line.rfind(kHeaderMagic, 0) != 0) {
        return Status::InvalidArgument("bad-header");
      }
      // Header attrs: space-separated key=value tokens after the magic.
      size_t i = std::strlen(kHeaderMagic);
      while (i < line.size()) {
        while (i < line.size() && line[i] == ' ') ++i;
        const size_t start = i;
        while (i < line.size() && line[i] != ' ') ++i;
        if (i == start) continue;
        const std::string token = line.substr(start, i - start);
        const size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
          return Status::InvalidArgument("bad-header");
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        // A repeated key has no one meaning: Attr would read the first
        // copy while quantum= kept the last.
        if ((key == "quantum" && saw_quantum) ||
            std::any_of(trace.attrs.begin(), trace.attrs.end(),
                        [&](const auto& attr) { return attr.first == key; })) {
          return Status::InvalidArgument("bad-header");
        }
        if (key == "quantum") {
          errno = 0;
          char* end = nullptr;
          trace.quantum = std::strtod(value.c_str(), &end);
          if (end != value.c_str() + value.size() || errno == ERANGE ||
              !(trace.quantum > 0.0)) {
            return Status::InvalidArgument("bad-header");
          }
          saw_quantum = true;
        } else {
          trace.attrs.emplace_back(key, value);
        }
      }
      if (!saw_quantum) return Status::InvalidArgument("bad-header");
      saw_header = true;
      continue;
    }
    if (line.empty()) continue;
    if (line.rfind("AT ", 0) != 0) {
      return Status::InvalidArgument("bad-at-line");
    }
    const size_t tq_start = 3;
    const size_t tq_end = line.find(' ', tq_start);
    if (tq_end == std::string::npos) {
      return Status::InvalidArgument("bad-at-line");
    }
    errno = 0;
    char* end = nullptr;
    const long long tq = std::strtoll(line.c_str() + tq_start, &end, 10);
    if (end != line.c_str() + tq_end || errno == ERANGE || tq < 0 ||
        tq <= last_tq) {
      return Status::InvalidArgument("bad-at-line");
    }
    Result<Command> command =
        ParseCommand(std::string_view(line).substr(tq_end + 1), limits);
    CAQE_RETURN_NOT_OK(command.status());
    Command& cmd = command.value();
    switch (cmd.kind) {
      case CommandKind::kSubmit:
        // Replay reassigns ids sequentially; the trace must agree so
        // CANCEL lines and report request ids line up.
        if (cmd.submit.trace_id != next_submit_id) {
          return Status::InvalidArgument("bad-at-line");
        }
        ++next_submit_id;
        break;
      case CommandKind::kCancel:
        if (cmd.cancel_id >= next_submit_id) {
          return Status::InvalidArgument("bad-at-line");
        }
        break;
      default:
        return Status::InvalidArgument("bad-at-line");
    }
    last_tq = tq;
    trace.events.push_back(SessionEvent{tq, std::move(cmd)});
  }
  if (!saw_header) return Status::InvalidArgument("bad-header");
  return trace;
}

}  // namespace net
}  // namespace caqe
