// Pins every contract-event view byte for byte: the exec-event JSONL, the
// audit ledger (without its wall-clock field), the contract-health JSONL and
// the Chrome trace's virtual-clock (pid 1) counter lines. Each view is
// regenerated in-process and compared, as an FNV-1a digest plus a line
// count, against pinned constants: tools parse these views, so a refactor
// of the event model must leave the constants untouched.
//
// Three runs cover the emitters, each on the CPU's batch dominance kernels
// and again on the scalar ones:
//   (a) the caqe_serve batch-mode world and trace at --requests=120
//       --rate=80 --calibrate=1 --cancel-fraction=0.1
//       --deadline-fraction=0.25 (repreviews, cancels, expiries);
//   (b) the same world at --requests=40, uncalibrated;
//   (c) a CAQE batch Execute (pipeline exec events, batch health timeline).
//
// On a mismatch the view is written under ::testing::TempDir() so it can be
// diffed against the same view of a known-good build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "caqe/caqe.h"
#include "test_util.h"

namespace caqe {
namespace {

struct Views {
  std::string exec;
  std::string ledger;
  std::string health;
  std::string chrome_pid1;
};

/// The Chrome trace's pid 1 lines (virtual-clock contract-health process
/// metadata and counters); the pid 0 span lines carry wall timings.
std::string ChromePid1Lines(const std::string& trace) {
  std::string out;
  size_t begin = 0;
  while (begin < trace.size()) {
    size_t end = trace.find('\n', begin);
    if (end == std::string::npos) end = trace.size();
    const std::string line = trace.substr(begin, end - begin);
    if (line.find("\"pid\":1,") != std::string::npos) out += line + "\n";
    begin = end + 1;
  }
  return out;
}

Views ViewsOf(const Observability& obs,
              const std::vector<std::string>& query_names = {}) {
  Views views;
  views.exec = obs.events.ExecEventsJsonl(query_names);
  views.ledger = obs.events.LedgerJsonl(/*include_wall=*/false);
  views.health = obs.events.HealthJsonl();
  views.chrome_pid1 = ChromePid1Lines(obs.ChromeTrace());
  return views;
}

/// The caqe_serve batch-mode world (tools/caqe_serve.cc MakeWorld) with its
/// default data flags: 1000 rows, selectivity 0.01, seed 2014.
Views RunServe(int requests, double rate, bool calibrate) {
  GeneratorConfig cfg;
  cfg.num_rows = 1000;
  cfg.num_attrs = 3;
  cfg.join_selectivities = {0.01, 0.01};
  cfg.seed = 2014;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 2015;
  const Table t = GenerateTable("T", cfg).value();
  const std::vector<MappingFunction> dims = {
      MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
  const std::vector<int> keys = {0, 1};

  Observability obs;
  ServeOptions options;
  options.target_regions = 128;
  options.calibrate = calibrate;
  options.obs = &obs;
  auto server = CaqeServer::Create(r, t, dims, keys, options).value();

  TraceConfig trace_config;
  trace_config.num_requests = requests;
  trace_config.arrival_rate = rate;
  trace_config.seed = 2014;
  trace_config.reference_seconds = 0.1;
  trace_config.deadline_fraction = 0.25;
  trace_config.cancel_fraction = 0.1;
  SubmitTrace(*server, MakeSyntheticTrace(trace_config, keys, 3));
  server->Run().value();
  return ViewsOf(obs);
}

Views RunBatch() {
  auto [r, t] = ::caqe::testing::MakeTables(Distribution::kAntiCorrelated,
                                            /*rows=*/1500, /*attrs=*/4,
                                            /*selectivity=*/0.02);
  const Workload workload =
      MakeSubspaceWorkload(4, 0, 9, PriorityPolicy::kUniform).value();
  const std::vector<Contract> contracts(workload.num_queries(),
                                        MakeLogDecayContract());
  Observability obs;
  ExecOptions options;
  options.obs = &obs;
  MakeEngine("CAQE").value()->Execute(r, t, workload, contracts, options)
      .value();
  std::vector<std::string> names;
  for (int q = 0; q < workload.num_queries(); ++q) {
    names.push_back(workload.query(q).name);
  }
  return ViewsOf(obs, names);
}

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

int64_t Lines(const std::string& text) {
  int64_t lines = 0;
  for (const char c : text) lines += c == '\n';
  return lines;
}

struct Pin {
  uint64_t digest;
  int64_t lines;
};

void ExpectPinned(const std::string& run, const std::string& view,
                  const std::string& text, const Pin& pin) {
  SCOPED_TRACE(run + " " + view);
  const uint64_t digest = Fnv1a(text);
  EXPECT_EQ(Lines(text), pin.lines);
  EXPECT_EQ(digest, pin.digest);
  if (digest == pin.digest && Lines(text) == pin.lines) return;
  const std::string path =
      ::testing::TempDir() + "/views_pin_" + run + "_" + view + ".jsonl";
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  ADD_FAILURE() << "view written to " << path << " (digest 0x" << std::hex
                << digest << std::dec << ", " << Lines(text) << " lines)";
}

struct RunPins {
  Pin exec;
  Pin ledger;
  Pin health;
  Pin chrome_pid1;
};

void ExpectViewsPinned(const std::string& run, const Views& views,
                       const RunPins& pins) {
  ExpectPinned(run, "exec", views.exec, pins.exec);
  ExpectPinned(run, "ledger", views.ledger, pins.ledger);
  ExpectPinned(run, "health", views.health, pins.health);
  ExpectPinned(run, "chrome_pid1", views.chrome_pid1, pins.chrome_pid1);
}

/// Every `"kind":"<name>"` value in a JSONL view.
std::set<std::string> KindsIn(const std::string& jsonl) {
  std::set<std::string> kinds;
  const std::string key = "\"kind\":\"";
  for (size_t pos = jsonl.find(key); pos != std::string::npos;
       pos = jsonl.find(key, pos)) {
    pos += key.size();
    kinds.insert(jsonl.substr(pos, jsonl.find('"', pos) - pos));
  }
  return kinds;
}

// The calibrated run exercises every kind the ledger and exec views can
// print, so a kind an emitter stops producing cannot go unnoticed behind a
// matching digest.
TEST(ViewsPinTest, CalibratedServeRunMatchesPinnedViews) {
  ::caqe::testing::ForEachBatchKernels([](const std::string& kernels) {
    const Views views = RunServe(/*requests=*/120, /*rate=*/80.0,
                                 /*calibrate=*/true);
    ExpectViewsPinned("serve120_" + kernels, views,
                      RunPins{{0xc01f82c6bfa272b1ull, 1092},
                              {0xcfc42499d7b1470bull, 2093},
                              {0xb4eb4e55e680642aull, 1412},
                              {0xb42677297adbb4edull, 2825}});
    EXPECT_EQ(KindsIn(views.ledger),
              (std::set<std::string>{"arrival", "decision", "graft",
                                     "region_step", "first_result",
                                     "cancel", "finish", "repreview"}));
    EXPECT_EQ(KindsIn(views.exec),
              (std::set<std::string>{"region_scheduled", "region_discarded",
                                     "query_pruned", "results_emitted",
                                     "query_admitted", "query_retired",
                                     "query_repreviewed"}));
  });
}

TEST(ViewsPinTest, UncalibratedServeRunMatchesPinnedViews) {
  ::caqe::testing::ForEachBatchKernels([](const std::string& kernels) {
    const Views views = RunServe(/*requests=*/40, /*rate=*/40.0,
                                 /*calibrate=*/false);
    ExpectViewsPinned("serve40_" + kernels, views,
                      RunPins{{0xb7668220a1e9cadaull, 567},
                              {0x92c77e363b1bf0a5ull, 520},
                              {0x361f20867e1e1559ull, 332},
                              {0x580fbc1ef26a3e7cull, 665}});
  });
}

TEST(ViewsPinTest, BatchExecuteMatchesPinnedViews) {
  ::caqe::testing::ForEachBatchKernels([](const std::string& kernels) {
    const Views views = RunBatch();
    ExpectViewsPinned("batch_" + kernels, views,
                      RunPins{{0xb042404ae29a67b9ull, 281},
                              {0xcbf29ce484222325ull, 0},
                              {0x458949938f999e7aull, 512},
                              {0xa6c8a6db19cdb20full, 1025}});
    // Batch runs audit no requests: the ledger view stays empty, and the
    // exec view holds the engine's scheduling kinds only.
    EXPECT_EQ(views.ledger, "");
    const std::set<std::string> engine_kinds = {
        "region_scheduled", "region_discarded", "query_pruned",
        "results_emitted"};
    for (const std::string& kind : KindsIn(views.exec)) {
      EXPECT_EQ(engine_kinds.count(kind), 1u) << kind;
    }
  });
}

}  // namespace
}  // namespace caqe
