// Pins every batch engine's report: each engine of KnownEngineNames() and
// both top-k engines runs one fixed small workload with result capture on,
// at num_threads 1 and 4, and a digest of bench::ReportHash plus every
// captured tuple (id, report time, utility, values) is compared against a
// pinned constant. Engines differ in when they report a result, never in
// how a report is charged, timed or recorded, so a refactor of the engine
// layer must leave every constant untouched.
//
// On a mismatch the report is written under ::testing::TempDir() so it can
// be diffed against the same run of a known-good build.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "test_util.h"

namespace caqe {
namespace {

/// One contract of every shape that reads the report time or the result
/// count, cycled over the queries and scaled to the runs' virtual time.
std::vector<Contract> MixedContracts(int num_queries) {
  std::vector<Contract> contracts;
  for (int q = 0; q < num_queries; ++q) {
    switch (q % 5) {
      case 0:
        contracts.push_back(MakeLogDecayContract(0.005));
        break;
      case 1:
        contracts.push_back(MakeHyperbolicDecayContract(0.02, 0.01));
        break;
      case 2:
        contracts.push_back(MakeCardinalityContract(0.2, 0.01));
        break;
      case 3:
        contracts.push_back(MakeHybridContract(0.2, 0.01, 0.005));
        break;
      default:
        contracts.push_back(MakeTimeStepContract(0.05));
        break;
    }
  }
  return contracts;
}

uint64_t Fnv1a(uint64_t hash, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (word >> (8 * i)) & 0xff;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// bench::ReportHash folded with every captured tuple, query by query.
uint64_t PinDigest(const ExecutionReport& report) {
  uint64_t hash = Fnv1a(14695981039346656037ull, bench::ReportHash(report));
  for (const QueryReport& query : report.queries) {
    hash = Fnv1a(hash, query.tuples.size());
    for (const ReportedResult& result : query.tuples) {
      hash = Fnv1a(hash, static_cast<uint64_t>(result.tuple_id));
      hash = Fnv1a(hash, Bits(result.time));
      hash = Fnv1a(hash, Bits(result.utility));
      for (const double value : result.values) hash = Fnv1a(hash, Bits(value));
    }
  }
  return hash;
}

/// Writes `report` as text (counters, per-query outcome, every captured
/// tuple at full precision) for diffing a mismatch.
void WriteReport(const ExecutionReport& report, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return;
  const EngineStats& s = report.stats;
  std::fprintf(file,
               "engine %s probes %lld results %lld cmps %lld coarse %lld "
               "emitted %lld built %lld processed %lld discarded %lld "
               "vtime %.17g pscore %.17g sat %.17g\n",
               report.engine.c_str(), static_cast<long long>(s.join_probes),
               static_cast<long long>(s.join_results),
               static_cast<long long>(s.dominance_cmps),
               static_cast<long long>(s.coarse_ops),
               static_cast<long long>(s.emitted_results),
               static_cast<long long>(s.regions_built),
               static_cast<long long>(s.regions_processed),
               static_cast<long long>(s.regions_discarded), s.virtual_seconds,
               report.workload_pscore, report.average_satisfaction);
  for (const QueryReport& query : report.queries) {
    std::fprintf(file, "query %s results %lld pscore %.17g sat %.17g\n",
                 query.name.c_str(), static_cast<long long>(query.results),
                 query.pscore, query.satisfaction);
    for (const ReportedResult& result : query.tuples) {
      std::fprintf(file, "  %lld %.17g %.17g",
                   static_cast<long long>(result.tuple_id), result.time,
                   result.utility);
      for (const double value : result.values) {
        std::fprintf(file, " %.17g", value);
      }
      std::fprintf(file, "\n");
    }
  }
  std::fclose(file);
}

void ExpectPinned(const ExecutionReport& report, int num_threads,
                  uint64_t pin) {
  SCOPED_TRACE(report.engine + " threads=" + std::to_string(num_threads));
  const uint64_t digest = PinDigest(report);
  EXPECT_GT(report.stats.emitted_results, 0);
  if (digest == pin) return;
  std::string file_name = report.engine;
  for (char& c : file_name) {
    if (c == '+') c = 'p';
  }
  const std::string path = ::testing::TempDir() + "/engine_pin_" +
                           file_name + "_t" + std::to_string(num_threads) +
                           ".txt";
  WriteReport(report, path);
  ADD_FAILURE() << "report written to " << path << " (digest 0x" << std::hex
                << digest << ", pinned 0x" << pin << ")";
}

/// Result capture on; a 2-slice grid per attribute gives the region
/// engines enough regions to prune, discard and park results.
ExecOptions PinOptions(int num_threads) {
  ExecOptions options;
  options.capture_results = true;
  options.num_threads = num_threads;
  options.cells_per_dim = 2;
  return options;
}

TEST(EnginePinTest, EveryKnownEngineMatchesItsPin) {
  const std::map<std::string, uint64_t> pins = {
      {"CAQE", 0x1c98425fb74ef80aull},
      {"S-JFSL", 0xecdad4a6e1879d9bull},
      {"JFSL", 0x87f671581029f809ull},
      {"SSMJ", 0xae5521256cb35446ull},
      {"SSMJ+", 0x0c53921e9531bd02ull},
      {"ProgXe+", 0xce4dccce1537c8c1ull},
      {"CAQE-nofb", 0x37f06d27ce4a74e0ull},
      {"CAQE-noprune", 0xcd482fab3592d052ull},
      {"CAQE-count", 0x8fd3ffa716d68206ull},
  };
  auto [r, t] = ::caqe::testing::MakeTables(Distribution::kAntiCorrelated,
                                            /*rows=*/800, /*attrs=*/4,
                                            /*selectivity=*/0.02);
  Workload workload =
      MakeSubspaceWorkload(4, 0, 6, PriorityPolicy::kRandom, 2014).value();
  // One query with selections, so the per-query joins filter rows too.
  workload.AddQuery(SjQuery{"Qsel", 0, {0, 2}, 0.7,
                            {SelectionRange{true, 1, 0.0, 60.0},
                             SelectionRange{false, 3, 20.0, 100.0}}});
  const std::vector<Contract> contracts =
      MixedContracts(workload.num_queries());
  ASSERT_EQ(pins.size(), KnownEngineNames().size());
  for (const std::string& name : KnownEngineNames()) {
    ASSERT_EQ(pins.count(name), 1u) << name;
    for (const int num_threads : {1, 4}) {
      std::unique_ptr<Engine> engine = MakeEngine(name).value();
      const Result<ExecutionReport> report = engine->Execute(
          r, t, workload, contracts, PinOptions(num_threads));
      ASSERT_TRUE(report.ok()) << name << ": " << report.status().ToString();
      ExpectPinned(*report, num_threads, pins.at(name));
    }
  }
}

TEST(EnginePinTest, BothTopKEnginesMatchTheirPins) {
  auto [r, t] = ::caqe::testing::MakeTables(Distribution::kIndependent,
                                            /*rows=*/500, /*attrs=*/3,
                                            /*selectivity=*/0.03);
  TopKWorkload workload;
  for (int k = 0; k < 3; ++k) workload.AddOutputDim({k, k, 1.0, 1.0});
  workload.AddQuery({"T1", 0, {1.0, 1.0, 0.0}, 40, 0.9});
  workload.AddQuery({"T2", 0, {0.0, 2.0, 1.0}, 120, 0.5});
  workload.AddQuery({"T3", 0, {1.0, 1.0, 1.0}, 15, 0.2});
  workload.AddQuery({"T4", 0, {0.5, 0.0, 3.0}, 70, 0.7});
  const std::vector<Contract> contracts =
      MixedContracts(workload.num_queries());
  ContractAwareTopKEngine caqe_topk;
  SerialTopKEngine serial_topk;
  const std::vector<std::pair<TopKEngine*, uint64_t>> engines = {
      {&caqe_topk, 0x138ce9a780c69851ull},
      {&serial_topk, 0x6c0bc7e26a8470efull},
  };
  for (const auto& [engine, pin] : engines) {
    for (const int num_threads : {1, 4}) {
      const Result<ExecutionReport> report = engine->Execute(
          r, t, workload, contracts, PinOptions(num_threads));
      ASSERT_TRUE(report.ok()) << engine->name() << ": "
                               << report.status().ToString();
      ExpectPinned(*report, num_threads, pin);
    }
  }
}

}  // namespace
}  // namespace caqe
