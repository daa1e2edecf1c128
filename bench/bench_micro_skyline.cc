// Micro-benchmarks (google-benchmark) for the skyline kernels, the shared
// evaluator, partitioning, and the region machinery.
//
// With --simd_report [--out=PATH] the binary instead sweeps the batch
// dominance kernel — forced scalar vs. the runtime-dispatched backend — over
// subspace widths, runs one small engine workload for the per-phase wall
// breakdown, and writes a JSON summary (default BENCH_simd.json).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "metrics/export.h"

namespace caqe {
namespace {

PointSet RandomPoints(Distribution dist, int64_t n, int width,
                      uint64_t seed) {
  GeneratorConfig cfg;
  cfg.num_rows = n;
  cfg.num_attrs = width;
  cfg.distribution = dist;
  cfg.seed = seed;
  const Table t = GenerateTable("P", cfg).value();
  PointSet points(width);
  std::vector<double> row(width);
  for (int64_t i = 0; i < n; ++i) {
    for (int k = 0; k < width; ++k) row[k] = t.attr(i, k);
    points.Append(row);
  }
  return points;
}

std::vector<int> AllDims(int d) {
  std::vector<int> dims(d);
  for (int k = 0; k < d; ++k) dims[k] = k;
  return dims;
}

void BM_BnlSkyline(benchmark::State& state) {
  const int d = static_cast<int>(state.range(1));
  const PointSet points =
      RandomPoints(Distribution::kIndependent, state.range(0), d, 9);
  const std::vector<int> dims = AllDims(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BnlSkyline(points, dims));
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_BnlSkyline)->Args({1000, 2})->Args({1000, 4})->Args({10000, 4});

void BM_SfsSkyline(benchmark::State& state) {
  const int d = static_cast<int>(state.range(1));
  const PointSet points =
      RandomPoints(Distribution::kIndependent, state.range(0), d, 9);
  const std::vector<int> dims = AllDims(d);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SfsSkyline(points, dims));
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_SfsSkyline)->Args({1000, 2})->Args({1000, 4})->Args({10000, 4});

void BM_SfsSkylineAntiCorrelated(benchmark::State& state) {
  const PointSet points =
      RandomPoints(Distribution::kAntiCorrelated, state.range(0), 4, 9);
  const std::vector<int> dims = AllDims(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SfsSkyline(points, dims));
  }
  state.SetItemsProcessed(state.iterations() * points.size());
}
BENCHMARK(BM_SfsSkylineAntiCorrelated)->Arg(1000)->Arg(4000);

// Args: stream length, dims, anti-correlated (0/1). Independent streams
// are mostly rejected by one of the lowest-score members, which the
// insert's head scan finds without a kernel call; anti-correlated streams
// have few early dominators and large skylines, so their inserts mostly
// walk the batch kernel blocks.
void BM_IncrementalSkylineInsert(benchmark::State& state) {
  const int d = static_cast<int>(state.range(1));
  const bool anti = state.range(2) != 0;
  const PointSet points = RandomPoints(
      anti ? Distribution::kAntiCorrelated : Distribution::kIndependent,
      state.range(0), d, 9);
  const std::vector<int> dims = AllDims(d);
  for (auto _ : state) {
    IncrementalSkyline inc(dims);
    for (int64_t i = 0; i < points.size(); ++i) {
      inc.Insert(points.row(i), i);
    }
    benchmark::DoNotOptimize(inc.size());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
  state.SetLabel(anti ? "anti_correlated" : "independent");
}
BENCHMARK(BM_IncrementalSkylineInsert)
    ->Args({1000, 4, 0})
    ->Args({10000, 4, 0})
    ->Args({10000, 4, 1})
    ->Args({10000, 6, 1});

void BM_SharedEvaluator(benchmark::State& state) {
  const bool dva = state.range(1) != 0;
  const PointSet points =
      RandomPoints(Distribution::kIndependent, state.range(0), 4, 9);
  const Workload wl =
      MakeSubspaceWorkload(4, 0, 11, PriorityPolicy::kUniform).value();
  std::vector<Subspace> prefs;
  for (const SjQuery& q : wl.queries()) {
    prefs.push_back(Subspace::FromDims(q.preference));
  }
  const MinMaxCuboid cuboid = MinMaxCuboid::Build(prefs).value();
  for (auto _ : state) {
    SharedSkylineEvaluator eval(&cuboid, dva);
    for (int64_t i = 0; i < points.size(); ++i) {
      eval.Insert(points.row(i), i);
    }
    benchmark::DoNotOptimize(eval.root_size());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
  state.SetLabel(dva ? "dva_gating" : "tie_safe");
}
BENCHMARK(BM_SharedEvaluator)->Args({2000, 1})->Args({2000, 0});

void BM_PartitionTable(benchmark::State& state) {
  GeneratorConfig cfg;
  cfg.num_rows = state.range(0);
  cfg.num_attrs = 4;
  cfg.join_selectivities = {0.01};
  const Table t = GenerateTable("T", cfg).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionTable(t, 2).value().num_cells());
  }
  state.SetItemsProcessed(state.iterations() * cfg.num_rows);
}
BENCHMARK(BM_PartitionTable)->Arg(10000)->Arg(100000);

void BM_BuildRegions(benchmark::State& state) {
  GeneratorConfig cfg;
  cfg.num_rows = state.range(0);
  cfg.num_attrs = 4;
  cfg.join_selectivities = {0.01};
  cfg.seed = 1;
  const Table r = GenerateTable("R", cfg).value();
  cfg.seed = 2;
  const Table t = GenerateTable("T", cfg).value();
  const PartitionedTable pr = PartitionTable(r, 2).value();
  const PartitionedTable pt = PartitionTable(t, 2).value();
  const Workload wl =
      MakeSubspaceWorkload(4, 0, 11, PriorityPolicy::kUniform).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildRegions(pr, pt, wl).value().regions.size());
  }
}
BENCHMARK(BM_BuildRegions)->Arg(10000)->Arg(50000);

void BM_BatchDominanceKernel(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const bool scalar = state.range(1) != 0;
  const PointSet points = RandomPoints(Distribution::kIndependent, 4096, d, 9);
  const std::vector<int> dims = AllDims(d);
  SubspaceView view(dims);
  view.Reserve(points.size());
  for (int64_t i = 0; i < points.size(); ++i) view.PushPoint(points.row(i));
  std::vector<double> probe(dims.size());
  GatherPoint(points.row(0), dims, probe.data());
  std::vector<uint8_t> flags(static_cast<size_t>(points.size()));
  for (auto _ : state) {
    if (scalar) {
      BatchDominanceFlagsScalar(probe.data(), view, 0, view.size(),
                                flags.data());
    } else {
      BatchDominanceFlags(probe.data(), view, 0, view.size(), flags.data());
    }
    benchmark::DoNotOptimize(flags.data());
  }
  state.SetItemsProcessed(state.iterations() * points.size());
  state.SetLabel(scalar ? "scalar" : BatchKernelIsaName());
}
BENCHMARK(BM_BatchDominanceKernel)
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0});

void BM_BuchtaEstimate(benchmark::State& state) {
  for (auto _ : state) {
    for (int d = 2; d <= 6; ++d) {
      benchmark::DoNotOptimize(BuchtaSkylineCardinality(1e6, d));
    }
  }
}
BENCHMARK(BM_BuchtaEstimate);

// ---- --simd_report mode ----

/// Throughput of one kernel variant in comparisons/second: repeated sweeps
/// of every probe over the whole window until enough wall time accumulates.
/// `scalar` measures the forced-scalar kernel; otherwise the dispatcher's
/// pick.
double MeasureKernelCps(bool scalar,
                        const std::vector<std::vector<double>>& probes,
                        const SubspaceView& view,
                        std::vector<uint8_t>& flags) {
  const int64_t n = view.size();
  const auto run_sweep = [&] {
    for (const std::vector<double>& probe : probes) {
      if (scalar) {
        BatchDominanceFlagsScalar(probe.data(), view, 0, n, flags.data());
      } else {
        BatchDominanceFlags(probe.data(), view, 0, n, flags.data());
      }
      benchmark::DoNotOptimize(flags.data());
    }
  };
  run_sweep();  // Warm-up.
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  int64_t sweeps = 0;
  double elapsed = 0.0;
  do {
    run_sweep();
    ++sweeps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < 0.25);
  return static_cast<double>(sweeps) *
         static_cast<double>(probes.size()) * static_cast<double>(n) /
         elapsed;
}

std::string JsonNum(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g", key.c_str(), value);
  return buf;
}

int RunSimdReport(const std::string& out_path) {
  constexpr int64_t kWindow = 4096;
  constexpr int kProbes = 64;

  std::printf("batch dominance kernel: isa=%s window=%lld probes=%d\n\n",
              BatchKernelIsaName(), static_cast<long long>(kWindow), kProbes);
  std::printf("%6s %18s %18s %8s\n", "dims", "scalar_cmps/s", "simd_cmps/s",
              "speedup");

  std::string sweep_json;
  const std::vector<int> dim_counts = {2, 4, 6, 8};
  for (size_t di = 0; di < dim_counts.size(); ++di) {
    const int d = dim_counts[di];
    const PointSet points =
        RandomPoints(Distribution::kIndependent, kWindow + kProbes, d, 9);
    const std::vector<int> dims = AllDims(d);
    SubspaceView view(dims);
    view.Reserve(kWindow);
    for (int64_t i = 0; i < kWindow; ++i) view.PushPoint(points.row(i));
    std::vector<std::vector<double>> probes(kProbes);
    for (int p = 0; p < kProbes; ++p) {
      probes[p].resize(dims.size());
      GatherPoint(points.row(kWindow + p), dims, probes[p].data());
    }
    std::vector<uint8_t> flags(static_cast<size_t>(kWindow));
    const double scalar_cps =
        MeasureKernelCps(/*scalar=*/true, probes, view, flags);
    const double simd_cps =
        MeasureKernelCps(/*scalar=*/false, probes, view, flags);
    const double speedup = scalar_cps > 0.0 ? simd_cps / scalar_cps : 0.0;
    std::printf("%6d %18.3e %18.3e %7.2fx\n", d, scalar_cps, simd_cps,
                speedup);
    sweep_json += "    {\"dims\": " + std::to_string(d) + ", " +
                  JsonNum("scalar_cmps_per_sec", scalar_cps) + ", " +
                  JsonNum("simd_cmps_per_sec", simd_cps) + ", " +
                  JsonNum("speedup", speedup) + "}";
    sweep_json += (di + 1 < dim_counts.size()) ? ",\n" : "\n";
  }

  // One small Figure-9-style engine run for the per-phase wall breakdown of
  // the phases the batch kernels feed (evaluation and discard scans).
  bench::BenchConfig config;
  config.rows = 4000;
  const auto [r, t] = bench::MakeBenchTables(config);
  const Workload workload =
      MakeSubspaceWorkload(config.num_attrs, 0, config.num_queries,
                           PriorityPolicy::kUniform, config.seed)
          .value();
  const bench::Calibration calibration = bench::Calibrate(r, t, workload);
  const std::vector<Contract> contracts(
      workload.num_queries(),
      bench::MakeTableTwoContract(
          2, calibration.reference_seconds,
          bench::DistributionTightness(config.distribution)));
  ExecOptions options;
  options.known_result_counts = calibration.result_counts;
  const ExecutionReport report =
      bench::RunEngine("CAQE", r, t, workload, contracts, options);
  const EngineStats& stats = report.stats;
  std::printf(
      "\nengine (rows=%lld, |S_Q|=%d): wall=%.4fs eval=%.4fs discard=%.4fs "
      "pscore=%.6f\n",
      static_cast<long long>(config.rows), config.num_queries,
      stats.wall_seconds, stats.wall_eval_seconds, stats.wall_discard_seconds,
      report.workload_pscore);

  std::string json = "{\n";
  json += "  \"benchmark\": \"simd_kernel\",\n";
  json += "  \"isa\": \"" + std::string(BatchKernelIsaName()) + "\",\n";
  json += std::string("  \"simd_active\": ") +
          (BatchKernelSimdActive() ? "true" : "false") + ",\n";
  json += "  \"window\": " + std::to_string(kWindow) + ",\n";
  json += "  \"probes\": " + std::to_string(kProbes) + ",\n";
  json += "  \"kernel_sweep\": [\n" + sweep_json + "  ],\n";
  json += "  \"engine\": {\"rows\": " + std::to_string(config.rows) +
          ", \"queries\": " + std::to_string(config.num_queries) + ", " +
          JsonNum("workload_pscore", report.workload_pscore) + ", " +
          JsonNum("wall_seconds", stats.wall_seconds) + ", " +
          JsonNum("region_build_seconds", stats.wall_region_build_seconds) +
          ", " + JsonNum("join_seconds", stats.wall_join_seconds) + ", " +
          JsonNum("eval_seconds", stats.wall_eval_seconds) + ", " +
          JsonNum("discard_seconds", stats.wall_discard_seconds) + "}\n";
  json += "}\n";
  const Status written = WriteTextFile(out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace caqe

int main(int argc, char** argv) {
  const caqe::bench::Args args(argc, argv);
  if (args.GetInt("simd_report", 0) != 0) {
    return caqe::RunSimdReport(args.GetString("out", "BENCH_simd.json"));
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
