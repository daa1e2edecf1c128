// Parallel scaling of the CAQE engine's execution phases over the Figure 9
// workload: one run per thread count in {1, 2, 4, 8}, repeated, keeping the
// minimum wall time per phase (region build / join kernel / evaluation /
// discard scans, from the EngineStats wall_* breakdown) and the minimum
// process CPU seconds of a run (every thread's), so a speedup can be read
// against the CPU it cost.
//
// Every report quantity except wall time is deterministic across thread
// counts — the run aborts if any run's full report hash (ReportHash: every
// counter, virtual time and per-query trace; wall times excluded) diverges
// from the serial reference, so a scaling regression can never silently
// trade correctness for speed.
//
// Flags: --rows=N --sel=SIGMA --dist=correlated|independent|anticorrelated
//        --queries=K --seed=S --repeats=R --out=PATH
//
// Writes a JSON summary (default BENCH_parallel.json) including
// `cpus_available`: on machines with fewer CPUs than threads the sweep
// still validates determinism, but speedups are bounded by the hardware —
// read them against that field.
#include <time.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "metrics/export.h"

namespace caqe {
namespace bench {
namespace {

/// CPU seconds this process has used so far, over all its threads.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct ScalingPoint {
  int threads = 1;
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
  double region_build = 0.0;
  double join = 0.0;
  double eval = 0.0;
  double discard = 0.0;
};

std::string JsonField(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", key.c_str(), value);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  BenchConfig config;
  config.rows = args.GetInt("rows", 8000);
  config.selectivity = args.GetDouble("sel", 0.01);
  config.num_queries = static_cast<int>(args.GetInt("queries", 11));
  config.seed = args.GetInt("seed", 2014);
  config.distribution =
      ParseDistribution(args.GetString("dist", "independent")).value();
  const int repeats = static_cast<int>(args.GetInt("repeats", 3));
  const std::string out_path =
      args.GetString("out", "BENCH_parallel.json");
  const unsigned cpus = std::thread::hardware_concurrency();

  auto [r, t] = MakeBenchTables(config);
  const Workload workload =
      MakeSubspaceWorkload(config.num_attrs, 0, config.num_queries,
                           PriorityPolicy::kUniform, config.seed)
          .value();
  const Calibration calibration = Calibrate(r, t, workload);
  const std::vector<Contract> contracts(
      workload.num_queries(),
      MakeTableTwoContract(2, calibration.reference_seconds,
                           DistributionTightness(config.distribution)));

  std::printf(
      "CAQE parallel scaling: dist=%s N=%lld sigma=%.4f |S_Q|=%d "
      "repeats=%d cpus_available=%u\n\n",
      DistributionName(config.distribution),
      static_cast<long long>(config.rows), config.selectivity,
      config.num_queries, repeats, cpus);
  if (cpus < 2) {
    std::printf(
        "*** WARNING: cpus_available=%u — every multi-thread cell runs on "
        "one hardware CPU. ***\n"
        "*** Speedups below are expected to read ~1.0x; this sweep only "
        "validates determinism here. ***\n\n",
        cpus);
  }

  double reference_pscore = 0.0;
  uint64_t reference_hash = 0;
  std::vector<ScalingPoint> points;
  for (int threads : {1, 2, 4, 8}) {
    ExecOptions options;
    options.known_result_counts = calibration.result_counts;
    options.num_threads = threads;
    ScalingPoint point;
    point.threads = threads;
    for (int rep = 0; rep < repeats; ++rep) {
      const double cpu_before = ProcessCpuSeconds();
      const ExecutionReport report =
          RunEngine("CAQE", r, t, workload, contracts, options);
      const double cpu_seconds = ProcessCpuSeconds() - cpu_before;
      const uint64_t hash = ReportHash(report);
      if (threads == 1 && rep == 0) {
        reference_pscore = report.workload_pscore;
        reference_hash = hash;
      }
      // Determinism gate: no report quantity may move by a bit.
      CAQE_CHECK(hash == reference_hash);
      const EngineStats& s = report.stats;
      auto keep_min = [rep](double& slot, double value) {
        if (rep == 0 || value < slot) slot = value;
      };
      keep_min(point.wall_seconds, s.wall_seconds);
      keep_min(point.cpu_seconds, cpu_seconds);
      keep_min(point.region_build, s.wall_region_build_seconds);
      keep_min(point.join, s.wall_join_seconds);
      keep_min(point.eval, s.wall_eval_seconds);
      keep_min(point.discard, s.wall_discard_seconds);
    }
    points.push_back(point);
  }

  const ScalingPoint& base = points.front();
  auto speedup = [](double serial, double parallel) {
    return parallel > 0.0 ? serial / parallel : 0.0;
  };

  TablePrinter table({"threads", "wall_s", "cpu_s", "speedup",
                      "region_build_s", "join_s", "eval_s", "discard_s"});
  for (const ScalingPoint& p : points) {
    table.AddRow({std::to_string(p.threads), FormatDouble(p.wall_seconds, 4),
                  FormatDouble(p.cpu_seconds, 4),
                  FormatDouble(speedup(base.wall_seconds, p.wall_seconds), 2),
                  FormatDouble(p.region_build, 4), FormatDouble(p.join, 4),
                  FormatDouble(p.eval, 4), FormatDouble(p.discard, 4)});
  }
  std::printf(
      "min-of-%d wall and CPU times (report hash %016llx identical at every "
      "point):\n%s\n",
      repeats, static_cast<unsigned long long>(reference_hash),
      table.Render().c_str());

  std::string json = "{\n";
  json += "  \"benchmark\": \"parallel_scaling\",\n";
  json += "  \"engine\": \"CAQE\",\n";
  json += "  \"distribution\": \"" +
          std::string(DistributionName(config.distribution)) + "\",\n";
  json += "  \"rows\": " + std::to_string(config.rows) + ",\n";
  json += "  \"queries\": " + std::to_string(config.num_queries) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"cpus_available\": " + std::to_string(cpus) + ",\n";
  json += std::string("  \"cpu_constrained\": ") +
          (cpus < 2 ? "true" : "false") + ",\n";
  json += "  " + JsonField("workload_pscore", reference_pscore) + ",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    json += "    {\"threads\": " + std::to_string(p.threads) + ", " +
            JsonField("wall_seconds", p.wall_seconds) + ", " +
            JsonField("cpu_seconds", p.cpu_seconds) + ", " +
            JsonField("speedup", speedup(base.wall_seconds, p.wall_seconds)) +
            ", " + JsonField("region_build_seconds", p.region_build) + ", " +
            JsonField("region_build_speedup",
                      speedup(base.region_build, p.region_build)) +
            ", " + JsonField("join_seconds", p.join) + ", " +
            JsonField("join_speedup", speedup(base.join, p.join)) + ", " +
            JsonField("eval_seconds", p.eval) + ", " +
            JsonField("eval_speedup", speedup(base.eval, p.eval)) + ", " +
            JsonField("discard_seconds", p.discard) + ", " +
            JsonField("discard_speedup", speedup(base.discard, p.discard)) +
            "}";
    json += (i + 1 < points.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
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
}  // namespace bench
}  // namespace caqe

int main(int argc, char** argv) { return caqe::bench::Main(argc, argv); }
