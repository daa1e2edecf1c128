// Tree-indexed coarse phase: end-to-end CAQE runs at growing table sizes
// with --coarse_index off vs on, gated on full report-hash equality
// (ReportHash: every counter, virtual time, and per-query outcome — the
// indexed coarse phase must be invisible in the report, down to the last
// coarse_op).
//
// Each size runs --repeats rounds, and the side that runs first alternates
// between rounds, so neither side always pays the first run's cold memory.
// A round times one Execute per side and, on the same regions, one
// standalone coarse skyline prune per side: the scan and the packed-tree
// branch-and-bound must prune the same pairs and regions for the same
// coarse_ops. The table reports medians over the rounds, with the region
// count the prune ran over.
//
// One more, untimed, indexed Execute per size reads the packed-box-tree
// traversal counters back through the observability registry and compares
// them against `scan_equiv` — the exact number of per-entry tests the
// grid-scan coarse phase performs on the same input. At N >= 500K the bench
// *requires* the index to visit strictly fewer nodes+entries than the scan
// tests (the branch-and-bound payoff), so a regression that degenerates the
// tree into a scan fails loudly instead of shipping a silent slowdown.
//
// Flags: --rows=50000,500000,2000000   (CSV list of table sizes)
//        --queries=7 --dims=4 --seed=2014 --target_regions=4096
//        --repeats=3 --dist=independent --out=BENCH_coarse.json
//
// The join selectivity is fixed at 1/N per size so join output stays O(N)
// and the coarse phase — not the join — dominates the size sweep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "metrics/export.h"
#include "region/dependency_graph.h"

namespace caqe {
namespace bench {
namespace {

struct CoarsePoint {
  int64_t rows = 0;
  bool index = false;
  /// Medians over the rounds.
  double wall_seconds = 0.0;
  double region_build_seconds = 0.0;
  double prune_seconds = 0.0;
  double wall_seconds_min = 0.0;
  double wall_seconds_max = 0.0;
  int64_t regions = 0;
  int64_t pruned_regions = 0;
  int64_t coarse_ops = 0;
  // Indexed side only (from the caqe_coarse_index_* counters).
  int64_t trees = 0;
  int64_t nodes_visited = 0;
  int64_t nodes_pruned = 0;
  int64_t entries_tested = 0;
  int64_t entries_bulk = 0;
  int64_t visits = 0;      // nodes_visited + entries_tested.
  int64_t scan_equiv = 0;  // Entry tests the scan path would have done.
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<int64_t> ParseRowsList(const std::string& csv) {
  std::vector<int64_t> rows;
  std::string current;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!current.empty()) rows.push_back(std::stoll(current));
      current.clear();
    } else {
      current += c;
    }
  }
  return rows;
}

std::string JsonField(const std::string& key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", key.c_str(), value);
  return buf;
}

int Main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::vector<int64_t> row_counts =
      ParseRowsList(args.GetString("rows", "50000,500000,2000000"));
  const int num_queries = static_cast<int>(args.GetInt("queries", 7));
  const int dims = static_cast<int>(args.GetInt("dims", 4));
  const int64_t seed = args.GetInt("seed", 2014);
  const int target_regions =
      static_cast<int>(args.GetInt("target_regions", 4096));
  const int repeats =
      std::max(1, static_cast<int>(args.GetInt("repeats", 3)));
  const Distribution dist =
      ParseDistribution(args.GetString("dist", "independent")).value();
  const std::string out_path = args.GetString("out", "BENCH_coarse.json");

  std::printf(
      "coarse-index sweep: dist=%s |S_Q|=%d d=%d target_regions=%d "
      "repeats=%d (sigma = 1/N per size; medians, first side alternating)\n\n",
      DistributionName(dist), num_queries, dims, target_regions, repeats);
  std::printf("%9s %6s %10s %10s %8s %14s %14s %14s %8s\n", "rows", "index",
              "wall_s", "prune_ms", "regions", "coarse_ops", "index_visits",
              "scan_equiv", "ratio");

  std::vector<CoarsePoint> points;
  for (const int64_t rows : row_counts) {
    BenchConfig config;
    config.rows = rows;
    config.num_attrs = dims;
    config.num_queries = num_queries;
    config.seed = seed;
    config.distribution = dist;
    config.selectivity = 1.0 / static_cast<double>(rows);
    auto [r, t] = MakeBenchTables(config);
    const Workload workload =
        MakeSubspaceWorkload(dims, 0, num_queries, PriorityPolicy::kUniform,
                             config.seed)
            .value();
    // Log-decay contracts need no deadline calibration, so the sweep skips
    // the throwaway S-JFSL pass (it would dwarf the coarse phase at 2M).
    const std::vector<Contract> contracts(workload.num_queries(),
                                          MakeLogDecayContract());
    ExecOptions base_options;
    base_options.capture_results = false;
    base_options.target_regions = target_regions;

    // The regions Execute builds, for the standalone prunes.
    const PartitionedInputs inputs =
        PartitionInputs(r, t, workload, base_options).value();
    const RegionCollection regions =
        BuildRegions(inputs.r, inputs.t, workload).value();

    uint64_t reference_hash = 0;
    CoarsePruneStats reference_prune;
    CoarsePoint side_points[2];
    std::vector<double> walls[2], builds[2], prunes[2];
    for (int round = 0; round < repeats; ++round) {
      for (int turn = 0; turn < 2; ++turn) {
        const int index = (turn + round) % 2;
        ExecOptions options = base_options;
        options.coarse_index = index != 0;
        const ExecutionReport report =
            RunEngine("CAQE", r, t, workload, contracts, options);
        const uint64_t hash = ReportHash(report);
        if (round == 0 && turn == 0) reference_hash = hash;
        // The determinism gate: the tree-indexed coarse phase must
        // reproduce the scan path's report bit for bit (regions, discards,
        // coarse_ops, utility traces — everything ReportHash covers).
        CAQE_CHECK(hash == reference_hash);
        CAQE_CHECK(report.stats.regions_built ==
                   static_cast<int64_t>(regions.regions.size()));
        walls[index].push_back(report.stats.wall_seconds);
        builds[index].push_back(report.stats.wall_region_build_seconds);

        RegionCollection pruned = regions;
        CoarsePruneOptions prune_options;
        prune_options.use_index = index != 0;
        const auto prune_start = std::chrono::steady_clock::now();
        const CoarsePruneStats prune =
            CoarseSkylinePrune(pruned, workload, prune_options);
        const std::chrono::duration<double> prune_wall =
            std::chrono::steady_clock::now() - prune_start;
        prunes[index].push_back(prune_wall.count());
        if (round == 0 && turn == 0) reference_prune = prune;
        // Both prunes find the same first dominators.
        CAQE_CHECK(prune.pruned_pairs == reference_prune.pruned_pairs &&
                   prune.pruned_regions == reference_prune.pruned_regions &&
                   prune.coarse_ops == reference_prune.coarse_ops);

        CoarsePoint& point = side_points[index];
        point.rows = rows;
        point.index = index != 0;
        point.regions = report.stats.regions_built;
        point.pruned_regions = prune.pruned_regions;
        point.coarse_ops = report.stats.coarse_ops;
      }
    }

    // The indexed traversal's shape, from one untimed observed run.
    {
      ExecOptions options = base_options;
      options.coarse_index = true;
      Observability obs;
      options.obs = &obs;
      const ExecutionReport report =
          RunEngine("CAQE", r, t, workload, contracts, options);
      CAQE_CHECK(ReportHash(report) == reference_hash);
      MetricsRegistry& m = obs.metrics;
      CoarsePoint& point = side_points[1];
      point.trees = m.counter("caqe_coarse_index_trees_total").value();
      point.nodes_visited =
          m.counter("caqe_coarse_index_nodes_visited_total").value();
      point.nodes_pruned =
          m.counter("caqe_coarse_index_nodes_pruned_total").value();
      point.entries_tested =
          m.counter("caqe_coarse_index_entries_tested_total").value();
      point.entries_bulk =
          m.counter("caqe_coarse_index_entries_bulk_total").value();
      point.visits = point.nodes_visited + point.entries_tested;
      point.scan_equiv =
          m.counter("caqe_coarse_index_scan_equiv_total").value();
      // The payoff gate: at large N the branch-and-bound traversal must
      // touch strictly fewer nodes+entries than the scan path tests.
      if (rows >= 500000) {
        CAQE_CHECK(point.visits < point.scan_equiv);
      }
    }

    for (int index = 0; index < 2; ++index) {
      CoarsePoint& point = side_points[index];
      point.wall_seconds = Median(walls[index]);
      point.wall_seconds_min =
          *std::min_element(walls[index].begin(), walls[index].end());
      point.wall_seconds_max =
          *std::max_element(walls[index].begin(), walls[index].end());
      point.region_build_seconds = Median(builds[index]);
      point.prune_seconds = Median(prunes[index]);
      const double ratio =
          point.scan_equiv > 0
              ? static_cast<double>(point.visits) /
                    static_cast<double>(point.scan_equiv)
              : 0.0;
      std::printf("%9lld %6s %10.4f %10.3f %8lld %14lld %14lld %14lld %8.3f\n",
                  static_cast<long long>(rows), point.index ? "on" : "off",
                  point.wall_seconds, 1e3 * point.prune_seconds,
                  static_cast<long long>(point.regions),
                  static_cast<long long>(point.coarse_ops),
                  static_cast<long long>(point.visits),
                  static_cast<long long>(point.scan_equiv), ratio);
      points.push_back(point);
    }
  }

  std::string json = "{\n";
  json += "  \"benchmark\": \"coarse_index\",\n";
  json += "  \"engine\": \"CAQE\",\n";
  json += "  \"distribution\": \"" + std::string(DistributionName(dist)) +
          "\",\n";
  json += "  \"queries\": " + std::to_string(num_queries) + ",\n";
  json += "  \"dims\": " + std::to_string(dims) + ",\n";
  json += "  \"target_regions\": " + std::to_string(target_regions) + ",\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"statistic\": \"median over repeats, first side alternating\",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const CoarsePoint& p = points[i];
    json += "    {\"rows\": " + std::to_string(p.rows) +
            ", \"coarse_index\": " + (p.index ? "true" : "false") + ", " +
            JsonField("wall_seconds", p.wall_seconds) + ", " +
            JsonField("wall_seconds_min", p.wall_seconds_min) + ", " +
            JsonField("wall_seconds_max", p.wall_seconds_max) + ", " +
            JsonField("region_build_seconds", p.region_build_seconds) + ", " +
            JsonField("prune_seconds", p.prune_seconds) +
            ", \"regions\": " + std::to_string(p.regions) +
            ", \"pruned_regions\": " + std::to_string(p.pruned_regions) +
            ", \"coarse_ops\": " + std::to_string(p.coarse_ops);
    if (p.index) {
      json += ", \"trees\": " + std::to_string(p.trees) +
              ", \"nodes_visited\": " + std::to_string(p.nodes_visited) +
              ", \"nodes_pruned\": " + std::to_string(p.nodes_pruned) +
              ", \"entries_tested\": " + std::to_string(p.entries_tested) +
              ", \"entries_bulk\": " + std::to_string(p.entries_bulk) +
              ", \"index_visits\": " + std::to_string(p.visits) +
              ", \"scan_equiv\": " + std::to_string(p.scan_equiv);
    }
    json += "}";
    json += (i + 1 < points.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  const Status written = WriteTextFile(out_path, json);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s (report hash identical at every run)\n",
              out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace caqe

int main(int argc, char** argv) { return caqe::bench::Main(argc, argv); }
