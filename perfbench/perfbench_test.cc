// Tests of the benchmark's own helpers, plus the workload-shape guard: each
// workload must keep loading the layer it was chosen for, or this fails.
// The guard runs the real workloads (traced, with short sessions), so it
// takes about a minute.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Percentile(v, 0.0), 1);
  EXPECT_EQ(Percentile(v, 0.5), 3);
  EXPECT_EQ(Percentile(v, 1.0), 5);
  EXPECT_EQ(Percentile(v, 0.74), 4);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
}

TEST(PercentileTest, TailLevelKeepsTenSamplesBeyond) {
  EXPECT_EQ(TailLevel(20000), 0.999);
  EXPECT_EQ(TailLevel(1000), 0.99);
  EXPECT_EQ(TailLevel(999), 0.95);
  EXPECT_EQ(TailLevel(100), 0.9);
  EXPECT_EQ(TailLevel(40), 0.75);
  EXPECT_EQ(TailLevel(10), 0.5);
  for (const int64_t n : {20, 40, 99, 100, 999, 1000, 5000, 20000}) {
    EXPECT_GE(static_cast<double>(n) * (1.0 - TailLevel(n)), 10.0 - 1e-9)
        << n;
  }
}

TEST(LatenessTest, ClampsEarlySendsAndSkipsUnsent) {
  const std::vector<double> due = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> sent = {1.5, 1.9, -1.0, 4.25};
  const std::vector<double> late = Lateness(due, sent);
  ASSERT_EQ(late.size(), 3u);
  EXPECT_DOUBLE_EQ(late[0], 0.5);
  EXPECT_DOUBLE_EQ(late[1], 0.0);
  EXPECT_DOUBLE_EQ(late[2], 0.25);
}

TEST(ResidualTest, RowsPlusResidualSumToTotal) {
  EXPECT_DOUBLE_EQ(Residual(10.0, {1.0, 2.5, 3.5}), 3.0);
  EXPECT_DOUBLE_EQ(Residual(1.0, {}), 1.0);
  LayerTable table;
  table.total_name = "execute";
  table.total_s = 4.0;
  table.rows = {{"a", 1.0}, {"b", 2.25}};
  EXPECT_DOUBLE_EQ(table.residual(), 0.75);
  EXPECT_NE(table.Render().find("residual_s"), std::string::npos);
}

TEST(ResultJsonTest, PrintsEveryMetricOfTheRunKind) {
  RunResult result;
  result.attempted = 3;
  for (const MetricSpec& spec : EndToEndMetrics()) result.Set(spec.name, 0.1);
  const std::string json = ResultJson(result, /*trace=*/false);
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  for (const MetricSpec& spec : EndToEndMetrics()) {
    EXPECT_NE(json.find(std::string("\"") + spec.name + "\": {\"value\": "),
              std::string::npos);
  }
  // All digits: 0.1 is not exactly representable.
  EXPECT_NE(json.find("0.10000000000000001"), std::string::npos);
  const std::string traced = ResultJson(RunResult{}, /*trace=*/true);
  for (const MetricSpec& spec : PerLayerMetrics()) {
    EXPECT_NE(traced.find(std::string("\"") + spec.name + "\""),
              std::string::npos);
  }
}

RunArgs TracedArgs(const std::string& workload, double seconds) {
  RunArgs args;
  args.workload = workload;
  args.seed = 3;
  args.seconds = seconds;
  args.trace = true;
  args.out_dir = "perfbench_test_out";
  return args;
}

TEST(WorkloadShapeTest, EvalIsTheLargestExecPhaseOnServeHeavy) {
  const RunResult r =
      RunServe(TracedArgs("serve-heavy", 3.0), ServeHeavyConfig());
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.Get("exec.eval_s"), r.Get("exec.join_s"));
  EXPECT_GT(r.Get("exec.eval_s"), r.Get("exec.discard_s"));
}

TEST(WorkloadShapeTest, CoarseWorkOutweighsEvalOnBatchLarge) {
  const RunResult r = RunBatch(TracedArgs("batch-large", 1.0),
                               BatchLargeConfig());
  EXPECT_TRUE(r.correct);
  EXPECT_GT(r.Get("partition.wall_s") + r.Get("region.build_s") +
                r.Get("exec.join_s"),
            r.Get("exec.eval_s"));
}

TEST(WorkloadShapeTest, ControlShareRisesWithSessionLengthOnServeChurn) {
  // Shape only: the live-vs-replay check of this workload is reported by
  // the benchmark run itself.
  const auto control_share = [](double seconds) {
    const RunResult r =
        RunServe(TracedArgs("serve-churn", seconds), ServeChurnConfig());
    return r.Get("serve.control_s") / r.Get("serve.engine_s");
  };
  const double short_share = control_share(2.0);
  const double long_share = control_share(8.0);
  EXPECT_GT(long_share, short_share);
}

}  // namespace
}  // namespace perfbench
