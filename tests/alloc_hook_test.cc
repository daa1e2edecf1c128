// Allocation accounting through the counting alloc hook, which this binary
// links ahead of the caqe libraries (see tests/CMakeLists.txt): the hook
// counts the calling thread's heap traffic, and the region pipeline's
// steady state — past its 32-region warmup, each step counted whole: the
// scheduler's pick, the region's processing and the weight feedback —
// stays within the alloc budget (scripts/run_determinism_matrix.sh) in
// batch execution and in serving.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "caqe/session.h"
#include "common/alloc_hook.h"
#include "contracts/utility.h"
#include "data/generator.h"
#include "obs/observability.h"
#include "query/workload_generator.h"
#include "serve/server.h"
#include "serve/trace.h"
#include "test_util.h"

namespace caqe {
namespace {

/// The alloc gate's budget (bench_alloc --max_allocs_per_region).
constexpr double kMaxAllocsPerRegion = 5.0;

/// Steady-state heap allocations per region the pipeline counted into
/// `obs`. Fails the test when no region got past the warmup window.
double SteadyAllocsPerRegion(Observability& obs) {
  const int64_t regions =
      obs.metrics.counter("caqe_alloc_steady_regions_total").value();
  EXPECT_GT(regions, 0) << "no region got past the warmup window";
  if (regions <= 0) return 0.0;
  return static_cast<double>(
             obs.metrics.counter("caqe_alloc_steady_allocs_total").value()) /
         static_cast<double>(regions);
}

TEST(AllocHookTest, CountsWhenLinked) {
  if (!AllocHookActive()) {
    GTEST_SKIP() << "counting alloc hook not linked into this binary";
  }
  // Direct operator calls: a plain new-expression/delete pair is legally
  // elidable at -O2, which would make the counters (correctly) stay flat.
  const AllocCounts before = ThreadAllocCounts();
  void* p = ::operator new(64);
  const AllocCounts mid = ThreadAllocCounts();
  EXPECT_GE(mid.allocs - before.allocs, 1u);
  EXPECT_GE(mid.bytes - before.bytes, 64u);
  ::operator delete(p);
  const AllocCounts after = ThreadAllocCounts();
  EXPECT_GE(after.deallocs - mid.deallocs, 1u);
}

// The compact-layout cells of the alloc gate (bench_alloc's defaults): a
// batch Execute over 4000 rows and 8 subspace queries (175 regions) and an
// 80-request serving replay over 8000 rows (247 regions), each with an
// Observability attached so the pipeline exports its caqe_alloc_* counters.
TEST(AllocHookTest, SteadyStateRegionsStayWithinBudget) {
  ASSERT_TRUE(AllocHookActive());
  {
    auto [r, t] = ::caqe::testing::MakeTables(Distribution::kIndependent,
                                              4000, 4, 0.01, 2014);
    const Workload workload =
        MakeSubspaceWorkload(4, 0, 8, PriorityPolicy::kUniform, 2014).value();
    const std::vector<Contract> contracts(workload.num_queries(),
                                          MakeLogDecayContract());
    ExecOptions options;
    Observability obs;
    options.obs = &obs;
    std::unique_ptr<Engine> engine = MakeEngine("CAQE").value();
    ASSERT_TRUE(engine->Execute(r, t, workload, contracts, options).ok());
    EXPECT_LE(SteadyAllocsPerRegion(obs), kMaxAllocsPerRegion) << "batch";
  }
  {
    GeneratorConfig cfg;
    cfg.num_rows = 8000;
    cfg.num_attrs = 3;
    cfg.join_selectivities = {0.01, 0.01};
    cfg.seed = 2014;
    const Table r = GenerateTable("R", cfg).value();
    cfg.seed = 2015;
    const Table t = GenerateTable("T", cfg).value();
    const std::vector<MappingFunction> mapping = {
        MappingFunction{0, 0}, MappingFunction{1, 1}, MappingFunction{2, 2}};
    const std::vector<int> keys = {0, 1};
    TraceConfig trace_config;
    trace_config.num_requests = 80;
    trace_config.arrival_rate = 40.0;
    trace_config.seed = 2014;
    trace_config.reference_seconds = 0.1;
    ServeOptions options;
    Observability obs;
    options.obs = &obs;
    auto server = CaqeServer::Create(r, t, mapping, keys, options).value();
    SubmitTrace(*server, MakeSyntheticTrace(trace_config, keys, 3));
    ASSERT_TRUE(server->Run().ok());
    EXPECT_LE(SteadyAllocsPerRegion(obs), kMaxAllocsPerRegion) << "serving";
  }
}

}  // namespace
}  // namespace caqe
