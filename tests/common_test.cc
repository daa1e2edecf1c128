// Unit tests for the common substrate: Status/Result, QuerySet, Rng,
// VirtualClock, ThreadPool.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/query_set.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/virtual_clock.h"

namespace caqe {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kNotImplemented}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

Status FailsThenPropagates() {
  CAQE_RETURN_NOT_OK(Status::NotFound("inner"));
  return Status::Internal("unreachable");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  const Status s = FailsThenPropagates();
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  const std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(QuerySetTest, BasicMembership) {
  QuerySet s;
  EXPECT_TRUE(s.empty());
  s.Add(3);
  s.Add(63);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_TRUE(s.Contains(63));
  EXPECT_FALSE(s.Contains(0));
  EXPECT_EQ(s.size(), 2);
  s.Remove(3);
  EXPECT_FALSE(s.Contains(3));
  EXPECT_EQ(s.size(), 1);
}

TEST(QuerySetTest, AllOfCoversPrefix) {
  const QuerySet s = QuerySet::AllOf(5);
  EXPECT_EQ(s.size(), 5);
  for (int q = 0; q < 5; ++q) EXPECT_TRUE(s.Contains(q));
  EXPECT_FALSE(s.Contains(5));
  EXPECT_EQ(QuerySet::AllOf(64).size(), 64);
  EXPECT_TRUE(QuerySet::AllOf(0).empty());
}

TEST(QuerySetTest, SetAlgebra) {
  const QuerySet a = QuerySet::Of(1).Union(QuerySet::Of(4));
  const QuerySet b = QuerySet::Of(4).Union(QuerySet::Of(9));
  EXPECT_EQ(a.Intersect(b), QuerySet::Of(4));
  EXPECT_EQ(a.Minus(b), QuerySet::Of(1));
  EXPECT_TRUE(QuerySet::Of(4).IsSubsetOf(a));
  EXPECT_FALSE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(QuerySet::Of(2).Intersects(a));
}

TEST(QuerySetTest, ForEachAscending) {
  QuerySet s;
  s.Add(10);
  s.Add(2);
  s.Add(33);
  std::vector<int> seen;
  s.ForEach([&](int q) { seen.push_back(q); });
  EXPECT_EQ(seen, (std::vector<int>{2, 10, 33}));
  EXPECT_EQ(s.ToString(), "{2,10,33}");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
    const int64_t n = rng.UniformInt(-3, 3);
    EXPECT_GE(n, -3);
    EXPECT_LE(n, 3);
  }
}

TEST(VirtualClockTest, AdvancesByCostModel) {
  CostModel cost;
  cost.join_probe_seconds = 1.0;
  cost.dominance_cmp_seconds = 0.5;
  VirtualClock clock(cost);
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
  clock.ChargeJoinProbes(3);
  EXPECT_DOUBLE_EQ(clock.Now(), 3.0);
  clock.ChargeDominanceCmps(4);
  EXPECT_DOUBLE_EQ(clock.Now(), 5.0);
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Now(), 0.0);
}

TEST(VirtualClockTest, MonotoneUnderAllCharges) {
  VirtualClock clock;
  double last = clock.Now();
  clock.ChargeJoinProbes(10);
  EXPECT_GE(clock.Now(), last);
  last = clock.Now();
  clock.ChargeJoinResults(10);
  EXPECT_GE(clock.Now(), last);
  last = clock.Now();
  clock.ChargeEmits(10);
  EXPECT_GE(clock.Now(), last);
  last = clock.Now();
  clock.ChargeScheduleSteps(1);
  EXPECT_GE(clock.Now(), last);
  last = clock.Now();
  clock.ChargeCoarseOps(100);
  EXPECT_GE(clock.Now(), last);
}

// ---- Thread pool ----

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(5), 5);
  // 0 and negatives resolve to the hardware parallelism, at least 1.
  EXPECT_GE(ResolveNumThreads(0), 1);
  EXPECT_GE(ResolveNumThreads(-3), 1);
}

TEST(ThreadPoolTest, SubmitRunsTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  std::future<void> f =
      pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The worker that threw keeps serving later tasks.
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ChunkRangePartitionsExactly) {
  for (int64_t n : {0, 1, 7, 64, 1000}) {
    for (int chunks : {1, 2, 3, 8}) {
      int64_t expected_begin = 0;
      int64_t covered = 0;
      for (int c = 0; c < chunks; ++c) {
        const auto [begin, end] = ChunkRange(n, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        covered += end - begin;
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, n);
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ThreadPoolTest, NumChunksBounds) {
  // No pool: everything stays a single inline chunk.
  EXPECT_EQ(NumChunks(nullptr, 1000, 1), 1);
  ThreadPool pool(3);
  // Bounded by workers + caller...
  EXPECT_EQ(NumChunks(&pool, 1000000, 1), 4);
  // ...by the minimum chunk size...
  EXPECT_EQ(NumChunks(&pool, 100, 50), 2);
  // ...and by the item count.
  EXPECT_EQ(NumChunks(&pool, 2, 1), 2);
  EXPECT_EQ(NumChunks(&pool, 0, 1), 1);
}

// The region pipeline's fork rule: a phase runs on the calling thread until
// its work affords two chunks of its grain, then takes one chunk per grain,
// never more than the pool's workers + 1 nor than its items.
TEST(ThreadPoolTest, NumChunksByWorkForksOnlyAboveTheGrain) {
  ThreadPool pool(3);
  constexpr int64_t kGrain = 4096;
  EXPECT_EQ(NumChunks(nullptr, 1000, int64_t{1} << 30, kGrain), 1);
  EXPECT_EQ(NumChunks(&pool, 1000, 0, kGrain), 1);
  EXPECT_EQ(NumChunks(&pool, 1000, 2 * kGrain - 1, kGrain), 1);
  EXPECT_EQ(NumChunks(&pool, 1000, 2 * kGrain, kGrain), 2);
  EXPECT_EQ(NumChunks(&pool, 1000, 3 * kGrain, kGrain), 3);
  for (const int64_t work : {4 * kGrain, 100 * kGrain, int64_t{1} << 40}) {
    EXPECT_EQ(NumChunks(&pool, 1000, work, kGrain), pool.num_threads() + 1);
  }
  // Few items with much work each (plan groups): one chunk per item at most.
  EXPECT_EQ(NumChunks(&pool, 2, 100 * kGrain, kGrain), 2);
  EXPECT_EQ(NumChunks(&pool, 0, 100 * kGrain, kGrain), 1);
  // Items as the unit of work: the three-argument form.
  EXPECT_EQ(NumChunks(&pool, 100 * kGrain, kGrain),
            NumChunks(&pool, 100 * kGrain, 100 * kGrain, kGrain));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(&pool, kN, /*min_chunk=*/16,
              [&](int64_t i) { hits[i] += 1; });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
  // A null pool runs inline and still covers everything.
  std::vector<int> serial_hits(kN, 0);
  ParallelFor(nullptr, kN, 16, [&](int64_t i) { serial_hits[i] += 1; });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(serial_hits[i], 1);
}

TEST(ThreadPoolTest, RunChunksRethrowsLowestChunkException) {
  ThreadPool pool(2);
  try {
    RunChunks(&pool, 4, [&](int c) {
      if (c == 1) throw std::runtime_error("chunk 1");
      if (c == 3) throw std::logic_error("chunk 3");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 1");
  }
}

}  // namespace
}  // namespace caqe
