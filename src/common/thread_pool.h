// Bounded thread pool and deterministic chunked parallel-for.
//
// Engines run on a *virtual* clock (see virtual_clock.h): contract scores
// are charged per unit of logical work, never per wall second. That makes
// wall-clock parallelism score-neutral — as long as every parallel phase
// produces bit-identical state and identical work counters, reports cannot
// depend on the thread count. The helpers here are built around that
// requirement:
//
//  * chunk boundaries depend only on (n, chunk count), never on scheduling,
//  * chunk results are merged in chunk order by the caller,
//  * there is no work stealing — tasks are coarse phase chunks, so a single
//    FIFO queue is cheap and keeps the execution easy to reason about.
#ifndef CAQE_COMMON_THREAD_POOL_H_
#define CAQE_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace caqe {

/// Resolves an EngineOptions-style thread-count request: <= 0 means "all
/// hardware threads" (at least 1); anything else is taken literally.
int ResolveNumThreads(int requested);

/// Fixed-size thread pool with one FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1).
  explicit ThreadPool(int num_threads);

  /// Joins all workers after draining the queue.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn`. The future reports completion and rethrows any
  /// exception the task raised.
  std::future<void> Submit(std::function<void()> fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Worker pool for a `requested` total thread count (see
/// ResolveNumThreads). The calling thread always runs chunks too, so N
/// threads means N - 1 workers; null when that leaves none (the serial
/// path).
std::unique_ptr<ThreadPool> MakeWorkerPool(int requested);

/// Number of contiguous chunks a chunked phase should split `n` items into:
/// 1 without a pool (or when n / min_chunk allows no more), otherwise up to
/// one chunk per worker plus one for the calling thread.
int NumChunks(const ThreadPool* pool, int64_t n, int64_t min_chunk);

/// The same rule for a phase whose `n` items carry `work` units in all
/// (DESIGN.md §7): 1 — the calling thread runs the phase alone — without a
/// pool or when the work affords no second chunk of `min_chunk_work` units;
/// otherwise one chunk per `min_chunk_work` units, capped at one per worker
/// plus one for the caller and at `n`. A phase sets `min_chunk_work` to the
/// work that outweighs a worker's wake-up, so it forks only when the fork
/// pays.
int NumChunks(const ThreadPool* pool, int64_t n, int64_t work,
              int64_t min_chunk_work);

/// Half-open item range of chunk `chunk` out of `chunks` over [0, n).
/// Depends only on the arguments, so chunked phases partition work
/// identically on every run.
std::pair<int64_t, int64_t> ChunkRange(int64_t n, int chunks, int chunk);

/// Runs fn(chunk) for chunk in [0, chunks): all but the last go to the
/// pool, the last runs on the calling thread. Blocks until every chunk
/// completes; if any threw, the lowest-indexed chunk's exception is
/// rethrown. `pool` may be null (or chunks 1), in which case every chunk
/// runs inline on the caller. Templated on the callable so the inline
/// path never builds a std::function: region phases call this once or
/// more per region with capture lists well past the small-buffer limit,
/// and the type-erased signature cost a heap allocation per call even
/// single-threaded.
template <typename Fn>
void RunChunks(ThreadPool* pool, int chunks, Fn&& fn) {
  if (chunks <= 0) return;
  if (pool == nullptr || chunks == 1) {
    for (int c = 0; c < chunks; ++c) fn(c);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (int c = 0; c < chunks - 1; ++c) {
    futures.push_back(pool->Submit([&fn, c] { fn(c); }));
  }
  // The caller contributes the last chunk; its exception must not skip the
  // waits below, so it is captured like any other chunk's.
  std::vector<std::exception_ptr> errors(chunks);
  try {
    fn(chunks - 1);
  } catch (...) {
    errors[chunks - 1] = std::current_exception();
  }
  for (int c = 0; c < chunks - 1; ++c) {
    try {
      futures[c].get();
    } catch (...) {
      errors[c] = std::current_exception();
    }
  }
  for (int c = 0; c < chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
  }
}

/// Elementwise parallel-for over [0, n): chunks the range with NumChunks /
/// ChunkRange and invokes fn(i) for every i. Exceptions propagate as in
/// RunChunks; the callable is likewise taken by deduced type, never
/// erased.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int64_t n, int64_t min_chunk, Fn&& fn) {
  const int chunks = NumChunks(pool, n, min_chunk);
  if (chunks <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  RunChunks(pool, chunks, [&](int c) {
    const auto [begin, end] = ChunkRange(n, chunks, c);
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace caqe

#endif  // CAQE_COMMON_THREAD_POOL_H_
