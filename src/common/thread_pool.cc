#include "common/thread_pool.h"

#include <algorithm>

#include "common/macros.h"

namespace caqe {

int ResolveNumThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<ThreadPool> MakeWorkerPool(int requested) {
  const int num_threads = ResolveNumThreads(requested);
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads - 1);
}

ThreadPool::ThreadPool(int num_threads) {
  CAQE_CHECK(num_threads >= 1);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    CAQE_CHECK(!stop_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // Exceptions land in the task's future.
  }
}

int NumChunks(const ThreadPool* pool, int64_t n, int64_t min_chunk) {
  if (pool == nullptr || n <= 0) return 1;
  const int64_t width = pool->num_threads() + 1;  // Workers + caller.
  const int64_t by_size =
      min_chunk <= 0 ? n : std::max<int64_t>(1, n / min_chunk);
  return static_cast<int>(std::min({width, by_size, n}));
}

std::pair<int64_t, int64_t> ChunkRange(int64_t n, int chunks, int chunk) {
  CAQE_DCHECK(chunks >= 1 && chunk >= 0 && chunk < chunks);
  const int64_t base = n / chunks;
  const int64_t rem = n % chunks;
  const int64_t begin = chunk * base + std::min<int64_t>(chunk, rem);
  const int64_t extra = chunk < rem ? 1 : 0;
  return {begin, begin + base + extra};
}

}  // namespace caqe
