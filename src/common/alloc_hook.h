// Optional thread-local heap-allocation accounting.
//
// The engine never reads these counters on its own behalf: they exist so
// the alloc-gate benchmark (bench/bench_alloc.cc) and alloc_hook_test can
// assert that the steady-state region hot path performs ~zero heap
// allocations. Two linkage flavors share this interface:
//
//  - caqe_common provides *weak* no-op definitions (AllocHookActive()
//    returns false, counts are zero), so ordinary binaries pay one dead
//    branch and no global operator new/delete replacement.
//  - the caqe_alloc_hook static library provides strong definitions plus a
//    counting global operator new/delete. Binaries that want accounting
//    link it *before* the caqe libraries (see bench/CMakeLists.txt) so the
//    strong definitions win archive resolution.
//
// Counting never feeds reports or the virtual clock — it is observability
// only, exported through the caqe_alloc_* metrics.
#ifndef CAQE_COMMON_ALLOC_HOOK_H_
#define CAQE_COMMON_ALLOC_HOOK_H_

#include <cstdint>

namespace caqe {

/// Allocation totals of the calling thread since thread start.
struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t deallocs = 0;
  uint64_t bytes = 0;
};

/// True when the counting operator new/delete replacement is linked in.
bool AllocHookActive();

/// The calling thread's running totals (all zero without the hook).
AllocCounts ThreadAllocCounts();

}  // namespace caqe

#endif  // CAQE_COMMON_ALLOC_HOOK_H_
