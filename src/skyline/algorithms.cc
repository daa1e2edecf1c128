#include "skyline/algorithms.h"

#include <algorithm>
#include <numeric>

#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"

namespace caqe {
namespace {

int64_t Bump(int64_t* counter) {
  if (counter != nullptr) ++*counter;
  return 0;
}

/// Decoded per-candidate outcomes of a batch flag byte, relative to the
/// probe: probe dominates the candidate / candidate dominates the probe.
inline bool ProbeDominates(uint8_t f) {
  return (f & kBatchABetter) != 0 && (f & kBatchBBetter) == 0;
}
inline bool ProbeDominated(uint8_t f) {
  return (f & kBatchBBetter) != 0 && (f & kBatchABetter) == 0;
}

/// Reusable state of a batched windowed skyline scan: the candidate window
/// gathered column-wise plus per-insert scratch. One instance serves a whole
/// scan, so the hot loop performs no allocations after warm-up.
struct WindowScratch {
  explicit WindowScratch(const std::vector<int>& dims)
      : view(dims), probe(dims.size()) {}

  SubspaceView view;
  std::vector<uint8_t> flags;
  std::vector<double> probe;
};

/// One BNL window step for points.row(row): batch-compares the probe against
/// the whole window, then replays the serial loop's decisions from the flag
/// bytes — members the probe dominates are evicted up to (exclusive) the
/// first member dominating the probe, everything after that point survives
/// untouched, and the comparison charge stops at the dominating member
/// exactly as the serial break did.
void WindowInsert(const PointSet& points, int64_t row,
                  std::vector<int64_t>& window, WindowScratch& scratch,
                  int64_t* comparisons) {
  GatherPoint(points.row(row), scratch.view.dims(), scratch.probe.data());
  const int64_t w = scratch.view.size();
  scratch.flags.resize(static_cast<size_t>(w));
  BatchDominanceFlags(scratch.probe.data(), scratch.view, 0, w,
                      scratch.flags.data());

  bool dominated = false;
  int64_t keep = 0;
  int64_t j = 0;
  for (; j < w; ++j) {
    const uint8_t f = scratch.flags[j];
    if (ProbeDominated(f)) {
      dominated = true;
      break;
    }
    if (!ProbeDominates(f)) {
      window[keep] = window[j];
      scratch.view.MoveRow(keep, j);
      ++keep;
    }
  }
  if (dominated) {
    // Members at and after the dominator were not visited serially; keep
    // the remainder untouched.
    for (int64_t rest = j; rest < w; ++rest) {
      window[keep] = window[rest];
      scratch.view.MoveRow(keep, rest);
      ++keep;
    }
  }
  window.resize(static_cast<size_t>(keep));
  scratch.view.Truncate(keep);
  if (comparisons != nullptr) *comparisons += dominated ? j + 1 : w;
  if (!dominated) {
    window.push_back(row);
    scratch.view.PushGathered(scratch.probe.data());
  }
}

/// Windowed skyline scan over `rows` in order; returns surviving row ids in
/// window (insertion) order.
std::vector<int64_t> WindowSkylineScan(const PointSet& points,
                                       const std::vector<int>& dims,
                                       const std::vector<int64_t>& rows,
                                       int64_t* comparisons) {
  std::vector<int64_t> window;
  const int64_t n = static_cast<int64_t>(rows.size());
  // Skylines are typically tiny relative to n; a small up-front slab
  // absorbs the early regrows of the hot window without overcommitting.
  window.reserve(static_cast<size_t>(std::min<int64_t>(n, 64)));
  WindowScratch scratch(dims);
  scratch.view.Reserve(std::min<int64_t>(n, 64));
  for (int64_t row : rows) {
    WindowInsert(points, row, window, scratch, comparisons);
  }
  return window;
}

}  // namespace

std::vector<int64_t> BruteForceSkyline(const PointSet& points,
                                       const std::vector<int>& dims,
                                       int64_t* comparisons) {
  // Deliberately stays on the scalar one-pair CompareDominance: this is the
  // oracle the batch kernels are differentially tested against.
  const int64_t n = points.size();
  std::vector<int64_t> result;
  for (int64_t i = 0; i < n; ++i) {
    bool dominated = false;
    for (int64_t j = 0; j < n && !dominated; ++j) {
      if (i == j) continue;
      Bump(comparisons);
      dominated = Dominates(points.row(j), points.row(i), dims);
    }
    if (!dominated) result.push_back(i);
  }
  return result;
}

std::vector<int64_t> BnlSkyline(const PointSet& points,
                                const std::vector<int>& dims,
                                int64_t* comparisons) {
  std::vector<int64_t> rows(points.size());
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<int64_t> window =
      WindowSkylineScan(points, dims, rows, comparisons);
  std::sort(window.begin(), window.end());
  return window;
}

std::vector<int64_t> SfsSkyline(const PointSet& points,
                                const std::vector<int>& dims,
                                int64_t* comparisons) {
  const int64_t n = points.size();
  std::vector<int64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> score(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const double* p = points.row(i);
    for (int k : dims) score[i] += p[k];
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](int64_t a, int64_t b) { return score[a] < score[b]; });

  // After sorting by a monotone function, no point can dominate one that
  // precedes it, so the window only grows; each candidate batches against
  // the gathered window in one call.
  std::vector<int64_t> window;
  window.reserve(static_cast<size_t>(std::min<int64_t>(n, 64)));
  WindowScratch scratch(dims);
  scratch.view.Reserve(std::min<int64_t>(n, 64));
  for (int64_t idx = 0; idx < n; ++idx) {
    const int64_t i = order[idx];
    GatherPoint(points.row(i), dims, scratch.probe.data());
    const int64_t w = scratch.view.size();
    scratch.flags.resize(static_cast<size_t>(w));
    BatchDominanceFlags(scratch.probe.data(), scratch.view, 0, w,
                        scratch.flags.data());
    bool dominated = false;
    int64_t j = 0;
    for (; j < w; ++j) {
      if (ProbeDominated(scratch.flags[j])) {
        dominated = true;
        break;
      }
    }
    if (comparisons != nullptr) *comparisons += dominated ? j + 1 : w;
    if (!dominated) {
      window.push_back(i);
      scratch.view.PushGathered(scratch.probe.data());
    }
  }
  std::sort(window.begin(), window.end());
  return window;
}

}  // namespace caqe
