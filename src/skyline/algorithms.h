// Single-relation skyline algorithms: brute-force oracle, Block-Nested-Loop
// (Börzsönyi et al., ICDE 2001) and Sort-Filter-Skyline (Chomicki et al.,
// ICDE 2003). These are the tuple-level kernels every engine in this
// repository builds on, and the oracle doubles as the ground truth in tests.
#ifndef CAQE_SKYLINE_ALGORITHMS_H_
#define CAQE_SKYLINE_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "skyline/point_set.h"

namespace caqe {

/// Computes the skyline of `points` over dimension indices `dims` by
/// comparing every pair (O(n^2) worst case, no shortcuts). Returns the row
/// indices of skyline members in ascending order. If `comparisons` is
/// non-null it is incremented by the number of pairwise comparisons made.
///
/// Intended as the correctness oracle; use BNL/SFS in engines.
std::vector<int64_t> BruteForceSkyline(const PointSet& points,
                                       const std::vector<int>& dims,
                                       int64_t* comparisons = nullptr);

/// Block-Nested-Loop skyline: maintains a window of candidate points; each
/// new point is compared against the window, evicting dominated candidates.
/// Returns row indices of skyline members in ascending order.
std::vector<int64_t> BnlSkyline(const PointSet& points,
                                const std::vector<int>& dims,
                                int64_t* comparisons = nullptr);

/// Sort-Filter-Skyline: pre-sorts points by a monotone scoring function (sum
/// over `dims`), after which a point can only be dominated by points that
/// precede it, so the window never shrinks. Returns row indices of skyline
/// members in ascending order.
std::vector<int64_t> SfsSkyline(const PointSet& points,
                                const std::vector<int>& dims,
                                int64_t* comparisons = nullptr);

}  // namespace caqe

#endif  // CAQE_SKYLINE_ALGORITHMS_H_
