// Differential tests: the batch dominance kernels (dispatched SIMD and
// forced-scalar) must agree element-for-element with the one-pair scalar
// comparators of dominance.h on every candidate, including widths that are
// not a multiple of any vector lane count, tie-heavy quantized data, and
// NaN-free extreme magnitudes.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "skyline/dominance.h"
#include "skyline/dominance_batch.h"

namespace caqe {
namespace {

/// Reference for the kBatch*Strict bits: x strictly better than y in every
/// compared dimension (vacuously true when dims is empty).
bool StrictEverywhere(const double* x, const double* y,
                      const std::vector<int>& dims) {
  for (int k : dims) {
    if (!(x[k] < y[k])) return false;
  }
  return true;
}

/// One full-width probe plus `n` full-width candidate rows and the matching
/// column-gathered view over `dims`.
struct Block {
  std::vector<int> dims;
  std::vector<double> probe;                     // Full width.
  std::vector<std::vector<double>> candidates;   // Full-width rows.
  SubspaceView view;
  std::vector<double> gathered_probe;
};

/// Draws one value. Quantized mode draws small integers so exact ties and
/// all-dimension strict relations both occur often; otherwise a continuous
/// value with occasional extreme magnitudes (the kernels do unordered-safe
/// comparisons, but inputs stay NaN-free by contract).
double DrawValue(Rng& rng, bool quantize) {
  if (quantize) return static_cast<double>(rng.UniformInt(0, 3));
  if (rng.Bernoulli(0.05)) return rng.Bernoulli(0.5) ? 1e300 : -1e300;
  return rng.Uniform(-10.0, 10.0);
}

Block MakeBlock(Rng& rng, int width, std::vector<int> dims, int64_t n,
                bool quantize) {
  Block block;
  block.dims = std::move(dims);
  block.probe.resize(width);
  for (double& v : block.probe) v = DrawValue(rng, quantize);
  block.view.Reset(block.dims);
  block.candidates.resize(static_cast<size_t>(n));
  for (auto& row : block.candidates) {
    row.resize(width);
    if (rng.Bernoulli(0.1)) {
      row = block.probe;  // Exact duplicate: must decode to kEqual.
    } else {
      for (double& v : row) v = DrawValue(rng, quantize);
    }
    block.view.PushPoint(row.data());
  }
  block.gathered_probe.resize(block.dims.size());
  GatherPoint(block.probe.data(), block.dims, block.gathered_probe.data());
  return block;
}

/// The sweep shared by the kernel tests: widths and candidate counts chosen
/// to hit every lane-tail combination (n % 4 and n % 2 all values), strided
/// and reordered dimension subsets, tie-heavy and continuous data. Batches
/// below kBatchSmallN run the scalar kernel, so 17-19 (with 33 and 100)
/// are what drive the dispatched vector kernel through lane tails 0-3.
void ForEachConfig(
    const std::function<void(Rng&, int, const std::vector<int>&, int64_t,
                             bool)>& fn) {
  struct DimsCase {
    int width;
    std::vector<int> dims;
  };
  const std::vector<DimsCase> dims_cases = {
      {1, {0}},
      {2, {0, 1}},
      {4, {0, 1, 2, 3}},
      {4, {3, 0, 2}},        // Reordered, strided subset.
      {6, {5, 1, 3}},
      {10, {0, 2, 4, 6, 8, 9}},
  };
  static_assert(kBatchSmallN <= 17,
                "counts 17-19 must reach the dispatched vector kernels");
  const std::vector<int64_t> counts = {0,  1,  2,  3,  4,  5,  7,
                                       8,  15, 17, 18, 19, 33, 100};
  Rng rng(20140605);
  for (const DimsCase& dc : dims_cases) {
    for (int64_t n : counts) {
      for (bool quantize : {false, true}) {
        fn(rng, dc.width, dc.dims, n, quantize);
      }
    }
  }
}

TEST(DominanceBatchTest, FlagsMatchScalarComparatorEverywhere) {
  ForEachConfig([](Rng& rng, int width, const std::vector<int>& dims,
                   int64_t n, bool quantize) {
    const Block block = MakeBlock(rng, width, dims, n, quantize);
    std::vector<uint8_t> dispatched(static_cast<size_t>(n) + 1, 0xAB);
    std::vector<uint8_t> scalar(static_cast<size_t>(n) + 1, 0xCD);
    BatchDominanceFlags(block.gathered_probe.data(), block.view, 0, n,
                        dispatched.data());
    BatchDominanceFlagsScalar(block.gathered_probe.data(), block.view, 0, n,
                              scalar.data());
    for (int64_t j = 0; j < n; ++j) {
      const uint8_t f = dispatched[static_cast<size_t>(j)];
      ASSERT_EQ(f, scalar[static_cast<size_t>(j)])
          << "dispatched/scalar disagree at row " << j;
      const double* cand = block.candidates[static_cast<size_t>(j)].data();
      ASSERT_EQ(BatchDomResult(f),
                CompareDominance(block.probe.data(), cand, dims))
          << "flag decode differs from CompareDominance at row " << j;
      ASSERT_EQ((f & kBatchAStrict) != 0,
                StrictEverywhere(block.probe.data(), cand, dims))
          << "A-strict bit wrong at row " << j;
      ASSERT_EQ((f & kBatchBStrict) != 0,
                StrictEverywhere(cand, block.probe.data(), dims))
          << "B-strict bit wrong at row " << j;
    }
    // Kernels must not write past end - begin flag bytes.
    EXPECT_EQ(dispatched[static_cast<size_t>(n)], 0xAB);
    EXPECT_EQ(scalar[static_cast<size_t>(n)], 0xCD);

    // A sub-range call must reproduce the matching slice of the full run
    // (exercises unaligned column offsets inside the vector loops).
    if (n >= 5) {
      std::vector<uint8_t> slice(static_cast<size_t>(n - 3));
      BatchDominanceFlags(block.gathered_probe.data(), block.view, 2, n - 1,
                          slice.data());
      for (int64_t j = 2; j < n - 1; ++j) {
        ASSERT_EQ(slice[static_cast<size_t>(j - 2)],
                  dispatched[static_cast<size_t>(j)])
            << "sub-range flags differ at row " << j;
      }
    }
  });
}

TEST(DominanceBatchTest, WeakMatchesScalarComparatorEverywhere) {
  ForEachConfig([](Rng& rng, int width, const std::vector<int>& dims,
                   int64_t n, bool quantize) {
    const Block block = MakeBlock(rng, width, dims, n, quantize);
    std::vector<uint8_t> dispatched(static_cast<size_t>(n) + 1, 0xAB);
    std::vector<uint8_t> scalar(static_cast<size_t>(n) + 1, 0xCD);
    BatchWeaklyDominates(block.gathered_probe.data(), block.view, 0, n,
                         dispatched.data());
    BatchWeaklyDominatesScalar(block.gathered_probe.data(), block.view, 0, n,
                               scalar.data());
    for (int64_t j = 0; j < n; ++j) {
      const double* cand = block.candidates[static_cast<size_t>(j)].data();
      ASSERT_EQ(dispatched[static_cast<size_t>(j)],
                scalar[static_cast<size_t>(j)])
          << "dispatched/scalar disagree at row " << j;
      ASSERT_EQ(dispatched[static_cast<size_t>(j)] != 0,
                WeaklyDominates(block.probe.data(), cand, dims))
          << "weak-dominance bit differs from WeaklyDominates at row " << j;
    }
    EXPECT_EQ(dispatched[static_cast<size_t>(n)], 0xAB);
    EXPECT_EQ(scalar[static_cast<size_t>(n)], 0xCD);
  });
}

TEST(DominanceBatchTest, CompareDominanceWrapperMatchesScalar) {
  Rng rng(7);
  const std::vector<int> dims = {0, 1, 2, 3, 4};
  const Block block = MakeBlock(rng, 5, dims, 33, /*quantize=*/true);
  std::vector<DomResult> results(33);
  BatchCompareDominance(block.gathered_probe.data(), block.view, 0, 33,
                        results.data());
  for (int64_t j = 0; j < 33; ++j) {
    EXPECT_EQ(results[static_cast<size_t>(j)],
              CompareDominance(block.probe.data(),
                               block.candidates[static_cast<size_t>(j)].data(),
                               dims));
  }
}

TEST(DominanceBatchTest, ZeroDimsIsEqualAndVacuouslyStrict) {
  Rng rng(11);
  const Block block =
      MakeBlock(rng, 3, std::vector<int>{}, 9, /*quantize=*/false);
  std::vector<uint8_t> flags(9);
  BatchDominanceFlags(block.gathered_probe.data(), block.view, 0, 9,
                      flags.data());
  for (uint8_t f : flags) {
    EXPECT_EQ(BatchDomResult(f), DomResult::kEqual);
    EXPECT_TRUE((f & kBatchAStrict) != 0);
    EXPECT_TRUE((f & kBatchBStrict) != 0);
  }
}

TEST(DominanceBatchTest, DispatcherReportsKnownIsa) {
  const std::string isa = BatchKernelIsaName();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
  EXPECT_EQ(BatchKernelSimdActive(), isa != "scalar");
#if defined(CAQE_SIMD_DISABLED)
  EXPECT_EQ(isa, "scalar");
#endif
}

}  // namespace
}  // namespace caqe
