#include "skyline/dominance_batch.h"

#include <algorithm>
#include <atomic>

#if defined(__x86_64__) && defined(__GNUC__)
#define CAQE_HAVE_AVX2_BACKEND 1
#include <immintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_NEON)
#define CAQE_HAVE_NEON_BACKEND 1
#include <arm_neon.h>
#endif

namespace caqe {
namespace {

// Raw kernel signatures: `cols[k]` points at the first candidate's value of
// compared dimension k (already offset by the caller), n candidates each.
using FlagsFn = void (*)(const double* a, const double* const* cols,
                         int64_t n, int ndims, uint8_t* out);
using WeakFn = void (*)(const double* a, const double* const* cols,
                        int64_t n, int ndims, uint8_t* out);

// ---- Scalar backend (the bit-compatibility reference). ----

void FlagsScalar(const double* a, const double* const* cols, int64_t n,
                 int ndims, uint8_t* out) {
  for (int64_t j = 0; j < n; ++j) {
    out[j] = CandidateDominanceFlags(a, cols, j, ndims);
  }
}

void WeakScalar(const double* a, const double* const* cols, int64_t n,
                int ndims, uint8_t* out) {
  for (int64_t j = 0; j < n; ++j) {
    uint8_t weak = 1;
    for (int k = 0; k < ndims; ++k) {
      if (a[k] > cols[k][j]) {
        weak = 0;
        break;
      }
    }
    out[j] = weak;
  }
}

// ---- AVX2 backend: 4 candidates per iteration. ----
//
// All four outcome bits are accumulated branchlessly as lane masks; IEEE
// ordered comparisons are exact, so the per-lane movemask bits reproduce the
// scalar backend's flags byte for byte.

#if CAQE_HAVE_AVX2_BACKEND

__attribute__((target("avx2"))) void FlagsAvx2(const double* a,
                                               const double* const* cols,
                                               int64_t n, int ndims,
                                               uint8_t* out) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d a_any = _mm256_setzero_pd();
    __m256d b_any = _mm256_setzero_pd();
    __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    __m256d a_all = ones;
    __m256d b_all = ones;
    for (int k = 0; k < ndims; ++k) {
      const __m256d av = _mm256_set1_pd(a[k]);
      const __m256d bv = _mm256_loadu_pd(cols[k] + j);
      const __m256d lt = _mm256_cmp_pd(av, bv, _CMP_LT_OQ);
      const __m256d gt = _mm256_cmp_pd(av, bv, _CMP_GT_OQ);
      a_any = _mm256_or_pd(a_any, lt);
      b_any = _mm256_or_pd(b_any, gt);
      a_all = _mm256_and_pd(a_all, lt);
      b_all = _mm256_and_pd(b_all, gt);
    }
    const int ma = _mm256_movemask_pd(a_any);
    const int mb = _mm256_movemask_pd(b_any);
    const int mas = _mm256_movemask_pd(a_all);
    const int mbs = _mm256_movemask_pd(b_all);
    for (int l = 0; l < 4; ++l) {
      out[j + l] = static_cast<uint8_t>(
          (((ma >> l) & 1) * kBatchABetter) |
          (((mb >> l) & 1) * kBatchBBetter) |
          (((mas >> l) & 1) * kBatchAStrict) |
          (((mbs >> l) & 1) * kBatchBStrict));
    }
  }
  if (j < n) {
    const double* tail_cols[kBatchMaxDims];
    for (int k = 0; k < ndims; ++k) tail_cols[k] = cols[k] + j;
    FlagsScalar(a, tail_cols, n - j, ndims, out + j);
  }
}

__attribute__((target("avx2"))) void WeakAvx2(const double* a,
                                              const double* const* cols,
                                              int64_t n, int ndims,
                                              uint8_t* out) {
  int64_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d violated = _mm256_setzero_pd();
    for (int k = 0; k < ndims; ++k) {
      const __m256d av = _mm256_set1_pd(a[k]);
      const __m256d bv = _mm256_loadu_pd(cols[k] + j);
      violated = _mm256_or_pd(violated, _mm256_cmp_pd(av, bv, _CMP_GT_OQ));
    }
    const int mv = _mm256_movemask_pd(violated);
    for (int l = 0; l < 4; ++l) {
      out[j + l] = static_cast<uint8_t>(((mv >> l) & 1) ^ 1);
    }
  }
  if (j < n) {
    const double* tail_cols[kBatchMaxDims];
    for (int k = 0; k < ndims; ++k) tail_cols[k] = cols[k] + j;
    WeakScalar(a, tail_cols, n - j, ndims, out + j);
  }
}

#endif  // CAQE_HAVE_AVX2_BACKEND

// ---- NEON backend: 2 candidates per iteration (aarch64 float64x2). ----

#if CAQE_HAVE_NEON_BACKEND

void FlagsNeon(const double* a, const double* const* cols, int64_t n,
               int ndims, uint8_t* out) {
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    uint64x2_t a_any = vdupq_n_u64(0);
    uint64x2_t b_any = vdupq_n_u64(0);
    uint64x2_t a_all = vdupq_n_u64(~uint64_t{0});
    uint64x2_t b_all = vdupq_n_u64(~uint64_t{0});
    for (int k = 0; k < ndims; ++k) {
      const float64x2_t av = vdupq_n_f64(a[k]);
      const float64x2_t bv = vld1q_f64(cols[k] + j);
      const uint64x2_t lt = vcltq_f64(av, bv);
      const uint64x2_t gt = vcgtq_f64(av, bv);
      a_any = vorrq_u64(a_any, lt);
      b_any = vorrq_u64(b_any, gt);
      a_all = vandq_u64(a_all, lt);
      b_all = vandq_u64(b_all, gt);
    }
    uint64_t lanes_a_any[2], lanes_b_any[2], lanes_a_all[2], lanes_b_all[2];
    vst1q_u64(lanes_a_any, a_any);
    vst1q_u64(lanes_b_any, b_any);
    vst1q_u64(lanes_a_all, a_all);
    vst1q_u64(lanes_b_all, b_all);
    for (int l = 0; l < 2; ++l) {
      out[j + l] = static_cast<uint8_t>(
          (lanes_a_any[l] ? kBatchABetter : 0) |
          (lanes_b_any[l] ? kBatchBBetter : 0) |
          (lanes_a_all[l] ? kBatchAStrict : 0) |
          (lanes_b_all[l] ? kBatchBStrict : 0));
    }
  }
  if (j < n) {
    const double* tail_cols[kBatchMaxDims];
    for (int k = 0; k < ndims; ++k) tail_cols[k] = cols[k] + j;
    FlagsScalar(a, tail_cols, n - j, ndims, out + j);
  }
}

void WeakNeon(const double* a, const double* const* cols, int64_t n,
              int ndims, uint8_t* out) {
  int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    uint64x2_t violated = vdupq_n_u64(0);
    for (int k = 0; k < ndims; ++k) {
      const float64x2_t av = vdupq_n_f64(a[k]);
      const float64x2_t bv = vld1q_f64(cols[k] + j);
      violated = vorrq_u64(violated, vcgtq_f64(av, bv));
    }
    out[j] = vgetq_lane_u64(violated, 0) == 0 ? 1 : 0;
    out[j + 1] = vgetq_lane_u64(violated, 1) == 0 ? 1 : 0;
  }
  if (j < n) {
    const double* tail_cols[kBatchMaxDims];
    for (int k = 0; k < ndims; ++k) tail_cols[k] = cols[k] + j;
    WeakScalar(a, tail_cols, n - j, ndims, out + j);
  }
}

#endif  // CAQE_HAVE_NEON_BACKEND

// ---- Runtime dispatch. ----

struct KernelTable {
  FlagsFn flags = &FlagsScalar;
  WeakFn weak = &WeakScalar;
  const char* isa = "scalar";
};

constexpr KernelTable kScalarKernels{};

// One vector backend per architecture: AVX2 on x86-64 CPUs that have it,
// NEON on aarch64, scalar otherwise.
KernelTable SelectKernels() {
#if CAQE_HAVE_AVX2_BACKEND
  if (__builtin_cpu_supports("avx2")) return {&FlagsAvx2, &WeakAvx2, "avx2"};
#elif CAQE_HAVE_NEON_BACKEND
  return {&FlagsNeon, &WeakNeon, "neon"};
#endif
  return kScalarKernels;
}

// Live ScopedScalarBatchKernels objects; while any is alive every batch
// call runs the scalar kernels instead of the CPU's pick.
std::atomic<int> g_scalar_overrides{0};

const KernelTable& ActiveKernels() {
  static const KernelTable cpu_kernels = SelectKernels();
  return g_scalar_overrides.load() > 0 ? kScalarKernels : cpu_kernels;
}

}  // namespace

void BatchDominanceFlags(const double* a, const SubspaceView& view,
                         int64_t begin, int64_t end, uint8_t* out) {
  CAQE_DCHECK(begin >= 0 && begin <= end && end <= view.size());
  if (begin == end) return;
  const double* cols[kBatchMaxDims];
  const int ndims = view.ColumnPointers(begin, cols);
  const int64_t n = end - begin;
  // Small batches go straight to the scalar reference kernel (see
  // kBatchSmallN). Bit-identical by construction: every backend
  // reproduces FlagsScalar byte for byte.
  if (n < kBatchSmallN) {
    FlagsScalar(a, cols, n, ndims, out);
    return;
  }
  ActiveKernels().flags(a, cols, n, ndims, out);
}

void BatchCompareDominance(const double* a, const SubspaceView& view,
                           int64_t begin, int64_t end, DomResult* out) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  // Flag bytes decode losslessly into the four-way DomResult; reuse a small
  // stack block so the conversion stays allocation-free.
  constexpr int64_t kBlock = 256;
  uint8_t flags[kBlock];
  for (int64_t done = 0; done < n; done += kBlock) {
    const int64_t len = std::min<int64_t>(kBlock, n - done);
    BatchDominanceFlags(a, view, begin + done, begin + done + len, flags);
    for (int64_t j = 0; j < len; ++j) out[done + j] = BatchDomResult(flags[j]);
  }
}

void BatchWeaklyDominates(const double* a, const SubspaceView& view,
                          int64_t begin, int64_t end, uint8_t* out) {
  CAQE_DCHECK(begin >= 0 && begin <= end && end <= view.size());
  if (begin == end) return;
  const double* cols[kBatchMaxDims];
  const int ndims = view.ColumnPointers(begin, cols);
  const int64_t n = end - begin;
  if (n < kBatchSmallN) {
    WeakScalar(a, cols, n, ndims, out);
    return;
  }
  ActiveKernels().weak(a, cols, n, ndims, out);
}

const char* BatchKernelIsaName() { return ActiveKernels().isa; }

ScopedScalarBatchKernels::ScopedScalarBatchKernels() {
  ++g_scalar_overrides;
}

ScopedScalarBatchKernels::~ScopedScalarBatchKernels() {
  --g_scalar_overrides;
}

}  // namespace caqe
