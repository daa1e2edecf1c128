// One-vs-many batch dominance kernels with SIMD backends.
//
// Every skyline phase in this repository bottoms out in a loop of pairwise
// CompareDominance calls between one probe point and a window of candidates
// (BNL/SFS windows, the incremental maintainer's prefix/suffix scans, the
// Section-6 region discard test). The
// batch kernels here evaluate all candidates of such a loop in one call over
// a column-gathered view of the candidate block, so vector lanes read
// unit-stride data, and are dispatched at runtime to AVX2 (x86-64), NEON
// (aarch64) or a bit-compatible scalar fallback.
//
// Determinism contract: the kernels return, per candidate, exactly the
// outcome the scalar CompareDominance / WeaklyDominates of dominance.h
// would produce — IEEE comparisons have no rounding, so lane width cannot
// change any outcome — and callers charge the same `dominance_cmps` count
// the serial loop would have charged (one per candidate visited up to the
// serial loop's break point). Reports are therefore bit-identical across
// scalar/AVX2/NEON and every thread count.
#ifndef CAQE_SKYLINE_DOMINANCE_BATCH_H_
#define CAQE_SKYLINE_DOMINANCE_BATCH_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "skyline/dominance.h"
#include "skyline/point_set.h"

namespace caqe {

/// Hard cap on the number of compared dimensions a batch call accepts
/// (matches Subspace::kMaxDims with headroom; callers' dims are subspaces).
inline constexpr int kBatchMaxDims = 64;

/// Batches smaller than this bypass the ISA dispatch and run the scalar
/// reference kernel directly. Short batches remain common — the last
/// galloping block of an incremental prefix scan, short eviction suffixes,
/// small BNL/SFS windows — and at these sizes the vector backends would
/// execute mostly their scalar tail while the indirect call and vector
/// prologue cost more than the comparisons. (The incremental maintainer's
/// usual stop, at one of its first few members, never reaches a batch
/// call: its head scan calls CandidateDominanceFlags directly.) Outcomes
/// are bit-identical regardless of the path taken.
inline constexpr int64_t kBatchSmallN = 16;

/// Column-major (structure-of-arrays) gather of one dimension subset over a
/// window of points. Each compared dimension is stored as its own
/// contiguous array, so a one-vs-many kernel streams unit-stride loads
/// instead of strided row-major reads. Rows are kept in caller-defined
/// window order; mutation helpers mirror the window operations the skyline
/// consumers perform (append, mid insert, stable compaction).
class SubspaceView {
 public:
  SubspaceView() = default;
  explicit SubspaceView(const std::vector<int>& dims) { Reset(dims); }

  /// Binds the view to a dimension subset and clears all rows. The column
  /// pool only grows: rebinding to fewer dimensions keeps the surplus
  /// columns (and their capacity) for the next wider rebind, so a view
  /// cycled across subspaces of varying width stops allocating once it has
  /// seen the widest one.
  void Reset(const std::vector<int>& dims) {
    CAQE_CHECK(static_cast<int>(dims.size()) <= kBatchMaxDims);
    dims_ = dims;
    if (cols_.size() < dims_.size()) cols_.resize(dims_.size());
    Clear();
  }

  int ndims() const { return static_cast<int>(dims_.size()); }
  const std::vector<int>& dims() const { return dims_; }
  int64_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  void Clear() {
    for (size_t k = 0; k < dims_.size(); ++k) cols_[k].clear();
    n_ = 0;
  }
  void Reserve(int64_t n) {
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols_[k].reserve(static_cast<size_t>(n));
    }
  }

  /// Gathers a full-width point's compared dimensions and appends the row.
  void PushPoint(const double* point) {
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols_[k].push_back(point[dims_[k]]);
    }
    ++n_;
  }

  /// Appends an already gathered row (ndims() values, view dimension order).
  void PushGathered(const double* gathered) {
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols_[k].push_back(gathered[k]);
    }
    ++n_;
  }

  /// Inserts a gathered row before `pos`, shifting later rows up.
  void InsertGathered(int64_t pos, const double* gathered) {
    CAQE_DCHECK(pos >= 0 && pos <= n_);
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols_[k].insert(cols_[k].begin() + pos, gathered[k]);
    }
    ++n_;
  }

  /// Copies row `src` onto row `dst` (dst <= src): the stable-compaction
  /// primitive mirroring the consumers' window[keep++] = window[i] loops.
  void MoveRow(int64_t dst, int64_t src) {
    CAQE_DCHECK(dst >= 0 && dst <= src && src < n_);
    if (dst == src) return;
    for (size_t k = 0; k < dims_.size(); ++k) cols_[k][dst] = cols_[k][src];
  }

  /// Truncates to the first `n` rows (ends a compaction pass).
  void Truncate(int64_t n) {
    CAQE_DCHECK(n >= 0 && n <= n_);
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols_[k].resize(static_cast<size_t>(n));
    }
    n_ = n;
  }

  /// Contiguous values of compared-dimension index `k` (view order, not the
  /// global dimension id), one per row.
  const double* col(int k) const { return cols_[k].data(); }

  /// Writes every column pointer, offset to row `begin`, into
  /// cols[0..ndims()) and returns ndims(): the column array the flag
  /// kernels and CandidateDominanceFlags read.
  int ColumnPointers(int64_t begin, const double** cols) const {
    for (size_t k = 0; k < dims_.size(); ++k) {
      cols[k] = cols_[k].data() + begin;
    }
    return ndims();
  }

  double at(int64_t row, int k) const {
    CAQE_DCHECK(row >= 0 && row < n_);
    return cols_[k][static_cast<size_t>(row)];
  }

 private:
  std::vector<int> dims_;
  std::vector<std::vector<double>> cols_;
  int64_t n_ = 0;
};

/// Gathers `point`'s values over `dims` into `out` (dims.size() values) —
/// the probe-side companion of SubspaceView.
inline void GatherPoint(const double* point, const std::vector<int>& dims,
                        double* out) {
  for (size_t k = 0; k < dims.size(); ++k) out[k] = point[dims[k]];
}

/// Per-candidate outcome bits of a batch dominance comparison between the
/// gathered probe `a` and candidate `b`. The *Better bits encode the
/// classic four-way DomResult; the *Strict bits additionally report
/// all-dimension strict dominance, which the incremental maintainer needs
/// for Theorem-1 gating (strict bits are vacuously set when ndims == 0).
inline constexpr uint8_t kBatchABetter = 1;  // a[k] < b[k] for some k.
inline constexpr uint8_t kBatchBBetter = 2;  // b[k] < a[k] for some k.
inline constexpr uint8_t kBatchAStrict = 4;  // a[k] < b[k] for every k.
inline constexpr uint8_t kBatchBStrict = 8;  // b[k] < a[k] for every k.

/// Decodes flag bits into the DomResult CompareDominance would return.
inline DomResult BatchDomResult(uint8_t flags) {
  const bool a = (flags & kBatchABetter) != 0;
  const bool b = (flags & kBatchBBetter) != 0;
  if (a && b) return DomResult::kIncomparable;
  if (a) return DomResult::kDominates;
  if (b) return DomResult::kDominatedBy;
  return DomResult::kEqual;
}

/// Flag byte of one candidate: gathered probe `a` against the candidate
/// whose value of compared dimension k is cols[k][j]. This is the one
/// definition of the per-candidate comparison: the scalar kernel runs it
/// for every candidate of a batch, the incremental maintainer's head scan
/// calls it directly, and the vector backends reproduce it lane for lane.
inline uint8_t CandidateDominanceFlags(const double* a,
                                       const double* const* cols, int64_t j,
                                       int ndims) {
  uint8_t any = 0;
  uint8_t all = kBatchAStrict | kBatchBStrict;
  for (int k = 0; k < ndims; ++k) {
    const double av = a[k];
    const double bv = cols[k][j];
    if (av < bv) {
      any |= kBatchABetter;
      all &= static_cast<uint8_t>(~kBatchBStrict);
    } else if (bv < av) {
      any |= kBatchBBetter;
      all &= static_cast<uint8_t>(~kBatchAStrict);
    } else {
      all = 0;
    }
    if (any == (kBatchABetter | kBatchBBetter)) {
      // Incomparable is final and excludes both strict bits.
      return any;
    }
  }
  return static_cast<uint8_t>(any | all);
}

/// Compares gathered probe `a` (view.ndims() values) against view rows
/// [begin, end), writing one flag byte per candidate to out[0..end-begin).
/// Dispatched to the best available ISA; bit-compatible across backends.
void BatchDominanceFlags(const double* a, const SubspaceView& view,
                         int64_t begin, int64_t end, uint8_t* out);

/// Forced-scalar variant of BatchDominanceFlags (differential testing and
/// the CAQE_SIMD=OFF build path).
void BatchDominanceFlagsScalar(const double* a, const SubspaceView& view,
                               int64_t begin, int64_t end, uint8_t* out);

/// Writes out[j] = CompareDominance(a, row begin+j) for each candidate.
void BatchCompareDominance(const double* a, const SubspaceView& view,
                           int64_t begin, int64_t end, DomResult* out);

/// Writes out[j] = 1 iff `a` weakly dominates view row begin+j (a <= b in
/// every compared dimension), else 0. Dispatched like BatchDominanceFlags.
void BatchWeaklyDominates(const double* a, const SubspaceView& view,
                          int64_t begin, int64_t end, uint8_t* out);

/// Forced-scalar variant of BatchWeaklyDominates.
void BatchWeaklyDominatesScalar(const double* a, const SubspaceView& view,
                                int64_t begin, int64_t end, uint8_t* out);

/// Name of the ISA the dispatcher selected: "avx2", "neon" or "scalar".
/// Selection happens once per process: AVX2 on x86-64 CPUs that support
/// it, NEON on aarch64, scalar otherwise. Configuring with -DCAQE_SIMD=OFF
/// compiles the vector backends out and forces scalar.
const char* BatchKernelIsaName();

/// True when the dispatcher selected a vector backend.
bool BatchKernelSimdActive();

}  // namespace caqe

#endif  // CAQE_SKYLINE_DOMINANCE_BATCH_H_
