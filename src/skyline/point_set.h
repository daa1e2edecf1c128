// Flat storage for fixed-width real-valued points (join-result tuples).
#ifndef CAQE_SKYLINE_POINT_SET_H_
#define CAQE_SKYLINE_POINT_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace caqe {

/// A dense, row-major collection of `width`-dimensional points.
///
/// Skyline kernels operate on PointSet rows via raw pointers to avoid
/// per-point allocations; row index doubles as a stable point id within the
/// set.
class PointSet {
 public:
  explicit PointSet(int width) : width_(width) { CAQE_CHECK(width >= 1); }

  int width() const { return width_; }
  int64_t size() const {
    return static_cast<int64_t>(data_.size()) / width_;
  }
  bool empty() const { return data_.empty(); }

  /// Pointer to the `row`-th point (width() doubles).
  const double* row(int64_t row) const {
    CAQE_DCHECK(row >= 0 && row < size());
    return data_.data() + row * width_;
  }

  /// Appends a point; returns its row index.
  int64_t Append(const double* values) {
    data_.insert(data_.end(), values, values + width_);
    return size() - 1;
  }

  /// Appends `n` zero-initialized points and returns the first new row
  /// index; callers fill them via mutable_row (e.g. concurrently, one
  /// writer per row).
  int64_t AppendUninitialized(int64_t n) {
    const int64_t base = size();
    data_.resize(data_.size() + static_cast<size_t>(n) * width_);
    return base;
  }

  /// Writable pointer to the `row`-th point.
  double* mutable_row(int64_t row) {
    CAQE_DCHECK(row >= 0 && row < size());
    return data_.data() + row * width_;
  }
  int64_t Append(const std::vector<double>& values) {
    CAQE_DCHECK(static_cast<int>(values.size()) == width_);
    return Append(values.data());
  }

  /// Ensures capacity for `n` points. Grows geometrically: an exact
  /// reserve on a monotonically growing store would reallocate (and copy
  /// the whole store) on every call that extends it.
  void Reserve(int64_t n) {
    const size_t need = static_cast<size_t>(n) * width_;
    if (need <= data_.capacity()) return;
    data_.reserve(std::max(need, data_.capacity() * 2));
  }
  void Clear() { data_.clear(); }

 private:
  int width_;
  std::vector<double> data_;
};

/// The rows of a sparse, ascending set of tuple ids: the tuples an engine
/// keeps after their region is done. Ids are the caller's (the pipeline's
/// running join-match count), so they have gaps wherever a match was never
/// accepted; `row(id)` finds one by binary search over the id column.
class TupleStore {
 public:
  explicit TupleStore(int width) : rows_(width) {}

  int width() const { return rows_.width(); }
  /// Number of rows held (not the largest id).
  int64_t size() const { return rows_.size(); }

  /// Appends the row of tuple `id`. Ids must be strictly ascending.
  void Append(int64_t id, const double* values) {
    CAQE_DCHECK(ids_.empty() || id > ids_.back());
    ids_.push_back(id);
    rows_.Append(values);
  }

  /// Pointer to tuple `id`'s width() values. CHECK-fails when the store
  /// does not hold `id`.
  const double* row(int64_t id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    CAQE_CHECK(it != ids_.end() && *it == id);
    return rows_.row(it - ids_.begin());
  }

 private:
  std::vector<int64_t> ids_;
  PointSet rows_;
};

}  // namespace caqe

#endif  // CAQE_SKYLINE_POINT_SET_H_
