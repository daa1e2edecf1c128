// Epoch-based bump allocator for per-region scratch memory.
//
// The region hot path re-creates the same transient buffers every region
// (group lists, per-group counts, emission tallies). Routing them
// through an Arena turns each region into one epoch: allocation is a bump
// of a cursor inside a block the arena already owns, and Reset() recycles
// everything at the region boundary in O(number of blocks). After warmup
// the arena has coalesced into a single block sized to the high-water mark,
// so steady-state regions perform zero heap allocations for arena-backed
// scratch (the alloc-gate benchmark asserts exactly this).
//
// Under AddressSanitizer the arena poisons recycled capacity on Reset() and
// unpoisons bytes on Allocate(), so use-after-reset bugs fault instead of
// silently reading a previous epoch's data (tests/arena_test.cc).
#ifndef CAQE_COMMON_ARENA_H_
#define CAQE_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace caqe {

class Arena {
 public:
  /// `initial_bytes` sizes the first block (rounded up to a power of two).
  explicit Arena(size_t initial_bytes = 1 << 16);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two). The
  /// memory is valid until the next Reset(). Zero-byte requests return a
  /// unique, aligned, dereferenceable-for-zero-bytes pointer.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed helper: `count` default-constructible trivially-destructible Ts.
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without destructor calls");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Starts a new epoch: every pointer handed out so far becomes invalid.
  /// When the previous epoch spilled into overflow blocks, they are
  /// coalesced into one block sized to the epoch's total footprint, so a
  /// steady-state workload converges to zero allocations per epoch.
  void Reset();

  /// Monotone epoch counter (number of Reset() calls).
  uint64_t epoch() const { return epoch_; }
  /// Bytes handed out in the current epoch (including alignment padding).
  size_t bytes_used() const { return used_; }
  /// Total capacity across owned blocks.
  size_t bytes_capacity() const;
  /// Number of owned blocks (1 once the arena has converged).
  size_t num_blocks() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  /// Appends a block of at least `min_bytes` (power-of-two sized).
  Block& AddBlock(size_t min_bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // Index of the block being bumped.
  size_t offset_ = 0;   // Bump cursor inside blocks_[current_].
  size_t used_ = 0;     // Bytes consumed this epoch (all blocks).
  uint64_t epoch_ = 0;
};

/// Minimal growable array over arena memory for trivially copyable element
/// types. Growth re-bumps a doubled allocation and memcpy-moves the
/// elements — the old range stays part of the epoch and is reclaimed with
/// it. Covers the push_back/clear/iterate needs of per-region scratch
/// without touching the heap.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVector elements are relocated with memcpy");

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}

  void push_back(const T& value) {
    if (size_ == capacity_) Grow();
    data_[size_++] = value;
  }
  template <typename... A>
  void emplace_back(A&&... args) {
    if (size_ == capacity_) Grow();
    data_[size_++] = T{std::forward<A>(args)...};
  }

  void clear() { size_ = 0; }
  /// Call at the top of an epoch: memory from a previous epoch is gone.
  void OnEpochReset() {
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow() {
    const size_t next = capacity_ == 0 ? 16 : capacity_ * 2;
    T* grown = arena_->AllocateArray<T>(next);
    if (size_ > 0) __builtin_memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = next;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace caqe

#endif  // CAQE_COMMON_ARENA_H_
