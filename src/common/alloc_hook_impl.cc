// Strong flavor of the allocation-accounting hook: thread-local counting
// global operator new/delete. Lives in its own static library
// (caqe_alloc_hook) linked only by the alloc-gate benchmark and
// alloc_hook_test, ahead of the caqe libraries so these definitions beat the weak
// stubs of alloc_hook.cc during archive resolution (the whole TU — the
// operator replacements included — is pulled in by the AllocHookActive
// reference).
#include <cstdlib>
#include <new>

#include "common/alloc_hook.h"

namespace caqe {
namespace {

thread_local uint64_t tls_allocs = 0;
thread_local uint64_t tls_deallocs = 0;
thread_local uint64_t tls_bytes = 0;

void* CountedAlloc(size_t size) {
  ++tls_allocs;
  tls_bytes += size;
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(size_t size, size_t align) {
  ++tls_allocs;
  tls_bytes += size;
  // aligned_alloc requires the size to be a multiple of the alignment.
  const size_t padded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, padded == 0 ? align : padded);
}

void CountedFree(void* ptr) {
  if (ptr != nullptr) ++tls_deallocs;
  std::free(ptr);
}

}  // namespace

bool AllocHookActive() { return true; }

AllocCounts ThreadAllocCounts() {
  return AllocCounts{tls_allocs, tls_deallocs, tls_bytes};
}

}  // namespace caqe

void* operator new(size_t size) {
  void* ptr = caqe::CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](size_t size) {
  void* ptr = caqe::CountedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return caqe::CountedAlloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return caqe::CountedAlloc(size);
}

void* operator new(size_t size, std::align_val_t align) {
  void* ptr = caqe::CountedAlignedAlloc(size, static_cast<size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](size_t size, std::align_val_t align) {
  void* ptr = caqe::CountedAlignedAlloc(size, static_cast<size_t>(align));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return caqe::CountedAlignedAlloc(size, static_cast<size_t>(align));
}

void* operator new[](size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return caqe::CountedAlignedAlloc(size, static_cast<size_t>(align));
}

void operator delete(void* ptr) noexcept { caqe::CountedFree(ptr); }
void operator delete[](void* ptr) noexcept { caqe::CountedFree(ptr); }
void operator delete(void* ptr, size_t) noexcept { caqe::CountedFree(ptr); }
void operator delete[](void* ptr, size_t) noexcept { caqe::CountedFree(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  caqe::CountedFree(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  caqe::CountedFree(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  caqe::CountedFree(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  caqe::CountedFree(ptr);
}
void operator delete(void* ptr, size_t, std::align_val_t) noexcept {
  caqe::CountedFree(ptr);
}
void operator delete[](void* ptr, size_t, std::align_val_t) noexcept {
  caqe::CountedFree(ptr);
}
