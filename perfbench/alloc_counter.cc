// Counting replacements of the global operator new/delete. Every variant
// forwards to malloc/aligned_alloc/free; while the calling thread counts, it
// also bumps that thread's two counters, so the counts are exact and repeat
// run to run for single-threaded work.
#include "alloc_counter.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local bool t_counting = false;
thread_local AllocCounts t_counts;

void* Allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  if (t_counting) {
    ++t_counts.allocs;
    t_counts.bytes += size;
  }
  if (alignment <= alignof(std::max_align_t)) return std::malloc(size);
  // aligned_alloc wants the size to be a multiple of the alignment.
  return std::aligned_alloc(alignment,
                            (size + alignment - 1) / alignment * alignment);
}

void* AllocateOrThrow(std::size_t size, std::size_t alignment) {
  void* p = Allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

AllocCounts AllocSnapshot() { return t_counts; }

bool CountAllocations(bool on) {
  const bool was = t_counting;
  t_counting = on;
  return was;
}

}  // namespace perfbench

using perfbench::AllocateOrThrow;

void* operator new(std::size_t n) {
  return AllocateOrThrow(n, perfbench::kDefault);
}
void* operator new[](std::size_t n) {
  return AllocateOrThrow(n, perfbench::kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n, perfbench::kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n, perfbench::kDefault);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return perfbench::Allocate(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
