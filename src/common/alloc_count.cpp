// Global operator new/delete replacement with an allocation counter.
//
// Lives in one TU together with the two accessors so that a static link
// referencing either also pulls in the replaced operators
// (and a binary that never asks for the count keeps the default heap).
// malloc-backed so the sanitizer interceptors still see every block.
#include "common/alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

constinit std::atomic<std::uint64_t> g_heap_allocations{0};
// Constant-initialized and trivially destructible, so operator new can
// touch it on any thread at any time without a TLS guard.
constinit thread_local std::uint64_t t_heap_allocations = 0;

void* counted_alloc(std::size_t size) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocations;
  if (size == 0) size = 1;
  return std::malloc(size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_heap_allocations;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

namespace jigsaw {

std::uint64_t heap_allocation_count() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

std::uint64_t thread_heap_allocation_count() { return t_heap_allocations; }

}  // namespace jigsaw

// ---- Replaced global allocation functions --------------------------------
// The standard requires replacing the whole family once any member is
// replaced; every form funnels into the two counted helpers above.

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = counted_aligned_alloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
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
