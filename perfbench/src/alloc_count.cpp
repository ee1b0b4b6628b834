// Replacement global allocation functions that count every heap
// allocation per thread. Linked into the perfbench binary only, so the
// pufaging libraries are measured unmodified: a workload reads
// thread_allocs() before and after a call and reports the difference.
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {

// Constant-initialized, so reading it is safe from any thread at any
// point of its life, including allocations during thread start-up.
thread_local std::uint64_t tl_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++tl_allocs;
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++tl_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}

}  // namespace

namespace perfbench {
std::uint64_t thread_allocs() { return tl_allocs; }
}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}

void* operator new(std::size_t n, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(n, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(n, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t n, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, align);
}

void* operator new[](std::size_t n, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, align);
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
