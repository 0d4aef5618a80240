// Counting replacement of the global allocation functions, linked into the
// benchmark binary only. The remaining forms (array, nothrow, sized
// delete) forward to these four in libstdc++.

#include <atomic>
#include <cstdlib>
#include <new>

#include "common.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_count{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
  }
}
}  // namespace

namespace perfbench::alloc {
void start() noexcept {
  g_count.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
}
void stop() noexcept { g_counting.store(false, std::memory_order_relaxed); }
std::uint64_t count() noexcept {
  return g_count.load(std::memory_order_relaxed);
}
std::uint64_t bytes() noexcept {
  return g_bytes.load(std::memory_order_relaxed);
}
}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  note(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment
                                                           : rounded)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
