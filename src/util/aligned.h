// Cache-line / vector-register aligned storage.
//
// The analysis accumulators (CpaEngine histograms, striped moment sums)
// are written millions of times per second from worker-pool threads; each
// shard's accumulators live in their own allocations, and aligning those
// allocations to the cache line guarantees (a) no two shards' hot state
// ever share a line (false sharing) and (b) the SIMD kernels in
// util/simd.h see vector-register-aligned rows.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PSC_ALIGNED_HAVE_MMAP 1
#endif

namespace psc::util {

inline constexpr std::size_t cache_line_bytes = 64;

// Allocations at least this large are mapped straight from the OS where
// mmap exists, so freeing one unmaps its pages. Through malloc a freed
// multi-MiB block stays resident in the arena of the thread that
// allocated it: a daemon whose jobs build 12 MiB pair histograms on many
// threads keeps such blocks alive in every arena that ever held one.
inline constexpr std::size_t mapped_allocation_bytes = std::size_t{1} << 20;

// Minimal C++17 aligned allocator: every allocation starts on an
// `Alignment`-byte boundary.
template <typename T, std::size_t Alignment = cache_line_bytes>
struct AlignedAllocator {
  using value_type = T;

  static_assert(Alignment >= alignof(T),
                "AlignedAllocator: alignment below the type's own");
  static_assert((Alignment & (Alignment - 1)) == 0,
                "AlignedAllocator: alignment must be a power of two");

  AlignedAllocator() noexcept = default;
  template <typename U>
  explicit AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  // Mapped blocks start on a page boundary, which satisfies Alignment.
  static_assert(Alignment <= 4096,
                "AlignedAllocator: alignment above the page size");

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if defined(PSC_ALIGNED_HAVE_MMAP)
    if (bytes >= mapped_allocation_bytes) {
      void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) {
        throw std::bad_alloc();
      }
#if defined(MADV_HUGEPAGE)
      // A hint: first touch then faults once per 2 MiB huge page
      // instead of once per 4 KiB page.
      ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(
        ::operator new(bytes, std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
#if defined(PSC_ALIGNED_HAVE_MMAP)
    if (n * sizeof(T) >= mapped_allocation_bytes) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#endif
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

// std::vector whose data() is cache-line aligned.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace psc::util
