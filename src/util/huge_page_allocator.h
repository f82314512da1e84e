#ifndef TPSL_UTIL_HUGE_PAGE_ALLOCATOR_H_
#define TPSL_UTIL_HUGE_PAGE_ALLOCATOR_H_

#include <cstddef>
#include <limits>
#include <new>

namespace tpsl {

/// The x86-64 transparent huge page size.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Maps `bytes` (>= kHugePageBytes) of zeroed, 2 MiB-aligned anonymous
/// memory, rounded up to whole huge pages, and asks the kernel to back
/// it with huge pages before it is first touched. Throws std::bad_alloc
/// if the mapping fails; a refused madvise (THP `never`, no THP) leaves
/// 4 KiB pages. Successfully advised bytes go to the obs counter
/// memory.huge_page_bytes.
void* MapHugePages(size_t bytes);

/// Unmaps a MapHugePages(bytes) block.
void UnmapHugePages(void* block, size_t bytes) noexcept;

/// Allocator for large arrays walked at random by row, where nearly
/// every access would otherwise miss the TLB: the replica matrix's
/// words. An allocation of at least kHugePageBytes comes from
/// MapHugePages; a smaller one from ::operator new, so small bitsets
/// keep the heap's packing.
template <typename T>
class HugePageAllocator {
 public:
  using value_type = T;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    if (n > std::numeric_limits<size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    const size_t bytes = n * sizeof(T);
    return static_cast<T*>(bytes >= kHugePageBytes ? MapHugePages(bytes)
                                                   : ::operator new(bytes));
  }

  void deallocate(T* block, size_t n) noexcept {
    const size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) {
      UnmapHugePages(block, bytes);
    } else {
      ::operator delete(block);
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace tpsl

#endif  // TPSL_UTIL_HUGE_PAGE_ALLOCATOR_H_
