#include "util/huge_page_allocator.h"

#include <sys/mman.h>

#include <cstdint>
#include <new>

#include "obs/metrics.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace tpsl {
namespace {

size_t RoundUpToHugePages(size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

obs::Counter* HugePageBytesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("memory.huge_page_bytes");
  return counter;
}

}  // namespace

void* MapHugePages(size_t bytes) {
  const size_t length = RoundUpToHugePages(bytes);
  // Over-map by one huge page, then trim both ends to an aligned block.
  void* mapped = mmap(nullptr, length + kHugePageBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::bad_alloc();
  }
  const uintptr_t base = reinterpret_cast<uintptr_t>(mapped);
  const uintptr_t aligned =
      (base + kHugePageBytes - 1) & ~uintptr_t{kHugePageBytes - 1};
  if (aligned > base) {
    munmap(mapped, aligned - base);
  }
  munmap(reinterpret_cast<void*>(aligned + length),
         base + kHugePageBytes - aligned);
  void* block = reinterpret_cast<void*>(aligned);
  if (madvise(block, length, MADV_HUGEPAGE) == 0) {
    HugePageBytesCounter()->Add(length);
  }
#ifdef __SANITIZE_ADDRESS__
  // The rounding slack is mapped but not the caller's: keep ASan's
  // bounds check on it.
  ASAN_POISON_MEMORY_REGION(static_cast<char*>(block) + bytes,
                            length - bytes);
#endif
  return block;
}

void UnmapHugePages(void* block, size_t bytes) noexcept {
  const size_t length = RoundUpToHugePages(bytes);
#ifdef __SANITIZE_ADDRESS__
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(block) + bytes,
                              length - bytes);
#endif
  munmap(block, length);
}

}  // namespace tpsl
