#ifndef TPSL_UTIL_PREFETCH_H_
#define TPSL_UTIL_PREFETCH_H_

#include <algorithm>
#include <cstddef>

namespace tpsl {

// Every function that only prefetches — PrefetchRead, the stage lambdas
// and methods handed to ForEachStaged, DenseBitset::Prefetch and its
// callers — is [[gnu::always_inline]]. GCC's IPA pure-const pass treats
// __builtin_prefetch as free of side effects, so a prefetch-only
// function that the inliner declines is marked const and every call to
// it is deleted at -O1 and above, silently: the loop still runs, with
// no prefetch left in it. Only inlined prefetches survive. The
// prefetch_codegen ctest disassembles the library to hold this.

/// Prefetches the cache line holding `address` for reading, into every
/// cache level.
[[gnu::always_inline]] inline void PrefetchRead(const void* address) {
  __builtin_prefetch(address, /*rw=*/0, /*locality=*/3);
}

/// How many items ahead of the work ForEachStaged's two prefetch stages
/// run. The far stage pulls rows indexed by the item itself; eight items
/// later the near stage reads them, now cached, and pulls the rows they
/// index in turn, which are resident another eight items later.
inline constexpr size_t kFarPrefetchDistance = 16;
inline constexpr size_t kNearPrefetchDistance = 8;

/// Runs `work(items[i])` for every i in order, with `far` run on the item
/// kFarPrefetchDistance ahead and `near` on the item
/// kNearPrefetchDistance ahead; the first items of the batch get both
/// stages before the loop. The stages are hints: they change nothing
/// that `work` reads, so the result is that of a plain loop at every
/// batch size. Stages must be [[gnu::always_inline]] (see above).
template <typename T, typename FarFn, typename NearFn, typename WorkFn>
void ForEachStaged(const T* items, size_t count, FarFn&& far, NearFn&& near,
                   WorkFn&& work) {
  for (size_t i = 0; i < std::min(count, kFarPrefetchDistance); ++i) {
    far(items[i]);
  }
  for (size_t i = 0; i < std::min(count, kNearPrefetchDistance); ++i) {
    near(items[i]);
  }
  for (size_t i = 0; i < count; ++i) {
    if (i + kFarPrefetchDistance < count) {
      far(items[i + kFarPrefetchDistance]);
    }
    if (i + kNearPrefetchDistance < count) {
      near(items[i + kNearPrefetchDistance]);
    }
    work(items[i]);
  }
}

/// A stage that does nothing, for a loop with one stage.
struct NoPrefetch {
  template <typename T>
  [[gnu::always_inline]] void operator()(const T&) const {}
};

}  // namespace tpsl

#endif  // TPSL_UTIL_PREFETCH_H_
