#ifndef TPSL_PARTITION_DENSE_BITSET_H_
#define TPSL_PARTITION_DENSE_BITSET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/huge_page_allocator.h"
#include "util/prefetch.h"

namespace tpsl {

/// Word-parallel dense bitset — the shared bit-storage primitive of the
/// partitioner-state kernel. Hosts the `v2p` replica matrix
/// (ReplicaMatrix, also procsim topology) and claimed-edge masks
/// (NE/SNE expansion).
///
/// Flat uint64_t words, no bounds checks beyond the vector's own, and
/// word-at-a-time bulk operations (popcount, non-empty rows, OR,
/// intersection counts) so mirror-overlap style queries run at memory
/// bandwidth instead of hash-set speed. Words of 2 MiB and more sit on
/// huge pages where the kernel grants them (HugePageAllocator): a
/// replica matrix's rows are read at random, and on 4 KiB pages nearly
/// every row access misses the TLB.
class DenseBitset {
 public:
  /// How Test, Set and the row/bit counts touch the words. kPlain is
  /// the single-owner path. kRelaxed goes through a relaxed
  /// std::atomic_ref, so several threads may Set<kRelaxed> bits while
  /// others Test or count them (the shared v2p matrix of a parallel
  /// 2PS-L run); a reader then sees a subset of the concurrent sets.
  enum class Access { kPlain, kRelaxed };

  DenseBitset() = default;
  explicit DenseBitset(uint64_t num_bits)
      : num_bits_(num_bits), words_(NumWords(num_bits), 0) {}

  uint64_t size() const { return num_bits_; }

  /// Grows (or shrinks) to `num_bits`, preserving existing bits and
  /// zeroing any new tail. Bits past a shrink are discarded; the last
  /// partial word is masked so popcounts stay exact.
  void Resize(uint64_t num_bits) {
    words_.resize(NumWords(num_bits), 0);
    num_bits_ = num_bits;
    MaskTail();
  }

  template <Access kAccess = Access::kPlain>
  bool Test(uint64_t i) const {
    return (Word<kAccess>(i >> 6) >> (i & 63)) & 1;
  }

  template <Access kAccess = Access::kPlain>
  void Set(uint64_t i) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    if constexpr (kAccess == Access::kRelaxed) {
      // Check-then-set: most bits asked for are already set, and the
      // plain load keeps those off the lock-prefixed RMW.
      std::atomic_ref<uint64_t> word(words_[i >> 6]);
      if ((word.load(std::memory_order_relaxed) & mask) == 0) {
        word.fetch_or(mask, std::memory_order_relaxed);
      }
    } else {
      words_[i >> 6] |= mask;
    }
  }

  /// Sets bit i; returns true iff it was previously clear (NE's
  /// claimed-edge mask).
  bool TestAndSet(uint64_t i) {
    uint64_t& word = words_[i >> 6];
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (word & mask) {
      return false;
    }
    word |= mask;
    return true;
  }

  /// Number of set bits (word-parallel popcount).
  template <Access kAccess = Access::kPlain>
  uint64_t Count() const {
    uint64_t total = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      total += PopCount(Word<kAccess>(w));
    }
    return total;
  }

  /// Number of rows with any bit set, reading the bits as consecutive
  /// rows of `row_bits` bits — the non-isolated vertices of a
  /// vertex-major matrix. size() must be a multiple of row_bits.
  template <Access kAccess = Access::kPlain>
  uint64_t CountNonEmptyRows(uint32_t row_bits) const {
    uint64_t rows = 0;
    if (row_bits == 0) {
      return rows;
    }
    if (64 % row_bits == 0) {
      // Whole rows per word. Adding all-ones to a row's low bits
      // carries into its top bit iff they are non-zero; OR-ing in the
      // top bit itself leaves exactly the top bit of each non-empty row.
      uint64_t tops = 0;
      for (uint32_t bit = row_bits - 1; bit < 64; bit += row_bits) {
        tops |= uint64_t{1} << bit;
      }
      for (size_t w = 0; w < words_.size(); ++w) {
        const uint64_t word = Word<kAccess>(w);
        rows += PopCount((((word & ~tops) + ~tops) | word) & tops);
      }
      return rows;
    }
    // Otherwise OR the words each row spans, masking the neighbours'
    // bits out of its first and last word.
    for (uint64_t begin = 0; begin < num_bits_; begin += row_bits) {
      const uint64_t end = begin + row_bits - 1;  // inclusive
      uint64_t any = 0;
      for (uint64_t w = begin >> 6; w <= end >> 6; ++w) {
        uint64_t word = Word<kAccess>(w);
        if (w == begin >> 6) {
          word &= ~uint64_t{0} << (begin & 63);
        }
        if (w == end >> 6) {
          word &= ~uint64_t{0} >> (63 - (end & 63));
        }
        any |= word;
      }
      rows += any != 0 ? 1 : 0;
    }
    return rows;
  }

  /// |this ∩ other| without materializing the intersection — the
  /// mirror-overlap query of FSM-style split/merge matching. Sizes may
  /// differ; the shorter operand zero-extends.
  uint64_t IntersectionCount(const DenseBitset& other) const {
    const size_t n = words_.size() < other.words_.size()
                         ? words_.size()
                         : other.words_.size();
    uint64_t total = 0;
    for (size_t w = 0; w < n; ++w) {
      total += PopCount(words_[w] & other.words_[w]);
    }
    return total;
  }

  /// this |= other. `other` must not be larger than this.
  void InplaceOr(const DenseBitset& other) {
    for (size_t w = 0; w < other.words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
  }

  /// Software-prefetches the cache line holding bit `i` (read intent).
  /// A scoring loop calls this a few edges ahead so the replica words
  /// are resident by the time they are tested. Always inlined, or GCC
  /// deletes the calls (see util/prefetch.h).
  [[gnu::always_inline]] void Prefetch(uint64_t i) const {
    PrefetchRead(words_.data() + (i >> 6));
  }

  uint64_t HeapBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  static uint64_t NumWords(uint64_t num_bits) { return (num_bits + 63) / 64; }

  template <Access kAccess>
  uint64_t Word(size_t w) const {
    if constexpr (kAccess == Access::kRelaxed) {
      // std::atomic_ref<const T> is not C++20; the words themselves are
      // never const objects, so the cast is sound.
      return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(words_[w]))
          .load(std::memory_order_relaxed);
    } else {
      return words_[w];
    }
  }

  /// Set bits of one word as a SWAR sum. On the baseline x86-64 target
  /// (no POPCNT) std::popcount is a libgcc call, about 2.5x slower per
  /// word than this.
  static uint64_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (x * 0x0101010101010101ULL) >> 56;
  }

  /// Clears bits beyond num_bits_ in the last word so Count() and
  /// IntersectionCount() never see stale bits after a shrink.
  void MaskTail() {
    const uint64_t tail = num_bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (uint64_t{1} << tail) - 1;
    }
  }

  uint64_t num_bits_ = 0;
  std::vector<uint64_t, HugePageAllocator<uint64_t>> words_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_DENSE_BITSET_H_
