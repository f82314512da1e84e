#ifndef TPSL_SERVE_EDGE_LEDGER_H_
#define TPSL_SERVE_EDGE_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/random.h"

namespace tpsl {
namespace serve {

/// The serving tier's edge -> occurrence ledger: for every live edge, a
/// stack of uint32 values, one per live occurrence, newest on top.
/// PartitionService stores the log position of each occurrence.
///
/// One flat open-addressing table keyed by the packed edge
/// (u << 32) | v: linear probing over a power-of-two capacity, Mix64
/// hashing, growth at load 3/4, and backward-shift deletion, so probe
/// chains do not degrade under a removal stream (there are no
/// tombstones). A slot holds the top value and a link to the
/// below-top entries of a duplicate edge, which form a singly linked
/// stack (newest to oldest) in one side pool of 8-byte nodes with a
/// free list. Neither array allocates per edge; both only double. Pool
/// nodes are indexed by uint32, so at most 2^32 - 1 below-top
/// occurrences may be live.
///
/// The empty-slot key is the packed (kInvalidVertex, kInvalidVertex),
/// an edge no partitioner places: ComputeDegrees and AddEdge reject the
/// sentinel. Looking it up finds nothing.
class EdgeLedger {
 public:
  /// The "no value" answer of Top() and PopOldest(); never a stored
  /// value.
  static constexpr uint32_t kNone = ~uint32_t{0};

  /// Sizes the table for `distinct_edges` keys without growing.
  void Reserve(uint64_t distinct_edges) {
    size_t capacity = kMinCapacity;
    while (capacity * 3 < distinct_edges * 4) {
      capacity *= 2;
    }
    if (capacity > slots_.size()) {
      Rehash(capacity);
    }
  }

  /// Hints that `edge` is pushed soon: prefetches its home slot. Always
  /// inlined: GCC deletes calls to a prefetch-only function it has not
  /// inlined (see util/prefetch.h).
  [[gnu::always_inline]] void Prefetch(const Edge& edge) const {
    if (!slots_.empty()) {
      __builtin_prefetch(&slots_[Home(Pack(edge))], /*rw=*/1, /*locality=*/3);
    }
  }

  /// Records one more occurrence of `edge`, newest, holding `value`
  /// (anything but kNone).
  void Push(const Edge& edge, uint32_t value) {
    if ((used_ + 1) * 4 > slots_.size() * 3) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const uint64_t key = Pack(edge);
    size_t i = Home(key);
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    Slot& slot = slots_[i];
    if (slot.key == kEmptyKey) {
      slot = Slot{key, value, kNil};
      ++used_;
    } else {
      uint32_t node = free_;
      if (node == kNil) {
        node = static_cast<uint32_t>(pool_.size());
        pool_.emplace_back();
      } else {
        free_ = pool_[node].next;
      }
      pool_[node] = Below{slot.top, slot.below};
      slot.top = value;
      slot.below = node;
    }
    ++entries_;
  }

  /// The newest live value of `edge`; kNone if it has none.
  uint32_t Top(const Edge& edge) const {
    const size_t i = Find(Pack(edge));
    return i == kNotFound ? kNone : slots_[i].top;
  }

  /// Calls `fn(value)` for each live value of `edge`, newest first.
  template <typename Fn>
  void ForEachValue(const Edge& edge, Fn&& fn) const {
    const size_t i = Find(Pack(edge));
    if (i == kNotFound) {
      return;
    }
    fn(slots_[i].top);
    for (uint32_t node = slots_[i].below; node != kNil;
         node = pool_[node].next) {
      fn(pool_[node].value);
    }
  }

  /// Removes and returns the oldest live value of `edge`; kNone (and
  /// no change) if it has none. Walks the edge's stack, so it costs its
  /// duplicate depth.
  uint32_t PopOldest(const Edge& edge) {
    const size_t i = Find(Pack(edge));
    if (i == kNotFound) {
      return kNone;
    }
    Slot& slot = slots_[i];
    uint32_t oldest;
    if (slot.below == kNil) {
      oldest = slot.top;
      EraseAt(i);
    } else {
      uint32_t* link = &slot.below;
      while (pool_[*link].next != kNil) {
        link = &pool_[*link].next;
      }
      const uint32_t node = *link;
      oldest = pool_[node].value;
      *link = kNil;
      FreeNode(node);
    }
    --entries_;
    return oldest;
  }

  /// Replaces every live value v with `map(v)` in place, so each
  /// stack keeps its order.
  template <typename Map>
  void RemapValues(Map&& map) {
    for (Slot& slot : slots_) {
      if (slot.key == kEmptyKey) {
        continue;
      }
      slot.top = map(slot.top);
      for (uint32_t node = slot.below; node != kNil; node = pool_[node].next) {
        pool_[node].value = map(pool_[node].value);
      }
    }
  }

  /// Live values, duplicates counted.
  uint64_t size() const { return entries_; }

  /// Heap footprint: the slot array plus the side pool.
  uint64_t HeapBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           pool_.capacity() * sizeof(Below);
  }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Slot {
    uint64_t key;
    uint32_t top;
    uint32_t below;  // pool node of the next-older occurrence, or kNil
  };

  /// One below-top occurrence: its value and the pool node of the
  /// occurrence under it (kNil at the bottom). Free nodes chain through
  /// `next` from `free_`.
  struct Below {
    uint32_t value;
    uint32_t next;
  };

  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinCapacity = 16;

  static uint64_t Pack(const Edge& edge) {
    return (static_cast<uint64_t>(edge.first) << 32) | edge.second;
  }

  size_t Home(uint64_t key) const {
    return static_cast<size_t>(Mix64(key)) & mask_;
  }

  size_t Find(uint64_t key) const {
    if (slots_.empty() || key == kEmptyKey) {
      return kNotFound;
    }
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) {
        return i;
      }
      if (slots_[i].key == kEmptyKey) {
        return kNotFound;
      }
    }
  }

  void FreeNode(uint32_t node) {
    pool_[node].next = free_;
    free_ = node;
  }

  /// Empties slot `i`, then shifts later members of its probe chain
  /// back into the hole whenever that keeps them at or after their home
  /// slot, so every chain stays contiguous.
  void EraseAt(size_t i) {
    size_t hole = i;
    for (size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    --used_;
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{kEmptyKey, 0, kNil});
    mask_ = capacity - 1;
    for (const Slot& slot : old) {
      if (slot.key == kEmptyKey) {
        continue;
      }
      size_t i = Home(slot.key);
      while (slots_[i].key != kEmptyKey) {
        i = (i + 1) & mask_;
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  uint64_t used_ = 0;     // occupied slots (distinct live edges)
  uint64_t entries_ = 0;  // live values, duplicates counted
  std::vector<Below> pool_;  // below-top occurrences of duplicate edges
  uint32_t free_ = kNil;     // head of the free-node chain in pool_
};

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_EDGE_LEDGER_H_
