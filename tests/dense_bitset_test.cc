// DenseBitset: unit tests for every word-parallel operation plus a
// randomized property sweep against a std::vector<bool> oracle — the
// bitset underneath the whole partitioner-state kernel, so an
// off-by-one in the tail-word masking here would silently corrupt
// every replication table in the repo.
#include "partition/dense_bitset.h"

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "partition/replica_matrix.h"
#include "util/huge_page_allocator.h"
#include "util/random.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace tpsl {
namespace {

TEST(DenseBitsetTest, StartsEmpty) {
  DenseBitset bits(130);
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.Count(), 0u);
  for (uint64_t i = 0; i < 130; ++i) {
    EXPECT_FALSE(bits.Test(i));
  }
}

TEST(DenseBitsetTest, SetAndTest) {
  DenseBitset bits(200);
  bits.Set(0);
  bits.Set(63);
  bits.Set(64);
  bits.Set(199);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(63));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(199));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_FALSE(bits.Test(198));
  EXPECT_EQ(bits.Count(), 4u);
}

TEST(DenseBitsetTest, TestAndSetReportsPriorState) {
  DenseBitset bits(70);
  EXPECT_TRUE(bits.TestAndSet(65));   // was clear -> true
  EXPECT_FALSE(bits.TestAndSet(65));  // already set -> false
  EXPECT_TRUE(bits.Test(65));
  EXPECT_EQ(bits.Count(), 1u);
}

TEST(DenseBitsetTest, ResizeGrowsClearAndKeepsSetBits) {
  DenseBitset bits(10);
  bits.Set(3);
  bits.Set(9);
  bits.Resize(300);
  EXPECT_EQ(bits.size(), 300u);
  EXPECT_TRUE(bits.Test(3));
  EXPECT_TRUE(bits.Test(9));
  EXPECT_EQ(bits.Count(), 2u);
  for (uint64_t i = 10; i < 300; ++i) {
    EXPECT_FALSE(bits.Test(i));
  }
}

TEST(DenseBitsetTest, ResizeShrinkMasksTail) {
  // Shrinking must clear the bits beyond the new size inside the
  // surviving tail word, or Count would see ghosts.
  DenseBitset bits(128);
  for (uint64_t i = 0; i < 128; ++i) {
    bits.Set(i);
  }
  bits.Resize(70);
  EXPECT_EQ(bits.size(), 70u);
  EXPECT_EQ(bits.Count(), 70u);
  bits.Resize(128);
  for (uint64_t i = 70; i < 128; ++i) {
    EXPECT_FALSE(bits.Test(i)) << i;
  }
}

TEST(DenseBitsetTest, IntersectionCount) {
  DenseBitset a(150);
  DenseBitset b(150);
  a.Set(1);
  a.Set(64);
  a.Set(149);
  b.Set(64);
  b.Set(100);
  b.Set(149);
  EXPECT_EQ(a.IntersectionCount(b), 2u);
  EXPECT_EQ(b.IntersectionCount(a), 2u);
}

TEST(DenseBitsetTest, InplaceOr) {
  DenseBitset a(96);
  DenseBitset b(96);
  a.Set(0);
  a.Set(70);
  b.Set(70);
  b.Set(95);

  DenseBitset or_ab = a;
  or_ab.InplaceOr(b);
  EXPECT_TRUE(or_ab.Test(0));
  EXPECT_TRUE(or_ab.Test(70));
  EXPECT_TRUE(or_ab.Test(95));
  EXPECT_EQ(or_ab.Count(), 3u);
}

TEST(DenseBitsetTest, HeapBytesMatchesWordStorage) {
  DenseBitset bits(129);  // 3 words
  EXPECT_EQ(bits.HeapBytes(), 3 * sizeof(uint64_t));
}

// Property sweep: a random mix of Set, TestAndSet and Test, mirrored
// into a std::vector<bool> oracle; after each phase the full state and
// the aggregate queries must agree bit for bit. Sizes straddle word
// boundaries (the classic masking bug surface).
TEST(DenseBitsetPropertyTest, AgreesWithVectorBoolOracle) {
  SplitMix64 rng(0x5eedb175ULL);
  const uint64_t sizes[] = {1, 63, 64, 65, 127, 128, 129, 1000, 4096, 4100};
  for (const uint64_t size : sizes) {
    DenseBitset bits(size);
    std::vector<bool> oracle(size, false);

    for (int op = 0; op < 2000; ++op) {
      const uint64_t i = rng.NextBounded(size);
      switch (rng.NextBounded(3)) {
        case 0:
          bits.Set(i);
          oracle[i] = true;
          break;
        case 1: {
          const bool was_clear = !oracle[i];
          EXPECT_EQ(bits.TestAndSet(i), was_clear);
          oracle[i] = true;
          break;
        }
        default:
          EXPECT_EQ(bits.Test(i), oracle[i]);
          break;
      }
    }

    uint64_t oracle_count = 0;
    for (uint64_t i = 0; i < size; ++i) {
      EXPECT_EQ(bits.Test(i), oracle[i]) << "size=" << size << " bit=" << i;
      oracle_count += oracle[i] ? 1 : 0;
    }
    EXPECT_EQ(bits.Count(), oracle_count) << "size=" << size;
  }
}

// Non-empty rows against a row-by-row oracle, for every way k-bit rows
// can lie on 64-bit words: several per word (k divides 64), whole words
// (64 divides k), and straddling a word boundary. Even rows stay empty
// so covered and empty rows alternate; the top bit of a row is set
// alone sometimes, the carry case of the several-per-word sweep.
TEST(DenseBitsetPropertyTest, CountNonEmptyRowsAgreesWithOracle) {
  SplitMix64 rng(0x70775ULL);
  for (const uint32_t k : {1u, 3u, 8u, 32u, 64u, 100u, 128u, 192u}) {
    const uint64_t num_rows = 301;
    DenseBitset bits(num_rows * k);
    std::vector<bool> covered(num_rows, false);
    for (int op = 0; op < 400; ++op) {
      const uint64_t row = rng.NextBounded(num_rows / 2) * 2 + 1;
      const uint64_t col = op % 5 == 0 ? k - 1 : rng.NextBounded(k);
      bits.Set(row * k + col);
      covered[row] = true;
    }
    uint64_t expected = 0;
    for (const bool c : covered) {
      expected += c ? 1 : 0;
    }
    EXPECT_EQ(bits.CountNonEmptyRows(k), expected) << "k=" << k;
  }
  EXPECT_EQ(DenseBitset().CountNonEmptyRows(0), 0u);
}

// Relaxed access, the shared 2PS-L matrix's protocol: four writers set
// overlapping bits of the same words while a reader counts. Every
// running count is a subset of the final one (counts only grow), and
// once the writers are joined the relaxed and plain views agree bit
// for bit. Under tsan this is the race check for the protocol.
TEST(DenseBitsetTest, RelaxedAccessUnderConcurrentWriters) {
  constexpr uint32_t kRowBits = 32;
  constexpr uint64_t kBits = 4096 * kRowBits;
  DenseBitset shared(kBits);
  DenseBitset expected(kBits);
  std::vector<std::vector<uint64_t>> picks(4);
  SplitMix64 rng(0x5e7ULL);
  for (auto& pick : picks) {
    for (int i = 0; i < 20000; ++i) {
      pick.push_back(rng.NextBounded(kBits));
      expected.Set(pick.back());
    }
  }
  using Access = DenseBitset::Access;
  std::atomic<bool> done{false};
  uint64_t last_count = 0;
  uint64_t last_rows = 0;
  bool monotone = true;
  std::thread reader([&]() {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t count = shared.Count<Access::kRelaxed>();
      const uint64_t rows =
          shared.CountNonEmptyRows<Access::kRelaxed>(kRowBits);
      monotone = monotone && count >= last_count && rows >= last_rows;
      last_count = count;
      last_rows = rows;
    }
  });
  std::vector<std::thread> writers;
  for (const auto& pick : picks) {
    writers.emplace_back([&shared, &pick]() {
      for (const uint64_t i : pick) {
        shared.Set<Access::kRelaxed>(i);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotone);
  EXPECT_LE(last_count, expected.Count());
  EXPECT_EQ(shared.Count<Access::kRelaxed>(), expected.Count());
  EXPECT_EQ(shared.Count(), expected.Count());
  EXPECT_EQ(shared.CountNonEmptyRows(kRowBits),
            expected.CountNonEmptyRows(kRowBits));
  for (uint64_t i = 0; i < kBits; ++i) {
    ASSERT_EQ(shared.Test(i), expected.Test(i)) << i;
    if (i % 97 == 0) {
      EXPECT_EQ(shared.Test<Access::kRelaxed>(i), expected.Test(i)) << i;
    }
  }
}

// Word-parallel binary ops against the oracle, including the tail word.
TEST(DenseBitsetPropertyTest, BinaryOpsAgreeWithOracle) {
  SplitMix64 rng(0xb0075ULL);
  const uint64_t sizes[] = {64, 100, 129, 513};
  for (const uint64_t size : sizes) {
    DenseBitset a(size);
    DenseBitset b(size);
    std::vector<bool> oa(size, false);
    std::vector<bool> ob(size, false);
    for (uint64_t i = 0; i < size; ++i) {
      if (rng.NextDouble() < 0.4) {
        a.Set(i);
        oa[i] = true;
      }
      if (rng.NextDouble() < 0.4) {
        b.Set(i);
        ob[i] = true;
      }
    }

    uint64_t expected_intersection = 0;
    for (uint64_t i = 0; i < size; ++i) {
      expected_intersection += (oa[i] && ob[i]) ? 1 : 0;
    }
    EXPECT_EQ(a.IntersectionCount(b), expected_intersection);

    DenseBitset or_ab = a;
    or_ab.InplaceOr(b);
    for (uint64_t i = 0; i < size; ++i) {
      EXPECT_EQ(or_ab.Test(i), oa[i] || ob[i]);
    }
  }
}


// ---------------------------------------------------------------------------
// Huge-page backing: a bitset of 2 MiB and more is mapped by
// HugePageAllocator, a smaller one comes from the heap.
// ---------------------------------------------------------------------------

/// Bits in exactly one huge page of words.
constexpr uint64_t kHugePageBits = uint64_t{kHugePageBytes} * 8;

uint64_t HugePageBytesRequested() {
  return obs::MetricsRegistry::Default()
      .GetCounter("memory.huge_page_bytes")
      ->Total();
}

TEST(HugePageAllocatorTest, LargeBlocksAreAlignedAndZeroed) {
  HugePageAllocator<uint64_t> allocator;
  constexpr size_t kWordsPerPage = kHugePageBytes / sizeof(uint64_t);
  for (const size_t words : {kWordsPerPage, kWordsPerPage + 3,
                             3 * kWordsPerPage - 1}) {
    const uint64_t requested_before = HugePageBytesRequested();
    uint64_t* block = allocator.allocate(words);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % kHugePageBytes, 0u)
        << words;
    uint64_t any = 0;
    for (size_t w = 0; w < words; ++w) {
      any |= block[w];
    }
    EXPECT_EQ(any, 0u) << words;
    block[words - 1] = 1;
    // Counted iff the kernel took the advice, and then whole pages.
    const uint64_t requested = HugePageBytesRequested() - requested_before;
    const uint64_t pages = (words * sizeof(uint64_t) + kHugePageBytes - 1) /
                           kHugePageBytes;
    EXPECT_TRUE(requested == 0 || requested == pages * kHugePageBytes)
        << requested;
#ifdef __SANITIZE_ADDRESS__
    // The rounding slack past the caller's words stays out of bounds.
    if (words % kWordsPerPage != 0) {
      EXPECT_TRUE(__asan_address_is_poisoned(block + words));
    }
#endif
    allocator.deallocate(block, words);
  }
}

TEST(HugePageAllocatorTest, SmallBlocksComeFromTheHeap) {
  HugePageAllocator<uint64_t> allocator;
  const uint64_t requested_before = HugePageBytesRequested();
  const size_t words = kHugePageBytes / sizeof(uint64_t) - 1;
  uint64_t* block = allocator.allocate(words);
  block[0] = 1;
  block[words - 1] = 1;
  allocator.deallocate(block, words);
  EXPECT_EQ(HugePageBytesRequested(), requested_before);
}

TEST(DenseBitsetTest, ResizeAcrossHugePageThresholdKeepsBitsAndTail) {
  // Below the threshold (heap), up across it (mapped), then back down.
  const uint64_t small = kHugePageBits - 64 * 5 - 17;
  const uint64_t large = kHugePageBits + 64 * 9 + 5;
  const std::vector<uint64_t> kept = {0, 63, 64, small / 2, small - 1};
  DenseBitset bits(small);
  for (const uint64_t i : kept) {
    bits.Set(i);
  }
  EXPECT_LT(bits.HeapBytes(), kHugePageBytes);
  bits.Resize(large);
  EXPECT_GT(bits.HeapBytes(), kHugePageBytes);
  EXPECT_EQ(bits.Count(), kept.size());
  for (const uint64_t i : kept) {
    EXPECT_TRUE(bits.Test(i)) << i;
  }
  for (uint64_t i = small; i < large; ++i) {
    ASSERT_FALSE(bits.Test(i)) << i;
  }
  bits.Set(large - 1);
  bits.Set(kHugePageBits);
  // Shrink below the threshold into the middle of a word: the tail is
  // masked, and a copy (allocated at the shrunk size) keeps the bits.
  const uint64_t shrunk = 64 * 3 + 7;
  bits.Resize(shrunk);
  bits.Set(shrunk - 1);
  EXPECT_EQ(bits.Count(), 4u);  // 0, 63, 64, shrunk - 1
  const DenseBitset copy = bits;
  EXPECT_EQ(copy.HeapBytes(), 4 * sizeof(uint64_t));
  EXPECT_EQ(copy.Count(), 4u);
  EXPECT_TRUE(copy.Test(shrunk - 1));
  bits.Resize(large);
  EXPECT_EQ(bits.Count(), 4u);
  EXPECT_FALSE(bits.Test(shrunk));
  EXPECT_FALSE(bits.Test(large - 1));
  EXPECT_FALSE(bits.Test(kHugePageBits));
}

TEST(DenseBitsetTest, HugePageBackedCopyAndMove) {
  const uint64_t size = 2 * kHugePageBits + 100;
  DenseBitset bits(size);
  bits.Set(1);
  bits.Set(kHugePageBits);
  bits.Set(size - 1);

  DenseBitset copy = bits;
  copy.Set(2);
  EXPECT_EQ(copy.Count(), 4u);
  EXPECT_EQ(bits.Count(), 3u);  // The copy owns its own block.

  DenseBitset moved = std::move(copy);
  EXPECT_EQ(moved.Count(), 4u);
  EXPECT_TRUE(moved.Test(size - 1));

  DenseBitset assigned(10);
  assigned = bits;
  EXPECT_EQ(assigned.Count(), 3u);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.Count(), 4u);
  EXPECT_EQ(assigned.HeapBytes(), bits.HeapBytes());
}

/// A 2^19 x 256 matrix (16 MiB of words, the size 2PS-L keeps for a
/// half-million-vertex graph at k=256) answers Test and the two sweeps
/// exactly as a std::vector<bool> reference does.
TEST(ReplicaMatrixTest, HugePageBackedMatrixAgreesWithReference) {
  constexpr VertexId kVertices = VertexId{1} << 19;
  constexpr uint32_t kPartitions = 256;
  ReplicaMatrix matrix(kVertices, kPartitions);
  EXPECT_EQ(matrix.HeapBytes(), uint64_t{kVertices} * kPartitions / 8);
  std::vector<bool> reference(uint64_t{kVertices} * kPartitions);
  std::vector<bool> covered(kVertices);
  uint64_t total = 0;
  uint64_t rows = 0;
  SplitMix64 rng(0x4a6e0ULL);
  std::vector<std::pair<VertexId, PartitionId>> probes;
  for (int i = 0; i < 300000; ++i) {
    // Half the sets land in the first and last rows' neighbourhoods.
    VertexId v = static_cast<VertexId>(rng.NextBounded(kVertices));
    if (i % 4 == 0) {
      v = static_cast<VertexId>(rng.NextBounded(64));
    } else if (i % 4 == 1) {
      v = kVertices - 1 - static_cast<VertexId>(rng.NextBounded(64));
    }
    const PartitionId p = static_cast<PartitionId>(rng.NextBounded(kPartitions));
    matrix.Set(v, p);
    const uint64_t bit = uint64_t{v} * kPartitions + p;
    total += reference[bit] ? 0 : 1;
    rows += covered[v] ? 0 : 1;
    reference[bit] = true;
    covered[v] = true;
    probes.push_back({v, p});
    probes.push_back({static_cast<VertexId>(rng.NextBounded(kVertices)),
                      static_cast<PartitionId>(rng.NextBounded(kPartitions))});
  }
  for (const auto& [v, p] : probes) {
    ASSERT_EQ(matrix.Test(v, p), reference[uint64_t{v} * kPartitions + p])
        << v << "," << p;
  }
  EXPECT_EQ(matrix.TotalReplicas(), total);
  EXPECT_EQ(matrix.CoveredVertices(), rows);
  using Access = ReplicaMatrix::Access;
  EXPECT_EQ(matrix.TotalReplicas<Access::kRelaxed>(), total);
  EXPECT_EQ(matrix.CoveredVertices<Access::kRelaxed>(), rows);
}

}  // namespace
}  // namespace tpsl
