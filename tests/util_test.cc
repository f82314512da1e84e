#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/status.h"
#include "util/timer.h"

namespace tpsl {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::IoError("disk on fire");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(status.message(), "disk on fire");
  EXPECT_EQ(status.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) {
    return Status::InvalidArgument("not positive");
  }
  return x;
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = ParsePositive(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_EQ(result.value(), 7);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = ParsePositive(-1);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

Status ChainWithMacro(int x, int* out) {
  TPSL_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(ChainWithMacro(5, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(ChainWithMacro(-5, &out).ok());
}

Status FailThenSucceed(bool fail) {
  TPSL_RETURN_IF_ERROR(fail ? Status::Internal("boom") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(FailThenSucceed(false).ok());
  EXPECT_EQ(FailThenSucceed(true).code(), StatusCode::kInternal);
}

TEST(RandomTest, SplitMixIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next()) ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(RandomTest, BoundedStaysInRange) {
  SplitMix64 rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RandomTest, BoundedCoversRange) {
  SplitMix64 rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBounded(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomTest, DoubleInUnitInterval) {
  SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, Mix64IsBijectiveish) {
  // Distinct inputs should give distinct outputs (bijective finalizer).
  std::set<uint64_t> outputs;
  for (uint64_t x = 0; x < 1000; ++x) {
    outputs.insert(Mix64(x));
  }
  EXPECT_EQ(outputs.size(), 1000u);
}

TEST(TimerTest, ElapsedIsMonotonic) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t2, t1);
  EXPECT_GT(t2, 0.0);
}

TEST(MemoryTest, RssIsReported) {
  // On Linux /proc/self/status always exists; both values are nonzero
  // for a running process.
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
}

TEST(MemoryTest, GetrusageMaxRssIsReported) {
  // getrusage is POSIX and works even where /proc is masked off.
  const uint64_t max_rss = GetrusageMaxRssBytes();
  EXPECT_GT(max_rss, 0u);
  // Sanity bounds: bigger than a page, smaller than a terabyte.
  EXPECT_GE(max_rss, 4096u);
  EXPECT_LT(max_rss, uint64_t{1} << 40);
}

TEST(MemoryTest, PeakRssTracksAllocationHighWaterMark) {
  const uint64_t before = PeakRssBytes();
  {
    // Touch every page so the allocation actually becomes resident.
    std::vector<char> block(32 << 20);
    for (size_t i = 0; i < block.size(); i += 4096) {
      block[i] = static_cast<char>(i);
    }
    // Defeat dead-store elimination of the whole block.
    volatile char sink = block[block.size() - 1];
    (void)sink;
  }
  const uint64_t current = CurrentRssBytes();
  const uint64_t peak = PeakRssBytes();
  // The high-water mark survives the deallocation and never reads
  // below what is resident right now.
  EXPECT_GE(peak, before);
  EXPECT_GE(peak, current);
  EXPECT_GE(peak, uint64_t{32 << 20});
}

TEST(MemoryTest, ResetPeakRssScopesTheHighWaterMark) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep freed pages resident";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  GTEST_SKIP() << "sanitizer allocators keep freed pages resident";
#endif
#endif
  // Inflate the peak well above steady state, then reset: the
  // high-water mark must come back down near the current RSS instead
  // of sticking at the lifetime maximum.
  {
    std::vector<char> block(64 << 20);
    for (size_t i = 0; i < block.size(); i += 4096) {
      block[i] = static_cast<char>(i);
    }
    volatile char sink = block[block.size() - 1];
    (void)sink;
  }
  const uint64_t lifetime_peak = PeakRssBytes();
  if (!ResetPeakRss()) {
    GTEST_SKIP() << "/proc/self/clear_refs not writable here";
  }
  const uint64_t scoped_peak = PeakRssBytes();
  EXPECT_GT(scoped_peak, 0u);
  // The freed 64 MiB block must no longer count against the peak.
  EXPECT_LT(scoped_peak, lifetime_peak);
}

TEST(LoggingTest, SeverityThresholdRoundtrips) {
  const LogSeverity original = MinLogSeverity();
  SetMinLogSeverity(LogSeverity::kError);
  EXPECT_EQ(MinLogSeverity(), LogSeverity::kError);
  SetMinLogSeverity(original);
}

}  // namespace
}  // namespace tpsl
