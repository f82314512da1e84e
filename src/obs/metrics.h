#ifndef TPSL_OBS_METRICS_H_
#define TPSL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tpsl {
namespace obs {

namespace internal {
/// Stable small id for the calling thread, used to pick a metric shard.
/// Distinct live threads land on distinct shards until the shard count
/// is exceeded, after which they wrap.
uint32_t ThreadShardId();
}  // namespace internal

/// Shards per counter/histogram. Power of two; 32 covers every pool
/// size this repo runs (hardware threads + ingest worker + main).
constexpr uint32_t kMetricShards = 32;

/// Monotonic event counter, sharded across cache-line-padded cells so
/// concurrent Add() from pool workers never contends on one line.
/// Add() is wait-free (one relaxed fetch_add); Total() merges shards.
class Counter {
 public:
  void Add(uint64_t n) {
    cells_[internal::ThreadShardId() & (kMetricShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, kMetricShards> cells_;
};

/// Last-write-wins instantaneous value (e.g. queue depth, running
/// replication factor). One atomic word holding the double's bits.
class Gauge {
 public:
  void Set(double value) {
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
  }
  double Value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void Reset() { Set(0.0); }

 private:
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
};

/// Log2-bucketed latency histogram: bucket b holds samples whose
/// nanosecond value has bit width b, i.e. [2^(b-1), 2^b). Recording is
/// one relaxed fetch_add on the calling thread's shard; Summarize()
/// merges shards and extracts percentiles. Resolution is a factor of
/// two — exactly what "is the p99 queue wait microseconds or
/// milliseconds" questions need, at a cost that is safe inside the
/// hot paths being measured.
class Histogram {
 public:
  static constexpr uint32_t kBuckets = 64;

  /// The bucket a nanosecond sample falls into. bit_width is 64 for
  /// samples with the top bit set, so the last bucket is a clamp
  /// catch-all: [2^62, 2^64).
  static uint32_t BucketOf(uint64_t nanos) {
    const uint32_t width = static_cast<uint32_t>(std::bit_width(nanos));
    return width < kBuckets ? width : kBuckets - 1;
  }

  /// A representative value (the inclusive lower bound) of `bucket`,
  /// in seconds. Percentile estimates are representatives, so they are
  /// exact up to bucket resolution.
  static double BucketLowerSeconds(uint32_t bucket) {
    return bucket == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(bucket) - 1) *
                                   1e-9;
  }

  void RecordNanos(uint64_t nanos) {
    cells_[internal::ThreadShardId() & (kMetricShards - 1)]
        .buckets[BucketOf(nanos)]
        .fetch_add(1, std::memory_order_relaxed);
  }
  void RecordSeconds(double seconds) {
    RecordNanos(seconds <= 0.0 ? 0 : static_cast<uint64_t>(seconds * 1e9));
  }

  struct Summary {
    uint64_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
  };

  /// Merged view of all shards. Percentile q is the representative
  /// value of the first bucket whose cumulative count reaches
  /// ceil(q * count) — the same bucket a sorted-vector oracle's
  /// ceil(q*n)-th sample lands in.
  Summary Summarize() const;

  void Reset() {
    for (Cell& cell : cells_) {
      for (std::atomic<uint64_t>& bucket : cell.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Cell {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };
  std::array<Cell, kMetricShards> cells_;
};

/// Point-in-time merged view of a registry.
struct MetricsSnapshot {
  struct HistogramRow {
    std::string name;
    Histogram::Summary summary;
  };
  std::vector<std::pair<std::string, uint64_t>> counters;  // name-sorted
  std::vector<std::pair<std::string, double>> gauges;      // name-sorted
  std::vector<HistogramRow> histograms;                    // name-sorted
};

/// Name -> metric map with stable handles: Get*() registers on first
/// use and always returns the same pointer afterwards, so hot paths
/// can cache it in a function-local static. Reset() zeroes values but
/// never invalidates handles.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Safe while other threads are mid-Add: relaxed merges, values may
  /// trail in-flight increments by a few.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (handles stay valid).
  void Reset();

  /// The process-wide registry every instrumentation site uses.
  static MetricsRegistry& Default();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace tpsl

#endif  // TPSL_OBS_METRICS_H_
