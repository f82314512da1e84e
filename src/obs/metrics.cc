#include "obs/metrics.h"

namespace tpsl {
namespace obs {

namespace internal {

uint32_t ThreadShardId() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace internal

Histogram::Summary Histogram::Summarize() const {
  std::array<uint64_t, kBuckets> merged{};
  Summary summary;
  for (const Cell& cell : cells_) {
    for (uint32_t b = 0; b < kBuckets; ++b) {
      merged[b] += cell.buckets[b].load(std::memory_order_relaxed);
    }
  }
  for (uint64_t count : merged) {
    summary.count += count;
  }
  if (summary.count == 0) {
    return summary;
  }
  const auto percentile = [&](double q) {
    const uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(summary.count)));
    const uint64_t target = rank == 0 ? 1 : rank;
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < kBuckets; ++b) {
      cumulative += merged[b];
      if (cumulative >= target) {
        return BucketLowerSeconds(b);
      }
    }
    return BucketLowerSeconds(kBuckets - 1);
  };
  summary.p50 = percentile(0.50);
  summary.p90 = percentile(0.90);
  summary.p99 = percentile(0.99);
  return summary;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Total());
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.push_back({name, histogram->Summarize()});
  }
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, counter] : counters_) {
    counter->Reset();
  }
  for (const auto& [name, gauge] : gauges_) {
    gauge->Reset();
  }
  for (const auto& [name, histogram] : histograms_) {
    histogram->Reset();
  }
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked on purpose: instrumentation in statics destroyed after this
  // one (the global thread pool's workers) must never observe a dead
  // registry. LeakSanitizer treats a reachable static as not-a-leak.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace obs
}  // namespace tpsl
