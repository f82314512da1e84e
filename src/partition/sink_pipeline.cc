#include "partition/sink_pipeline.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpsl {

ShardedQualitySink::ShardedQualitySink(uint32_t num_partitions,
                                       uint32_t num_shards)
    : num_partitions_(num_partitions) {
  shards_.reserve(num_shards > 0 ? num_shards : 1);
  for (uint32_t s = 0; s < (num_shards > 0 ? num_shards : 1); ++s) {
    auto shard = std::make_unique<Shard>();
    shard->loads.assign(num_partitions, 0);
    shards_.push_back(std::move(shard));
  }
}

void ShardedQualitySink::AssignBatch(const Assignment* batch, size_t count) {
  if (count == 0) {
    return;
  }
  // Lease any free shard: with one shard per worker a free one always
  // exists when callers are the scoring workers, so the scan is one
  // probe in the common case; the wrap-around spin is a safety net for
  // oversubscribed callers (and for a sampler holding every lease).
  Shard* shard = nullptr;
  for (size_t i = 0;; ++i) {
    Shard& candidate = *shards_[i % shards_.size()];
    if (!candidate.in_use.exchange(true, std::memory_order_acquire)) {
      shard = &candidate;
      break;
    }
    if ((i + 1) % shards_.size() == 0) {
      std::this_thread::yield();
    }
  }
  bool saw_invalid = false;
  const bool own_replicas = lent_ == nullptr;
  for (size_t i = 0; i < count; ++i) {
    const Edge& e = batch[i].edge;
    const PartitionId p = batch[i].partition;
    const VertexId top = std::max(e.first, e.second);
    if (top == kInvalidVertex) {
      saw_invalid = true;  // row top + 1 would wrap to zero
      continue;
    }
    ++shard->loads[p];
    if (!own_replicas) {
      continue;  // the lender's matrix holds this edge's replicas
    }
    if (top >= shard->num_vertices) {
      shard->num_vertices = top + 1;
      shard->bits.Resize(static_cast<uint64_t>(shard->num_vertices) *
                         num_partitions_);
    }
    shard->bits.Set(static_cast<uint64_t>(e.first) * num_partitions_ + p);
    shard->bits.Set(static_cast<uint64_t>(e.second) * num_partitions_ + p);
  }
  bool sample = false;
  if (obs::TracingEnabled()) {
    const uint64_t before = shard->assigned;
    shard->assigned += count;
    sample = (before >> kSampleIntervalLog2) !=
             (shard->assigned >> kSampleIntervalLog2);
  }
  shard->in_use.store(false, std::memory_order_release);
  if (saw_invalid) {
    saw_invalid_vertex_.store(true, std::memory_order_relaxed);
  }
  if (sample) {
    SampleQuality();
  }
}

void ShardedQualitySink::LendReplicas(const DenseBitset* replicas) {
  if (replicas == nullptr && lent_ != nullptr) {
    // The lender's passes are over and its matrix is about to go.
    lent_tallies_ = ReplicaTallies{lent_->Count(),
                                   lent_->CountNonEmptyRows(num_partitions_)};
  }
  lent_ = replicas;
}

void ShardedQualitySink::SampleQuality() {
  const int64_t start_ns = obs::TraceNowNanos();
  const auto wait_for_lease = [](Shard& shard) {
    while (shard.in_use.exchange(true, std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  };
  PartitionQuality quality;
  if (lent_ != nullptr) {
    std::vector<uint64_t> loads(num_partitions_, 0);
    for (const auto& shard : shards_) {
      wait_for_lease(*shard);
      for (uint32_t p = 0; p < num_partitions_; ++p) {
        loads[p] += shard->loads[p];
      }
      shard->in_use.store(false, std::memory_order_release);
    }
    using Access = DenseBitset::Access;
    quality = QualityFromTallies(
        std::move(loads), lent_->Count<Access::kRelaxed>(),
        lent_->CountNonEmptyRows<Access::kRelaxed>(num_partitions_));
  } else {
    for (const auto& shard : shards_) {
      wait_for_lease(*shard);
    }
    quality = Quality();
    for (const auto& shard : shards_) {
      shard->in_use.store(false, std::memory_order_release);
    }
  }
  obs::EmitCounter("quality.replication_factor", quality.replication_factor);
  obs::EmitCounter("quality.max_load_skew", quality.measured_alpha);
  obs::MetricsRegistry::Default()
      .GetHistogram("sink.quality_sample_seconds")
      ->RecordNanos(static_cast<uint64_t>(obs::TraceNowNanos() - start_ns));
}

std::vector<uint64_t> ShardedQualitySink::Loads() const {
  std::vector<uint64_t> loads(num_partitions_, 0);
  for (const auto& shard : shards_) {
    for (uint32_t p = 0; p < num_partitions_; ++p) {
      loads[p] += shard->loads[p];
    }
  }
  return loads;
}

PartitionQuality ShardedQualitySink::Quality() {
  if (lent_tallies_) {
    return QualityFromTallies(Loads(), lent_tallies_->replicas,
                              lent_tallies_->covered);
  }
  Shard& merged = *shards_[0];
  for (size_t s = 1; s < shards_.size(); ++s) {
    const Shard& other = *shards_[s];
    if (other.num_vertices > merged.num_vertices) {
      merged.num_vertices = other.num_vertices;
      merged.bits.Resize(static_cast<uint64_t>(merged.num_vertices) *
                         num_partitions_);
    }
    merged.bits.InplaceOr(other.bits);
  }
  return QualityFromTallies(Loads(), merged.bits.Count(),
                            merged.bits.CountNonEmptyRows(num_partitions_));
}

Status ShardedQualitySink::Health() const {
  if (saw_invalid_vertex_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument(
        "edge endpoint " + std::to_string(kInvalidVertex) +
        " is the reserved invalid vertex id; the edge was not counted");
  }
  return Status::OK();
}

uint64_t ShardedQualitySink::StateBytes() const {
  uint64_t bytes = shards_.capacity() * sizeof(std::unique_ptr<Shard>);
  for (const auto& shard : shards_) {
    bytes += sizeof(Shard) + shard->bits.HeapBytes() +
             shard->loads.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

AsyncHandoffSink::AsyncHandoffSink(AssignmentSink* downstream,
                                   size_t max_queued_chunks)
    : downstream_(downstream),
      max_queued_chunks_(max_queued_chunks > 0 ? max_queued_chunks : 1) {}

AsyncHandoffSink::~AsyncHandoffSink() { Finish(); }

void AsyncHandoffSink::AssignBatch(const Assignment* batch, size_t count) {
  if (count == 0) {
    return;
  }
  std::vector<Assignment> chunk(batch, batch + count);
  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_) {
    started_ = true;
    drainer_ = std::thread([this]() { DrainLoop(); });
  }
  producer_cv_.wait(lock, [this]() {
    return queue_.size() < max_queued_chunks_;
  });
  queue_.push_back(std::move(chunk));
  lock.unlock();
  drainer_cv_.notify_one();
}

void AsyncHandoffSink::DrainLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    drainer_cv_.wait(lock, [this]() { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stop_ and drained: everything delivered
    }
    std::vector<Assignment> chunk = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    producer_cv_.notify_one();
    downstream_->AssignBatch(chunk.data(), chunk.size());
    lock.lock();
    if (health_.ok()) {
      // The drainer is the only thread touching the downstream during
      // a pass, so this is the one place its failure can be observed
      // promptly.
      health_ = downstream_->Health();
    }
  }
}

Status AsyncHandoffSink::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!health_.ok()) {
    return health_;
  }
  if (!started_) {
    // No drainer in flight (never started, or joined by Finish): the
    // downstream is quiescent and safe to inspect directly.
    return downstream_->Health();
  }
  return health_;
}

void AsyncHandoffSink::Finish() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    if (started_) {
      to_join = std::move(drainer_);
      started_ = false;
    }
  }
  drainer_cv_.notify_one();
  if (to_join.joinable()) {
    to_join.join();
  }
  // A late AssignBatch after Finish (none in the runner's sequencing)
  // still delivers: it restarts the drainer, which drains and exits on
  // the sticky stop_; the destructor's Finish joins it.
}

uint64_t AsyncHandoffSink::StateBytes() const {
  // The queue is transient back-pressure memory, not algorithm state;
  // report the downstream sinks, which are the pipeline's real
  // footprint.
  return downstream_->StateBytes();
}

}  // namespace tpsl
