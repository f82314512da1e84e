#include "partition/sink_pipeline.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpsl {

QualitySink::QualitySink(uint32_t num_partitions)
    : loads_(num_partitions, 0), own_(0, num_partitions) {}

void QualitySink::AssignBatch(const Assignment* batch, size_t count) {
  if (count == 0) {
    return;
  }
  const bool own_replicas = lent_ == nullptr;
  for (size_t i = 0; i < count; ++i) {
    const Edge& e = batch[i].edge;
    const PartitionId p = batch[i].partition;
    const VertexId top = std::max(e.first, e.second);
    if (top == kInvalidVertex) {
      saw_invalid_vertex_ = true;  // row top + 1 would wrap to zero
      continue;
    }
    ++loads_[p];
    if (!own_replicas) {
      continue;  // the lender's matrix holds this edge's replicas
    }
    own_.GrowVertices(top + 1);
    own_.Set(e.first, p);
    own_.Set(e.second, p);
  }
  if (obs::TracingEnabled()) {
    const uint64_t before = assigned_;
    assigned_ += count;
    if ((before >> kSampleIntervalLog2) !=
        (assigned_ >> kSampleIntervalLog2)) {
      SampleQuality();
    }
  }
}

void QualitySink::LendReplicas(const ReplicaMatrix* replicas) {
  if (replicas == nullptr && lent_ != nullptr) {
    // The lender's passes are over and its matrix is about to go.
    lent_tallies_ =
        ReplicaTallies{lent_->TotalReplicas(), lent_->CoveredVertices()};
  }
  lent_ = replicas;
}

void QualitySink::SampleQuality() {
  const int64_t start_ns = obs::TraceNowNanos();
  PartitionQuality quality;
  if (lent_ != nullptr) {
    using Access = ReplicaMatrix::Access;
    quality = QualityFromTallies(loads_,
                                 lent_->TotalReplicas<Access::kRelaxed>(),
                                 lent_->CoveredVertices<Access::kRelaxed>());
  } else {
    quality = Quality();
  }
  obs::EmitCounter("quality.replication_factor", quality.replication_factor);
  obs::EmitCounter("quality.max_load_skew", quality.measured_alpha);
  obs::MetricsRegistry::Default()
      .GetHistogram("sink.quality_sample_seconds")
      ->RecordNanos(static_cast<uint64_t>(obs::TraceNowNanos() - start_ns));
}

PartitionQuality QualitySink::Quality() const {
  if (lent_tallies_) {
    return QualityFromTallies(loads_, lent_tallies_->replicas,
                              lent_tallies_->covered);
  }
  return QualityFromTallies(loads_, own_.TotalReplicas(),
                            own_.CoveredVertices());
}

Status QualitySink::Health() const {
  if (saw_invalid_vertex_) {
    return Status::InvalidArgument(
        "edge endpoint " + std::to_string(kInvalidVertex) +
        " is the reserved invalid vertex id; the edge was not counted");
  }
  return Status::OK();
}

uint64_t QualitySink::StateBytes() const {
  return own_.HeapBytes() + loads_.capacity() * sizeof(uint64_t);
}

}  // namespace tpsl
