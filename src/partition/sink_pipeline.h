#ifndef TPSL_PARTITION_SINK_PIPELINE_H_
#define TPSL_PARTITION_SINK_PIPELINE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/types.h"
#include "partition/assignment_sink.h"
#include "partition/metrics.h"
#include "partition/replica_matrix.h"
#include "util/status.h"

namespace tpsl {

/// Computes PartitionQuality online, one assignment at a time, at any
/// thread count, and never from an edge list — the streaming
/// replacement for running ComputeQuality over materialized partitions.
/// ComputeQuality stays as the independent test oracle.
///
/// The sink always counts per-partition edge loads itself, so
/// validation never rests on the partitioner's own load counters.
/// Replicas come from one ReplicaMatrix per run: a partitioner that
/// keeps one lends it (LendReplicas; 2PS-L, 2PS-HDRF, HDRF, Greedy,
/// ADWISE and HEP do), and the sink then holds O(k) loads only. For a
/// partitioner that keeps none (Hash, DBH, Grid, NE, ...) the sink
/// grows its own matrix, O(|V|·k / 8).
///
/// Like every sink it is called by one thread at a time (see
/// AssignmentSink). Quality() asks the matrix for its total replicas
/// and covered vertices, then derives the rest through
/// QualityFromTallies, ComputeQuality's own arithmetic, so the two agree
/// to the last bit (the property suites assert exact equality).
class QualitySink : public AssignmentSink {
 public:
  /// Each time the sink has absorbed another 2^kSampleIntervalLog2
  /// assignments it emits the running replication factor and max-load
  /// skew as trace counter events — quality convergence over the
  /// stream. Only while tracing: with tracing off the sink does no
  /// sampling work.
  static constexpr uint32_t kSampleIntervalLog2 = 16;

  explicit QualitySink(uint32_t num_partitions);

  void Assign(const Edge& edge, PartitionId partition) override {
    const Assignment one{edge, partition};
    AssignBatch(&one, 1);
  }

  /// An edge touching kInvalidVertex is skipped (its row would lie past
  /// the addressable matrix) and latches InvalidArgument in Health().
  void AssignBatch(const Assignment* batch, size_t count) override;

  /// While a matrix is lent the sink sets no replica bits. Taking it
  /// back (nullptr) counts its replicas and covered vertices once, so
  /// Quality() no longer needs it.
  void LendReplicas(const ReplicaMatrix* replicas) override;

  /// Per-partition edge loads counted so far.
  const std::vector<uint64_t>& Loads() const { return loads_; }

  /// Quality over everything assigned so far. Call after any lent
  /// matrix was taken back.
  PartitionQuality Quality() const;

  Status Health() const override;

  uint64_t StateBytes() const override;

 private:
  /// Σ_v replicas(v) and the vertices with at least one replica.
  struct ReplicaTallies {
    uint64_t replicas = 0;
    uint64_t covered = 0;
  };

  /// Emits the running quality as counter events. A lent matrix is
  /// read by relaxed loads: a parallel lender's other workers keep
  /// setting bits while this one delivers.
  void SampleQuality();

  std::vector<uint64_t> loads_;
  ReplicaMatrix own_;  // grown per edge, only while nothing is lent
  uint64_t assigned_ = 0;  // counted only while tracing
  bool saw_invalid_vertex_ = false;
  // Set by the lender before its passes start and cleared after they
  // end.
  const ReplicaMatrix* lent_ = nullptr;
  std::optional<ReplicaTallies> lent_tallies_;  // taken at release
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_SINK_PIPELINE_H_
