#ifndef TPSL_PARTITION_METRICS_H_
#define TPSL_PARTITION_METRICS_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Quality of a finished edge partitioning, recomputed from scratch
/// from the materialized per-partition edge lists (independent of any
/// partitioner-internal bookkeeping, so it doubles as an oracle in
/// tests).
struct PartitionQuality {
  /// RF = (1/|V|) Σ_i |V(p_i)| over non-isolated vertices (paper §II-A).
  double replication_factor = 0.0;

  /// Measured balance: max_i |p_i| / (|E| / k). The paper reports this
  /// as α when a partitioner misses the configured bound.
  double measured_alpha = 0.0;

  uint64_t num_edges = 0;
  uint64_t num_covered_vertices = 0;
  uint64_t max_partition_size = 0;
  uint64_t min_partition_size = 0;
  std::vector<uint64_t> partition_sizes;
};

/// Quality from a partitioning's integer tallies: edges per partition,
/// Σ_v replicas(v), and vertices with at least one replica. The one
/// home of PartitionQuality's floating-point arithmetic, so every
/// producer of the tallies (ComputeQuality, QualitySink) agrees
/// to the last bit.
PartitionQuality QualityFromTallies(std::vector<uint64_t> loads,
                                    uint64_t total_replicas,
                                    uint64_t covered_vertices);

/// Computes quality from per-partition edge lists.
PartitionQuality ComputeQuality(const std::vector<std::vector<Edge>>& parts);

/// Validates the partitioning contract from per-partition edge loads:
/// every partition within `capacity`, total edges equals
/// `expected_edges`. Returns an error describing the first violation.
Status ValidateLoads(const std::vector<uint64_t>& loads,
                     uint64_t expected_edges, uint64_t capacity);

}  // namespace tpsl

#endif  // TPSL_PARTITION_METRICS_H_
